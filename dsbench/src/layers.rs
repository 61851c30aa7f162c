//! The per-layer sweep of the traced run.
//!
//! Every call into a layer's public functions runs inside a span (or a
//! batch span, for calls too short to time one by one); each per-layer
//! metric is then read back from the spans by name, except the counts
//! that come from a sink, the allocator, the daemon's `stats` or
//! `/proc/<pid>` of the daemon child. Every traced run makes the same
//! sweep, whatever its workload, so each per-layer metric always has
//! the same inputs.

use crate::client::{self, Daemon};
use crate::{alloc, median, spans, Args, Report};
use dram_obs::EventBus;
use dram_sim::{ChipEvent, ChipProfile, Command, CommandSink, DramChip};
use dram_testbed::Testbed;
use dram_trace::{IndexedTrace, Query};
use dramscope_core::dossier::{characterize_instrumented, characterize_with_stats_traced};
use dramscope_core::fleet::{self, FleetConfig};
use dramscope_core::shard::ShardConfig;
use dramscope_core::trace_run::{record_characterization, record_characterization_sharded};
use dramscope_service::service::JobSpec;
use dramscope_service::{cache, parse_request, profiles, Request, Service};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The Table I preset whose probe phases the sweep times.
const PHASE_PRESET: &str = "mfr_b_x4_2019";
const PHASES: [&str; 5] = ["structure", "power", "retention", "remap", "trr_ecc"];
/// The phases that hammer through closed-form bursts; the others fold
/// no activations, so their modeled count is not reported.
const FOLDING_PHASES: [&str; 2] = ["remap", "trr_ecc"];
const PHASE_SPANS: [&str; 6] = [
    "core.phase.structure",
    "core.phase.power",
    "core.phase.retention",
    "core.phase.remap",
    "core.phase.swizzle",
    "core.phase.trr_ecc",
];

pub fn sweep(args: &Args, report: &mut Report) -> Result<(), String> {
    let dir = args
        .work_dir
        .join(format!("sweep-{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    core_phases(report)?;
    sinks(report)?;
    sim(report)?;
    testbed(report)?;
    fleet_batch(report)?;
    service_cache_trace(report, &dir)?;
    daemon_process(args, report, &dir)?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(())
}

/// Median per-op time of the spans called `span`, scaled from ns.
fn from_spans(report: &mut Report, metric: &str, span: &str, per_ns: f64, unit: &'static str) {
    let samples = spans::per_op_ns(span);
    report.metric(metric, median(&samples) / per_ns, unit, samples.len());
}

/// Per-phase wall time, issued commands and modeled activations, from
/// the `phase:` markers of the primary probe testbed.
#[derive(Default)]
struct PhaseLog {
    /// (phase, start, commands issued, activations folded into bursts)
    phases: Vec<(String, Instant, u64, u64)>,
    events: u64,
}

struct PhaseSink(Arc<Mutex<PhaseLog>>);

impl CommandSink for PhaseSink {
    fn record(&mut self, event: ChipEvent<'_>) {
        let mut log = self.0.lock().expect("phase log poisoned");
        log.events += 1;
        match event {
            ChipEvent::Marker { label } => {
                if let Some(phase) = label.strip_prefix("phase:") {
                    log.phases.push((phase.to_string(), Instant::now(), 0, 0));
                }
            }
            ChipEvent::Command { .. } => {
                if let Some(p) = log.phases.last_mut() {
                    p.2 += 1;
                }
            }
            ChipEvent::Burst { count, .. } => {
                if let Some(p) = log.phases.last_mut() {
                    p.3 += count;
                }
            }
            _ => {}
        }
    }
}

/// One characterization with a [`PhaseSink`] attached; returns the log
/// and when the call returned.
fn phase_run(name: &str, seed: u64) -> Result<(PhaseLog, Instant), String> {
    let (profile, opts) = profiles::named_job(name).ok_or("unknown profile")?;
    let log = Arc::new(Mutex::new(PhaseLog::default()));
    let sink = Box::new(PhaseSink(Arc::clone(&log)));
    let end = spans::span("core.characterize_with_stats_traced", || {
        let out = characterize_with_stats_traced(&profile, seed, opts, Some(sink));
        let end = Instant::now();
        // The phases become child spans of this call.
        let log = log.lock().expect("phase log poisoned");
        for (i, (phase, start, _, _)) in log.phases.iter().enumerate() {
            let stop = log.phases.get(i + 1).map_or(end, |next| next.1);
            if let Some(span) = PHASE_SPANS.iter().find(|s| s.ends_with(phase.as_str())) {
                spans::record(span, *start, stop, 1);
            }
        }
        out.map(|_| end)
    })
    .map_err(|e| format!("characterizing {name}: {e}"))?;
    let log = std::mem::take(&mut *log.lock().expect("phase log poisoned"));
    Ok((log, end))
}

fn core_phases(report: &mut Report) -> Result<(), String> {
    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for rep in 0..3 {
        let (log, end) = phase_run(PHASE_PRESET, 0x5ca1e + rep)?;
        for (i, (phase, start, cmds, acts)) in log.phases.iter().enumerate() {
            let Some(&name) = PHASES.iter().find(|p| *p == phase) else {
                continue;
            };
            let stop = log.phases.get(i + 1).map_or(end, |next| next.1);
            times
                .entry(name)
                .or_default()
                .push((stop - *start).as_secs_f64() * 1e3);
            counts.insert(name, (*cmds, *acts));
        }
    }
    for phase in PHASES {
        let (cmds, acts) = counts.get(phase).copied().unwrap_or_default();
        let t = times.get(phase).cloned().unwrap_or_default();
        report.metric(&format!("core.{phase}.ms"), median(&t), "ms", t.len());
        report.metric(
            &format!("core.{phase}.issued_cmds"),
            cmds as f64,
            "count",
            1,
        );
        if FOLDING_PHASES.contains(&phase) {
            report.metric(
                &format!("core.{phase}.modeled_acts"),
                acts as f64,
                "count",
                1,
            );
        }
    }
    Ok(())
}

/// Sink cost by difference: the same `test_small` job bare, with the
/// metrics sink, and with metrics plus the trace recorder.
fn sinks(report: &mut Report) -> Result<(), String> {
    let (profile, opts) = profiles::named_job("test_small").ok_or("unknown profile")?;
    let events = phase_run("test_small", 7)?.0.events as f64;
    let (mut bare, mut metrics, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        spans::span("core.characterize_with_stats_traced", || {
            characterize_with_stats_traced(&profile, 7, opts, None)
        })
        .map_err(|e| e.to_string())?;
        bare.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        spans::span("core.characterize_instrumented", || {
            characterize_instrumented(&profile, 7, opts, None)
        })
        .map_err(|e| e.to_string())?;
        metrics.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        spans::span("trace.record_characterization", || {
            record_characterization(&profile, 7, opts)
        })
        .map_err(|e| e.to_string())?;
        traced.push(t.elapsed().as_secs_f64());
    }
    let (bare, metrics, traced) = (median(&bare), median(&metrics), median(&traced));
    report.metric(
        "sink.metrics_ns_per_event",
        (metrics - bare) * 1e9 / events,
        "ns",
        5,
    );
    report.metric(
        "sink.trace_ns_per_event",
        (traced - metrics) * 1e9 / events,
        "ns",
        5,
    );
    report.metric("sink.events_per_dossier", events, "count", 1);
    report.metric("trace.record_ms", traced * 1e3, "ms", 5);
    Ok(())
}

/// `DramChip` entry points on a `test_small` chip: a legal
/// ACT-WR-RD-PRE loop, closed-form hammer bursts and refresh windows.
fn sim(report: &mut Report) -> Result<(), String> {
    let mut chip = DramChip::new(ChipProfile::test_small(), 11);
    let t = *chip.timing();
    let rows = chip.profile().rows_per_bank;
    let mut at = chip.now();
    let open = t.tras.checked_sub(t.trcd).ok_or("tRAS below tRCD")?;
    let err = |e: dram_sim::CommandError| e.to_string();
    for _ in 0..20 {
        spans::span_n("sim.issue", u64::from(rows) * 4, || {
            for row in 0..rows {
                at += t.trp;
                chip.issue(Command::Activate { bank: 0, row }, at)?;
                at += t.trcd;
                chip.issue(
                    Command::Write {
                        bank: 0,
                        col: 0,
                        data: u64::from(row),
                    },
                    at,
                )?;
                black_box(chip.issue(Command::Read { bank: 0, col: 0 }, at + t.tck)?);
                at += open;
                chip.issue(Command::Precharge { bank: 0 }, at)?;
            }
            Ok(())
        })
        .map_err(err)?;
    }
    for rep in 0..20u32 {
        spans::span_n("sim.burst", 64, || {
            for i in 0..64 {
                at =
                    chip.activate_burst(0, 100 + (rep * 64 + i) % 1800, 1000, t.tras, at + t.trp)?;
            }
            Ok(())
        })
        .map_err(err)?;
    }
    for _ in 0..10 {
        spans::span_n("sim.refresh_window", 8, || {
            for _ in 0..8 {
                at += t.trefw;
                chip.refresh_window(at)?;
            }
            Ok(())
        })
        .map_err(err)?;
    }
    from_spans(report, "sim.issue_ns", "sim.issue", 1.0, "ns");
    from_spans(report, "sim.burst_ns", "sim.burst", 1.0, "ns");
    from_spans(
        report,
        "sim.refresh_window_us",
        "sim.refresh_window",
        1e3,
        "us",
    );
    Ok(())
}

/// `Testbed` row operations on the preset the phases run on.
fn testbed(report: &mut Report) -> Result<(), String> {
    let (profile, _) = profiles::named_job(PHASE_PRESET).ok_or("unknown profile")?;
    let mut tb = Testbed::new(DramChip::new(profile, 11));
    let err = |e: dram_testbed::TestbedError| e.to_string();
    // Rows 900..1500 lie inside one interior subarray of the preset.
    for i in 0..200u32 {
        spans::span("testbed.write_row", || {
            tb.write_row_pattern(0, 900 + i, 0xA5A5)
        })
        .map_err(err)?;
    }
    for i in 0..200u32 {
        spans::span("testbed.read_row", || {
            tb.read_row(0, 900 + i).map(black_box)
        })
        .map_err(err)?;
    }
    for i in 0..200u32 {
        spans::span("testbed.rowcopy", || tb.rowcopy(0, 1100 + i, 1101 + i)).map_err(err)?;
    }
    for i in 0..100u32 {
        spans::span("testbed.hammer", || tb.hammer(0, 1350 + i, 10_000)).map_err(err)?;
    }
    from_spans(
        report,
        "testbed.write_row_us",
        "testbed.write_row",
        1e3,
        "us",
    );
    from_spans(report, "testbed.read_row_us", "testbed.read_row", 1e3, "us");
    from_spans(report, "testbed.rowcopy_us", "testbed.rowcopy", 1e3, "us");
    from_spans(report, "testbed.hammer_us", "testbed.hammer", 1e3, "us");
    Ok(())
}

/// One Table I batch on two workers; queue wait is when a poller saw
/// each job's `job.started` event.
fn fleet_batch(report: &mut Report) -> Result<(), String> {
    let jobs = fleet::table1_jobs();
    let bus = EventBus::new(4096);
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let (batch, waits) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut seen: BTreeMap<String, f64> = BTreeMap::new();
            let mut cursor = 0;
            loop {
                let finished = done.load(Ordering::SeqCst);
                let tail = bus.since(cursor, 0);
                cursor = tail.next_seq;
                for ev in tail.events.iter().filter(|e| e.kind == "job.started") {
                    let job = ev.job_id.clone().unwrap_or_default();
                    seen.entry(job)
                        .or_insert_with(|| started.elapsed().as_secs_f64() * 1e3);
                }
                if finished {
                    return seen;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let batch = spans::span("core.run_fleet", || {
            fleet::run_fleet_with_events(&jobs, 0x5ca1e, FleetConfig { workers: 2 }, Some(&bus))
        });
        done.store(true, Ordering::SeqCst);
        (batch, poller.join().expect("event poller panicked"))
    });
    let makespan_s = started.elapsed().as_secs_f64();
    let busy_ms: f64 = batch.results.iter().map(|r| r.job_wall_ms).sum();
    let waits: Vec<f64> = waits.into_values().collect();
    report.metric("fleet.makespan_s", makespan_s, "s", 1);
    report.metric(
        "fleet.busy_share",
        busy_ms / (makespan_s * 2e3),
        "ratio",
        jobs.len(),
    );
    report.metric(
        "fleet.queue_wait_ms",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
        "ms",
        waits.len(),
    );
    // Allocations of one fleet job (the instrumented flow), counted on
    // this thread alone so the batch above runs without the counter.
    let job = &jobs[0];
    let (outcome, allocs) = alloc::counted(|| {
        spans::span("core.characterize_instrumented", || {
            characterize_instrumented(&job.profile, 0x5ca1e, job.opts, None)
        })
    });
    outcome.map_err(|e| e.to_string())?;
    report.metric("alloc.per_dossier", allocs as f64, "count", 1);
    Ok(())
}

fn spec_for(seed: u64) -> Result<JobSpec, String> {
    let line = format!("{{\"req\":\"characterize\",\"profile\":\"test_small\",\"seed\":{seed}}}");
    let Ok(Request::Characterize(req)) = parse_request(&line) else {
        return Err(format!("request did not parse: {line}"));
    };
    let (profile, _) = profiles::named_job("test_small").ok_or("unknown profile")?;
    Ok(JobSpec::new(&req, profile))
}

/// In-process `Service` tiers, the cache file codec, the protocol
/// parser and the trace lake.
fn service_cache_trace(report: &mut Report, dir: &Path) -> Result<(), String> {
    let svc = Service::new(2);
    svc.set_cache_dir(dir.join("svc-cache"))
        .map_err(|e| format!("cache dir: {e}"))?;
    svc.set_cache_limits(1, 0);
    let specs: Vec<JobSpec> = (21..25).map(spec_for).collect::<Result<_, _>>()?;
    let mut output = None;
    for spec in &specs {
        let (out, _) = spans::span("service.submit_miss", || svc.submit(spec, None))
            .map_err(|e| e.to_string())?;
        output = Some(out);
    }
    let output = output.expect("four misses ran");
    let hit = &specs[3];
    let events = svc.events().next_seq();
    let (hits, allocs) = alloc::counted(|| {
        (0..500)
            .try_for_each(|_| spans::span("service.submit_hit", || svc.submit(hit, None)).map(drop))
    });
    hits.map_err(|e| e.to_string())?;
    let events = svc.events().next_seq() - events;
    let before = svc.stats();
    // A one-entry bound and two alternating keys: every submit is a
    // disk hit that evicts the other key.
    for i in 0..200 {
        let spec = &specs[2 + i % 2];
        spans::span("service.submit_disk_hit", || svc.submit(spec, None))
            .map_err(|e| e.to_string())?;
    }
    let after = svc.stats();
    svc.shutdown();
    from_spans(
        report,
        "service.submit_hit_us",
        "service.submit_hit",
        1e3,
        "us",
    );
    from_spans(
        report,
        "service.submit_disk_hit_us",
        "service.submit_disk_hit",
        1e3,
        "us",
    );
    from_spans(
        report,
        "service.submit_miss_ms",
        "service.submit_miss",
        1e6,
        "ms",
    );
    report.metric(
        "service.events_per_request",
        events as f64 / 500.0,
        "count",
        500,
    );
    report.metric("alloc.per_hit_submit", allocs as f64 / 500.0, "count", 500);
    report.metric(
        "cache.disk_hits",
        (after.disk_hits - before.disk_hits) as f64,
        "count",
        200,
    );
    report.metric(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
        200,
    );

    let line = "{\"req\":\"characterize\",\"id\":\"j1\",\"profile\":\"test_small\",\"seed\":42}";
    for _ in 0..20 {
        spans::span_n("protocol.parse_request", 500, || {
            for _ in 0..500 {
                black_box(parse_request(black_box(line)).is_ok());
            }
        });
    }
    from_spans(
        report,
        "protocol.parse_us",
        "protocol.parse_request",
        1e3,
        "us",
    );

    let key = hit.key();
    let bytes = cache::encode_entry(&output);
    let files = dir.join("files");
    std::fs::create_dir_all(&files).map_err(|e| format!("{}: {e}", files.display()))?;
    for _ in 0..20 {
        spans::span_n("cache.encode_entry", 50, || {
            for _ in 0..50 {
                black_box(cache::encode_entry(&output));
            }
        });
        spans::span_n("cache.decode_entry", 50, || {
            for _ in 0..50 {
                black_box(cache::decode_entry(black_box(&bytes)).is_ok());
            }
        });
    }
    for _ in 0..30 {
        spans::span("cache.persist_entry", || {
            cache::persist_entry(&files, &key, &output)
        })
        .map_err(|e| format!("persist: {e}"))?;
    }
    for _ in 0..200 {
        spans::span("cache.probe_disk", || {
            black_box(cache::probe_disk(&files, &key))
        });
    }
    from_spans(
        report,
        "cache.encode_entry_us",
        "cache.encode_entry",
        1e3,
        "us",
    );
    from_spans(
        report,
        "cache.decode_entry_us",
        "cache.decode_entry",
        1e3,
        "us",
    );
    from_spans(
        report,
        "cache.persist_entry_us",
        "cache.persist_entry",
        1e3,
        "us",
    );
    from_spans(report, "cache.probe_disk_us", "cache.probe_disk", 1e3, "us");

    // The trace lake, with the traces and the query shape of
    // `daemon-query`.
    let (small, small_opts) = profiles::named_job("test_small").ok_or("unknown profile")?;
    let (hbm, hbm_opts) = profiles::named_job("test_small_hbm2").ok_or("unknown profile")?;
    let (_, _, plain) =
        record_characterization(&small, 7, small_opts).map_err(|e| e.to_string())?;
    let (_, sharded, _) =
        record_characterization_sharded(&hbm, 7, hbm_opts, ShardConfig { shards: 2 })
            .map_err(|e| e.to_string())?;
    let lake = dir.join("traces");
    std::fs::create_dir_all(&lake).map_err(|e| format!("{}: {e}", lake.display()))?;
    for (name, trace) in [("plain.trace", &plain), ("sharded.trace", &sharded)] {
        let mut v2 = Vec::new();
        for _ in 0..5 {
            v2 = spans::span("trace.to_bytes_indexed", || trace.to_bytes_indexed());
        }
        for _ in 0..20 {
            spans::span_n("trace.open", 5, || {
                for _ in 0..5 {
                    black_box(IndexedTrace::from_bytes(black_box(&v2)).is_ok());
                }
            });
        }
        std::fs::write(lake.join(name), &v2).map_err(|e| format!("{name}: {e}"))?;
    }
    let query = Query {
        banks: Some(vec![1]),
        mnemonics: Some(vec!["act".into()]),
        ..Query::default()
    };
    let mut share = 0.0;
    for _ in 0..20 {
        let r = spans::span("trace.query_path", || dram_trace::query_path(&lake, &query))?;
        share = r.segments_decoded as f64 / r.segments.max(1) as f64;
    }
    from_spans(
        report,
        "trace.encode_indexed_ms",
        "trace.to_bytes_indexed",
        1e6,
        "ms",
    );
    from_spans(report, "trace.open_us", "trace.open", 1e3, "us");
    from_spans(report, "trace.query_ms", "trace.query_path", 1e6, "ms");
    report.metric("trace.segments_decoded_share", share, "ratio", 20);
    Ok(())
}

/// Memory maps, resident set and threads of a `dramscoped` child over
/// 2000 cache hits on one held-open connection, and the socket round
/// trip on top of an in-process hit.
fn daemon_process(args: &Args, report: &mut Report, dir: &Path) -> Result<(), String> {
    const HITS: u64 = 2000;
    let daemon = Daemon::spawn(&args.daemon, &dir.join("daemon"), &[])?;
    let pid = daemon.pid();
    let mut conn = daemon.connect()?;
    let request = "{\"req\":\"characterize\",\"profile\":\"test_small\",\"seed\":31}";
    conn.call(request)?;
    for _ in 0..100 {
        conn.call(request)?;
    }
    let maps0 = client::maps_count(pid).ok_or("no /proc maps")?;
    let rss0 = client::proc_status_kb(pid, "VmRSS").ok_or("no VmRSS")?;
    let mut round_trips = Vec::new();
    for _ in 0..HITS {
        let t = Instant::now();
        spans::span("daemon.request.hit", || conn.call(request))?;
        round_trips.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let maps1 = client::maps_count(pid).ok_or("no /proc maps")?;
    let rss1 = client::proc_status_kb(pid, "VmRSS").ok_or("no VmRSS")?;
    let threads = client::proc_status_kb(pid, "Threads").ok_or("no Threads")?;
    drop(conn);
    daemon.shutdown()?;
    let in_process_us = median(&spans::per_op_ns("service.submit_hit")) / 1e3;
    report.metric(
        "daemon.maps_per_request",
        (maps1 as f64 - maps0 as f64) / HITS as f64,
        "count",
        HITS as usize,
    );
    report.metric(
        "daemon.rss_kb_per_request",
        (rss1 as f64 - rss0 as f64) / HITS as f64,
        "kB",
        HITS as usize,
    );
    report.metric("daemon.threads", threads as f64, "count", 1);
    report.metric(
        "daemon.round_trip_overhead_us",
        median(&round_trips) - in_process_us,
        "us",
        round_trips.len(),
    );
    Ok(())
}
