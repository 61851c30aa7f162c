//! The five workloads. Each runs whole rounds of the same operations
//! until `--seconds` have passed, checks every output, and reports the
//! end-to-end metrics `setup_s`, `ops_per_s`, `peak_rss_mb`, `p50_ms`
//! and `p90_ms`.
//!
//! * `table1-fleet` — `run_fleet` over the 16 Table I presets on two
//!   workers; a round is one batch. No daemon.
//! * `daemon-hit`, `daemon-disk-hit`, `daemon-query` — one `dramscoped`
//!   with a disk cache, a memory bound below the warmed key count and a
//!   trace directory; one closed-loop connection per round sends only
//!   memory hits, only disk hits, or only trace-lake queries, so each
//!   latency sits on one mode. No simulation runs while they measure.
//! * `daemon-write` — a fresh daemon per round, sent the fixed
//!   `test_small` seeds 1000–1015 over two closed-loop connections;
//!   every request misses, simulates on the pool and persists a cache
//!   file.

use crate::client::{self, Conn, Daemon};
use crate::grade::{self, Grade, Lru, Observed, Tier, Tiers, Truth};
use crate::{median, peak_rss_mb, percentile, spans, Args, Report, Rng};
use dram_trace::Trace;
use dramscope_core::fleet::{self, FleetConfig};
use dramscope_core::shard::ShardConfig;
use dramscope_core::trace_run::{record_characterization, record_characterization_sharded};
use dramscope_service::{cache, profiles};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const NAMES: [&str; 5] = [
    "table1-fleet",
    "daemon-hit",
    "daemon-disk-hit",
    "daemon-query",
    "daemon-write",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The fleet base seed (the CLI's and the daemon's default seed).
const FLEET_BASE_SEED: u64 = 0x5ca1e;
/// Keys the read workloads warm, and the daemon's memory bound below it.
const WARM_KEYS: usize = 12;
const MEMORY_BOUND: usize = 8;
/// The `test_small` seeds every `daemon-write` round characterizes.
/// Fixed, not drawn from `--seed`, so the F1 share is the same in
/// every run; `--seed` orders them and splits them over connections.
const WRITE_SEEDS: std::ops::Range<u64> = 1000..1016;
/// The command mnemonics and sharded banks query predicates draw from.
const QUERY_CMDS: [&str; 4] = ["act", "pre", "rd", "wr"];
const QUERY_BANKS: [u32; 3] = [1, 2, 3];

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    match args.workload.as_str() {
        "table1-fleet" => table1_fleet(args, report),
        "daemon-write" => daemon_write(args, report),
        read => daemon_read(args, report, read),
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `p50_ms` and `p90_ms`: the median over rounds of each round's
/// percentile, so that a slow spell of the host moves a few rounds
/// rather than the whole figure.
fn latency_metrics(report: &mut Report, rounds_ms: &[Vec<f64>]) {
    let samples = rounds_ms.iter().map(Vec::len).sum();
    for (name, p) in [("p50_ms", 50.0), ("p90_ms", 90.0)] {
        let per_round: Vec<f64> = rounds_ms
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| percentile(r, p))
            .collect();
        report.metric(name, median(&per_round), "ms", samples);
    }
}

fn table1_fleet(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut jobs = fleet::table1_jobs();
        // The seed orders the batch; the dossiers depend only on the
        // (profile, derived seed) pairs, which it does not change.
        Rng::new(args.seed).shuffle(&mut jobs);
        let truths: BTreeMap<String, Truth> = jobs
            .iter()
            .map(|job| {
                let label = job.profile.label();
                let seed = fleet::derive_seed(FLEET_BASE_SEED, &label);
                (label, Truth::of(&job.profile, seed))
            })
            .collect();
        setup_s.push(secs(t));
        fixture = Some((jobs, truths));
    }
    let (jobs, truths) = fixture.expect("at least one set-up");

    let config = FleetConfig { workers: 2 };
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut latencies = Vec::new();
    let mut first_digests: Option<BTreeMap<String, u64>> = None;
    let mut f1_labels = Vec::new();
    while secs(started) < args.seconds {
        let t = Instant::now();
        let batch = spans::span("core.run_fleet", || {
            fleet::run_fleet(&jobs, FLEET_BASE_SEED, config)
        });
        rates.push(jobs.len() as f64 / secs(t));
        latencies.push(batch.results.iter().map(|r| r.job_wall_ms).collect());
        let mut digests = BTreeMap::new();
        for r in &batch.results {
            report.attempted += 1;
            let dossier = match &r.outcome {
                Ok(d) => d,
                Err(e) => {
                    report.fail(&format!("characterization error on {}: {e}", r.label));
                    continue;
                }
            };
            digests.insert(r.label.clone(), dossier.digest());
            let truth = truths
                .get(&r.label)
                .ok_or_else(|| format!("no ground truth for {}", r.label))?;
            match grade::grade(&Observed::of(dossier), truth) {
                Grade::Pass => {}
                Grade::F1 => {
                    report.fail(grade::F1);
                    if first_digests.is_none() {
                        f1_labels.push(r.label.clone());
                    }
                }
                Grade::Mismatch(wrong) => report.fail(&format!(
                    "ground-truth mismatch on {}: {}",
                    r.label,
                    wrong.join("; ")
                )),
            }
        }
        match &first_digests {
            None => first_digests = Some(digests),
            Some(first) if *first != digests => {
                report.problem("a batch's dossier digests differ from the first batch's".into())
            }
            Some(_) => {}
        }
    }
    f1_labels.sort();
    report.notes.push(format!(
        "table1-fleet: {} batches of {} presets on 2 workers; F1 on {:?}",
        rates.len(),
        jobs.len(),
        f1_labels
    ));
    report.metric("setup_s", median(&setup_s), "s", setup_s.len());
    report.metric("ops_per_s", median(&rates), "1/s", rates.len());
    report.metric("peak_rss_mb", peak_rss_mb(std::process::id()), "MiB", 1);
    latency_metrics(report, &latencies);
    Ok(())
}

fn characterize_request(seed: u64) -> String {
    format!("{{\"req\":\"characterize\",\"profile\":\"test_small\",\"seed\":{seed}}}")
}

fn small_job() -> (
    dram_sim::ChipProfile,
    dramscope_core::dossier::CharacterizeOptions,
) {
    profiles::named_job("test_small").expect("test_small is a known profile")
}

/// Grades a daemon-rendered dossier; returns whether it showed F1.
fn grade_text(report: &mut Report, text: &str, truth: &Truth, what: &str) -> bool {
    match Observed::parse(text).map(|obs| grade::grade(&obs, truth)) {
        Ok(Grade::Pass) => false,
        Ok(Grade::F1) => true,
        Ok(Grade::Mismatch(wrong)) => {
            report.problem(format!("{what}: {}", wrong.join("; ")));
            false
        }
        Err(e) => {
            report.problem(format!("{what}: {e}"));
            false
        }
    }
}

/// The daemon counters the read checks compare.
fn tiers(conn: &mut Conn) -> Result<Tiers, String> {
    let line = conn.call("{\"req\":\"stats\"}")?;
    let line = &line[..line.find("\"telemetry\":").unwrap_or(line.len())];
    let get = |k: &str| client::u64_field(line, k).ok_or_else(|| format!("stats without {k}"));
    Ok(Tiers {
        hits: get("hits")?,
        disk_hits: get("disk_hits")?,
        evictions: get("evictions")?,
        executions: get("executions")?,
    })
}

/// One read request: a warmed key, or a query predicate.
#[derive(Clone, Copy)]
enum ReadOp {
    Key(u64),
    Query(&'static str, u32),
}

/// A daemon warmed for the read workloads.
struct ReadFixture {
    daemon: Daemon,
    dir: PathBuf,
    /// Warmed seeds, in warm order.
    seeds: Vec<u64>,
    /// The dossier text each key's miss returned.
    texts: BTreeMap<u64, String>,
    lru: Lru,
    /// What the trace directory holds, decoded apart from the lake.
    traces: Vec<Trace>,
}

fn read_setup(args: &Args, report: &mut Report, run: usize) -> Result<ReadFixture, String> {
    let dir = args
        .work_dir
        .join(format!("{}-{}-{run}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let trace_dir = dir.join("traces");
    std::fs::create_dir_all(&trace_dir).map_err(|e| format!("{}: {e}", trace_dir.display()))?;
    let mut rng = Rng::new(args.seed);

    // The trace lake: one plain and one bank-sharded v2 trace.
    let (small, small_opts) = small_job();
    let (_, _, plain) = record_characterization(&small, rng.next_u64() % 1_000_000, small_opts)
        .map_err(|e| format!("recording the plain trace: {e}"))?;
    let (hbm, hbm_opts) =
        profiles::named_job("test_small_hbm2").expect("test_small_hbm2 is a known profile");
    let (_, sharded, _) = record_characterization_sharded(
        &hbm,
        rng.next_u64() % 1_000_000,
        hbm_opts,
        ShardConfig { shards: 2 },
    )
    .map_err(|e| format!("recording the sharded trace: {e}"))?;
    let traces = vec![plain, sharded];
    for (name, trace) in ["plain.trace", "sharded.trace"].iter().zip(&traces) {
        let path = trace_dir.join(name);
        std::fs::write(&path, trace.to_bytes_indexed())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        // The brute-force count reads the events decoded from the v1
        // payload; the file must carry exactly that payload.
        let written = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let payload = trace.to_bytes();
        if !written.starts_with(&payload) || Trace::from_bytes(&payload).as_ref() != Ok(trace) {
            report.problem(format!(
                "{} does not carry its trace's payload",
                path.display()
            ));
        }
    }

    let cache_dir = dir.join("cache");
    let extra = [
        "--cache-dir".to_string(),
        cache_dir.display().to_string(),
        "--cache-max-entries".into(),
        MEMORY_BOUND.to_string(),
        "--trace-dir".into(),
        trace_dir.display().to_string(),
    ];
    let daemon = Daemon::spawn(&args.daemon, &dir, &extra)?;
    let mut conn = daemon.connect()?;
    let mut seeds = Vec::new();
    while seeds.len() < WARM_KEYS {
        let seed = rng.next_u64() % 1_000_000_000;
        if !seeds.contains(&seed) {
            seeds.push(seed);
        }
    }
    let mut texts = BTreeMap::new();
    let mut lru = Lru::new(MEMORY_BOUND);
    let mut f1 = 0;
    for &seed in &seeds {
        let response = conn.call(&characterize_request(seed))?;
        if client::str_field(&response, "cache").as_deref() != Some("miss") {
            report.problem(format!("warming seed {seed} was not a miss"));
        }
        let text = client::str_field(&response, "dossier").ok_or("result without dossier")?;
        let truth = Truth::of(&small, seed);
        f1 += usize::from(grade_text(
            report,
            &text,
            &truth,
            &format!("warm seed {seed}"),
        ));
        lru.insert(seed);
        texts.insert(seed, text);
    }
    if run == 0 {
        report.notes.push(format!(
            "set-up: {WARM_KEYS} test_small keys warmed under a {MEMORY_BOUND}-entry bound \
             ({f1} show F1; set-up is not counted as operations)"
        ));
    }
    Ok(ReadFixture {
        daemon,
        dir,
        seeds,
        texts,
        lru,
        traces,
    })
}

fn daemon_read(args: &Args, report: &mut Report, workload: &str) -> Result<(), String> {
    let cpu = client::pin_to_first_cpu()?;
    report
        .notes
        .push(format!("client and daemon pinned to CPU {cpu}"));
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for run in 0..SETUPS {
        let t = Instant::now();
        let fx = read_setup(args, report, run)?;
        setup_s.push(secs(t));
        if let Some(old) = fixture.replace(fx) {
            finish_daemon(old.daemon, &old.dir)?;
        }
    }
    let mut fx = fixture.expect("at least one set-up");
    let (round_len, span_name) = match workload {
        "daemon-hit" => (2000, "daemon.request.hit"),
        "daemon-disk-hit" => (1000, "daemon.request.disk_hit"),
        _ => (100, "daemon.request.query"),
    };
    let mut rng = Rng::new(args.seed ^ 0x7EAD);
    let resident = fx.lru.resident().to_vec();
    let mut cycle = fx.seeds.clone();
    rng.shuffle(&mut cycle);
    let mut expected_counts: BTreeMap<(&str, u32), u64> = BTreeMap::new();

    let before = tiers(&mut fx.daemon.connect()?)?;
    let mut predicted = Tiers::default();
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut sent = 0usize;
    let started = Instant::now();
    while secs(started) < args.seconds {
        // One connection per round: a pipelined connection keeps every
        // finished handler thread until it closes.
        let mut conn = fx.daemon.connect()?;
        let mut round_ms = Vec::with_capacity(round_len);
        let t = Instant::now();
        for _ in 0..round_len {
            report.attempted += 1;
            let op = match workload {
                "daemon-hit" => ReadOp::Key(resident[rng.below(resident.len())]),
                "daemon-disk-hit" => ReadOp::Key(cycle[sent % cycle.len()]),
                _ => ReadOp::Query(
                    QUERY_CMDS[rng.below(QUERY_CMDS.len())],
                    QUERY_BANKS[rng.below(QUERY_BANKS.len())],
                ),
            };
            let request = match op {
                ReadOp::Key(seed) => characterize_request(seed),
                ReadOp::Query(cmd, bank) => {
                    format!("{{\"req\":\"query\",\"cmd\":\"{cmd}\",\"bank\":{bank}}}")
                }
            };
            sent += 1;
            let t0 = Instant::now();
            let response = spans::span(span_name, || conn.call(&request));
            let ms = secs(t0) * 1e3;
            let response = match response {
                Ok(r) => r,
                Err(e) => {
                    report.fail(&format!("request unanswered: {e}"));
                    continue;
                }
            };
            match op {
                ReadOp::Key(seed) => {
                    let (tier, evicted) = fx.lru.access(seed);
                    predicted.hits += 1;
                    predicted.disk_hits += u64::from(tier == Tier::Disk);
                    predicted.evictions += evicted;
                    // Latency of the tier this workload is about.
                    if (tier == Tier::Disk) == (workload == "daemon-disk-hit") {
                        round_ms.push(ms);
                    }
                    let text = client::str_field(&response, "dossier").unwrap_or_default();
                    if let Err(e) = grade::check_text(&fx.texts[&seed], &text) {
                        report.problem(format!("seed {seed}: {e}"));
                    }
                }
                ReadOp::Query(cmd, bank) => {
                    round_ms.push(ms);
                    let expected = *expected_counts.entry((cmd, bank)).or_insert_with(|| {
                        fx.traces
                            .iter()
                            .map(|t| grade::brute_count(t, cmd, bank))
                            .sum()
                    });
                    let reported = response
                        .find("\"report\":")
                        .and_then(|at| client::u64_field(&response[at..], "matched"));
                    match reported {
                        Some(n) => {
                            if let Err(e) = grade::check_query(expected, n) {
                                report.problem(format!("query cmd={cmd} bank={bank}: {e}"));
                            }
                        }
                        None => report.problem(format!("query answer without a count: {response}")),
                    }
                }
            }
        }
        rates.push(round_len as f64 / secs(t));
        latencies.push(round_ms);
    }
    let mut conn = fx.daemon.connect()?;
    let after = tiers(&mut conn)?;
    drop(conn);
    let observed = Tiers {
        hits: after.hits - before.hits,
        disk_hits: after.disk_hits - before.disk_hits,
        evictions: after.evictions - before.evictions,
        executions: after.executions - before.executions,
    };
    if let Err(e) = grade::check_tiers(predicted, observed) {
        report.problem(e);
    }
    report.notes.push(format!(
        "{workload}: {} rounds of {round_len} requests; daemon counters {observed:?}",
        rates.len()
    ));
    let peak = peak_rss_mb(fx.daemon.pid());
    finish_daemon(fx.daemon, &fx.dir)?;
    report.metric("setup_s", median(&setup_s), "s", setup_s.len());
    report.metric("ops_per_s", median(&rates), "1/s", rates.len());
    report.metric("peak_rss_mb", peak, "MiB", 1);
    latency_metrics(report, &latencies);
    Ok(())
}

fn finish_daemon(daemon: Daemon, dir: &Path) -> Result<(), String> {
    daemon.shutdown()?;
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// The seed a cache file name carries: `0x` + four 16-digit hex fields
/// (profile, seed, geometry, options).
fn seed_of_cache_file(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("0x")?;
    if hex.len() != 64 {
        return None;
    }
    u64::from_str_radix(&hex[16..32], 16).ok()
}

fn daemon_write(args: &Args, report: &mut Report) -> Result<(), String> {
    let (small, _) = small_job();
    let mut setup_s = Vec::new();
    let mut truths = BTreeMap::new();
    for run in 0..SETUPS {
        let t = Instant::now();
        let dir = args
            .work_dir
            .join(format!("daemon-write-{}-setup{run}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let extra = [
            "--cache-dir".to_string(),
            dir.join("cache").display().to_string(),
        ];
        let daemon = Daemon::spawn(&args.daemon, &dir, &extra)?;
        // One miss outside the measured seeds warms the pool.
        daemon
            .connect()?
            .call(&characterize_request(WRITE_SEEDS.start - 1))?;
        truths = WRITE_SEEDS.map(|s| (s, Truth::of(&small, s))).collect();
        setup_s.push(secs(t));
        finish_daemon(daemon, &dir)?;
    }

    let mut rng = Rng::new(args.seed);
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut peaks = Vec::new();
    let mut f1_seeds = Vec::new();
    let mut rounds = 0usize;
    let started = Instant::now();
    while secs(started) < args.seconds {
        // A fresh daemon and cache directory per round, so the same
        // seeds miss again.
        let dir = args
            .work_dir
            .join(format!("daemon-write-{}-r{rounds}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache_dir = dir.join("cache");
        let extra = ["--cache-dir".to_string(), cache_dir.display().to_string()];
        let daemon = Daemon::spawn(&args.daemon, &dir, &extra)?;
        let mut order: Vec<u64> = WRITE_SEEDS.collect();
        rng.shuffle(&mut order);
        let mut conns = [daemon.connect()?, daemon.connect()?];
        let t = Instant::now();
        let answers: Vec<(u64, Result<String, String>, f64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let mine: Vec<u64> = order.iter().copied().skip(c).step_by(2).collect();
                    scope.spawn(move || {
                        mine.into_iter()
                            .map(|seed| {
                                let t0 = Instant::now();
                                let response = spans::span("daemon.request.miss", || {
                                    conn.call(&characterize_request(seed))
                                });
                                (seed, response, secs(t0) * 1e3)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        rates.push(answers.len() as f64 / secs(t));
        drop(conns);
        let mut texts = BTreeMap::new();
        let mut round_ms = Vec::new();
        for (seed, response, ms) in answers {
            report.attempted += 1;
            let response = match response {
                Ok(r) => r,
                Err(e) => {
                    report.fail(&format!("request unanswered: {e}"));
                    continue;
                }
            };
            round_ms.push(ms);
            if client::str_field(&response, "cache").as_deref() != Some("miss") {
                report.problem(format!("seed {seed} was not a miss on a fresh daemon"));
            }
            let text = client::str_field(&response, "dossier").unwrap_or_default();
            let what = format!("test_small seed {seed}");
            let truth = truths.get(&seed).ok_or("no ground truth")?;
            if grade_text(report, &text, truth, &what) {
                report.fail(grade::F1);
                if rounds == 0 {
                    f1_seeds.push(seed);
                }
            }
            texts.insert(seed, text);
        }
        latencies.push(round_ms);
        let executions = tiers(&mut daemon.connect()?)?.executions;
        if executions != texts.len() as u64 {
            report.problem(format!(
                "{executions} executions for {} fresh requests",
                texts.len()
            ));
        }
        peaks.push(peak_rss_mb(daemon.pid()));
        daemon.shutdown()?;
        check_cache_files(report, &cache_dir, &texts)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        rounds += 1;
    }
    f1_seeds.sort_unstable();
    report.notes.push(format!(
        "daemon-write: {rounds} rounds of {} misses on 2 connections; F1 on seeds {f1_seeds:?}",
        WRITE_SEEDS.count()
    ));
    report.metric("setup_s", median(&setup_s), "s", setup_s.len());
    report.metric("ops_per_s", median(&rates), "1/s", rates.len());
    report.metric("peak_rss_mb", median(&peaks), "MiB", peaks.len());
    latency_metrics(report, &latencies);
    Ok(())
}

/// Each answered key left exactly one cache file, and the file reads
/// back to the text the daemon returned.
fn check_cache_files(
    report: &mut Report,
    cache_dir: &Path,
    texts: &BTreeMap<u64, String>,
) -> Result<(), String> {
    let mut seen = BTreeMap::new();
    let entries =
        std::fs::read_dir(cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", cache_dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(seed) = seed_of_cache_file(&name) else {
            report.problem(format!("stray file {name} in the cache directory"));
            continue;
        };
        let bytes = std::fs::read(entry.path()).map_err(|e| format!("{name}: {e}"))?;
        let text = match cache::decode_entry(&bytes) {
            Ok(output) => output.dossier,
            Err(e) => {
                report.problem(format!("cache file {name} does not decode: {e}"));
                continue;
            }
        };
        *seen.entry(seed).or_insert(0) += 1;
        match texts.get(&seed) {
            Some(expected) => {
                if let Err(e) = grade::check_text(expected, &text) {
                    report.problem(format!("cache file of seed {seed}: {e}"));
                }
            }
            None => report.problem(format!("cache file for unrequested seed {seed}")),
        }
    }
    if seen.len() != texts.len() || seen.values().any(|&n| n != 1) {
        report.problem(format!(
            "{} cache files for {} keys",
            seen.values().sum::<u32>(),
            texts.len()
        ));
    }
    Ok(())
}
