//! `dsbench` — the end-to-end and per-layer benchmark of the Table I
//! fleet and the `dramscoped` read and write paths.
//!
//! ```text
//! dsbench --workload NAME --seed N --seconds S --trace 0|1
//!         --daemon PATH [--work-dir DIR]
//! ```
//!
//! Each run measures one workload for `S` seconds of whole rounds,
//! checks every output against a computation made apart from the code
//! under test (ground truth, an LRU model, a brute-force query count,
//! a cache-file read-back), and prints as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the same workload
//! with spans on, then the per-layer sweep, and reports the per-layer
//! metrics. `README.md` lists both sets.

mod alloc;
mod client;
mod grade;
mod layers;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Everything one run is parameterized by.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `dramscoped` binary the daemon workloads start.
    pub daemon: PathBuf,
    /// Scratch space for daemon sockets, caches and traces, and where
    /// the traced run writes its spans.
    pub work_dir: PathBuf,
}

/// One reported metric and how many samples it summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What a workload run found: operations, named faults, correctness
/// violations and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Failed operations by fault name.
    pub failures: BTreeMap<String, u64>,
    /// Violated checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn fail(&mut self, fault: &str) {
        *self.failures.entry(fault.to_string()).or_default() += 1;
    }

    pub fn problem(&mut self, message: String) {
        // Keep the first few; one is enough to make the run incorrect.
        if self.problems.len() < 8 {
            self.problems.push(message);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    fn failed(&self) -> u64 {
        self.failures.values().sum()
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of a sample (0 for an empty one).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A small deterministic generator for benchmark inputs (SplitMix64),
/// kept apart from the simulator's own RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0xD5B3_9C17_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set of a process, MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> f64 {
    client::proc_status_kb(pid, "VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

const USAGE: &str =
    "usage: dsbench --workload NAME --seed N --seconds S --trace 0|1 --daemon PATH [--work-dir DIR]
workloads: table1-fleet daemon-hit daemon-disk-hit daemon-query daemon-write";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut work_dir = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} value \"{value}\" ({what})");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument \"{flag}\"")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload \"{workload}\""));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        daemon: daemon.ok_or("--daemon is required")?,
        work_dir,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A non-finite value is already a problem; keep the line JSON.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("dsbench: {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    // A checker that accepts a doctored output proves nothing.
    for broken in grade::self_test() {
        report.problem(format!("checker self-test: {broken}"));
    }
    let mut layer_metrics = Vec::new();
    if args.trace {
        spans::enable();
        // The sweep runs first, so that no workload's CPU pin reaches it.
        if let Err(e) = layers::sweep(&args, &mut report) {
            eprintln!("dsbench: per-layer sweep: {e}");
            return ExitCode::FAILURE;
        }
        layer_metrics = std::mem::take(&mut report.metrics);
    }
    if let Err(e) = workloads::run(&args, &mut report) {
        eprintln!("dsbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if args.trace {
        // The workload's own throughput under tracing, for the overhead
        // against the untraced run.
        let traced = std::mem::replace(&mut report.metrics, layer_metrics);
        for m in traced.into_iter().filter(|m| m.name == "ops_per_s") {
            report.metric("bench.traced_ops_per_s", m.value, m.unit, m.samples);
        }
        report.notes.extend(spans::rollup_table());
        let path = args
            .work_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match spans::write(&path) {
            Ok(n) => report
                .notes
                .push(format!("wrote {n} spans to {}", path.display())),
            Err(e) => report.problem(format!("writing spans to {}: {e}", path.display())),
        }
    }

    let broken: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in broken {
        report.problem(format!("metric {name} is not a finite number"));
    }
    for note in &report.notes {
        println!("{note}");
    }
    for (fault, n) in &report.failures {
        println!("failed: {n} x {fault}");
    }
    for p in &report.problems {
        println!("INCORRECT: {p}");
    }
    println!(
        "{:<36} {:>16} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &report.metrics {
        println!(
            "{:<36} {:>16.4} {:<6} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.problems.is_empty() && report.attempted > 0,
        report.attempted.max(1),
        report.failed(),
        json_metrics(&report.metrics)
    );
    ExitCode::SUCCESS
}
