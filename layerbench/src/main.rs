//! `layerbench` — the layered iFKO benchmark.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload oc-paper|ic-hil|service-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (see README.md for why each exists), checks every
//! winner against a reference that is not the compiler under test,
//! prints every metric by name with its unit, and ends with one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. Any failed operation makes the exit code non-zero.
//!
//! The same executable also serves as the `ifkod` daemon process
//! (`layerbench daemon ...`) and as an evaluation worker
//! (`layerbench worker`), so one build provides every process the
//! workloads start.

mod check;
mod service;
mod trace;
mod tunes;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Revision every tuned-db key in a run is stored under, so keys do not
/// depend on whether the checkout is a git repository.
const DB_REV: &str = "layerbench";

/// End-to-end metrics (reported with `--trace 0`), with units.
pub const E2E: &[(&str, &str)] = &[
    ("tune_s_p50", "s"),
    ("tunes_per_s", "1/s"),
    ("speedup_geomean", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("warm_ms_p50", "ms"),
    ("warm_ms_p99", "ms"),
    ("cold_ms_p50", "ms"),
    ("req_per_s", "1/s"),
];

/// Per-layer metrics (reported with `--trace 1`), with units. A layer a
/// workload never calls reports 0 (README.md lists which apply where).
pub const LAYERS: &[(&str, &str)] = &[
    ("fko.session_ms", "ms"),
    ("fko.compiles", "count"),
    ("fko.compile_busy_s", "s"),
    ("fko.compile_us_p50", "us"),
    ("fko.subcache_hit_ratio", "ratio"),
    ("fko.predict_us_p50", "us"),
    ("xsim.runs", "count"),
    ("xsim.run_busy_s", "s"),
    ("xsim.run_us_p50", "us"),
    ("xsim.sim_inst_per_s", "inst/s"),
    ("xsim.runs_per_candidate", "count"),
    ("xsim.sim_inst_per_tune", "inst"),
    ("tester.verify_us_p50", "us"),
    ("tester.busy_s", "s"),
    ("timer.time_us_p50", "us"),
    ("timer.runs_per_call", "count"),
    ("timer.busy_s", "s"),
    ("eval.probes", "count"),
    ("eval.fresh", "count"),
    ("eval.cache_hit_ratio", "ratio"),
    ("eval.pruned", "count"),
    ("eval.failed", "count"),
    ("eval.useful_ratio", "ratio"),
    ("tune.count", "count"),
    ("tune.winner_cycles", "cycles"),
    ("tune.unattributed_s", "s"),
    ("db.open_ms", "ms"),
    ("db.lookup_us_p50", "us"),
    ("db.append_us_p50", "us"),
    ("proto.frame_rt_us_p50", "us"),
    ("daemon.query_us_p50", "us"),
    ("daemon.warm_verify_ms_p50", "ms"),
    ("worker.eval_rt_us_p50", "us"),
    ("engine.par_eff_jobs", "ratio"),
    ("engine.par_eff_workers", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Command-line arguments of a benchmark run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics, operation counts and failures collected by one run.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
}

impl Report {
    /// Record one attempted operation; `Err` counts it as failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(e);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Set a metric together with a note printed beside it (sample
    /// counts, bases of ratios).
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.values.insert(name, value);
        self.notes.insert(name, note);
    }

    fn line(&self, name: &str, unit: &str) -> String {
        let v = self.values.get(name).copied().unwrap_or(0.0) + 0.0;
        match self.notes.get(name) {
            Some(n) => format!("  {name:<26} {v:>16.6} {unit:<6} ({n})"),
            None => format!("  {name:<26} {v:>16.6} {unit}"),
        }
    }

    /// Print every metric, then the one-line JSON result. Returns whether
    /// every operation succeeded.
    fn emit(&self, trace: bool) -> bool {
        println!("end-to-end metrics:");
        for (name, unit) in E2E {
            println!("{}", self.line(name, unit));
        }
        let failed = self.failures.len() as u64;
        println!(
            "  {:<26} {:>16.6} ratio  ({failed} failed of {} attempted)",
            "fail_frac",
            trace::ratio(failed as f64, self.attempted as f64),
            self.attempted
        );
        if trace {
            println!("per-layer metrics:");
            for (name, unit) in LAYERS {
                println!("{}", self.line(name, unit));
            }
        }
        for f in &self.failures {
            eprintln!("layerbench: FAILED: {f}");
        }
        let table = if trace { LAYERS } else { E2E };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                // Non-finite values are not JSON; `+ 0.0` turns -0 into 0.
                let v = if v.is_finite() { v + 0.0 } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        let correct = failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            metrics.join(",")
        );
        correct
    }
}

/// A scratch directory inside the checkout, removed when dropped. Paths
/// stay relative so Unix socket paths stay short.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create(tag: &str) -> std::io::Result<RunDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = PathBuf::from(".layerbench_tmp")
            .join(format!("{tag}-{}-{nanos:x}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind; fails harmlessly while another
        // run still uses it.
        let _ = std::fs::remove_dir(".layerbench_tmp");
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads and connections the load may use: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::env::set_var("IFKO_REPO_REV", DB_REV);
    match argv.first().map(String::as_str) {
        Some("daemon") => return service::serve_daemon(&argv[1..]),
        Some("worker") => {
            return match ifko::worker::serve_stdio() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("layerbench worker: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            eprintln!(
                "usage: layerbench --workload oc-paper|ic-hil|service-mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "layerbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    let mut report = Report::default();
    let run = match args.workload.as_str() {
        "oc-paper" => tunes::run(tunes::Workload::OcPaper, &args, &mut report),
        "ic-hil" => tunes::run(tunes::Workload::IcHil, &args, &mut report),
        "service-mixed" => service::run(&args, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = run {
        eprintln!("layerbench: {e}");
        return ExitCode::FAILURE;
    }
    if report.emit(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
