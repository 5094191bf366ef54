//! The two in-process tune workloads.
//!
//! * `oc-paper`: `TuneConfig::paper()` BLAS tunes (`TuneConfig::tune`)
//!   of the paper's Level-1 suite on both machine models, out of cache
//!   at N=80000.
//! * `ic-hil`: the `ifko tune FILE.hil` path (`TuneConfig::tune_source`
//!   with the CLI's default quick search) over the suite's HIL sources
//!   plus `kernels/{ddot,snrm2,waxpby}.hil`, in L2 at N=1024.
//!
//! One *item* is one kernel on one machine: a cold tune (fresh
//! evaluation cache, fresh tuned db that it stores its winner in), an
//! independent check of the winner, and a warm re-tune that must be
//! answered from the db with the stored winner's params bit-for-bit.

use crate::check::{self, Reference};
use crate::trace::{self, Tracer};
use crate::{Args, Report, RunDir};
use ifko::metrics::{self, MetricsRegistry};
use ifko::runner::Context;
use ifko::strategy::db::params_json;
use ifko::strategy::{TunedDb, STRATEGY_WARM};
use ifko::worker::{WorkerHandle, WorkerLauncher, WorkerSpec};
use ifko::{EvalScope, SearchOptions, SearchResult, TuneConfig};
use ifko_blas::hil_src::hil_source;
use ifko_blas::ops::BlasOp;
use ifko_blas::{Kernel, ALL_KERNELS};
use ifko_fko::{CompileOpts, CompileSession, CompiledKernel, TransformParams};
use ifko_xsim::isa::Prec;
use ifko_xsim::rng::Rng64;
use ifko_xsim::{opteron, p4e, MachineConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    OcPaper,
    IcHil,
}

impl Workload {
    fn context(self) -> Context {
        match self {
            Workload::OcPaper => Context::OutOfCache,
            Workload::IcHil => Context::InL2,
        }
    }

    fn n(self) -> usize {
        match self {
            Workload::OcPaper => 80_000,
            Workload::IcHil => 1024,
        }
    }

    /// The tune configuration of one item: jobs 1, a fresh in-memory
    /// evaluation cache (every `TuneConfig::paper()` makes its own).
    fn config(self, machine: &MachineConfig, seed: u64) -> TuneConfig {
        let cfg = TuneConfig::paper()
            .machine(machine.clone())
            .context(self.context())
            .n(self.n())
            .seed(seed)
            .jobs(1);
        match self {
            Workload::OcPaper => cfg,
            // `ifko tune FILE.hil` searches the quick candidate sets
            // unless `--full` is given.
            Workload::IcHil => cfg.search(SearchOptions::quick()),
        }
    }
}

/// One kernel on one machine.
struct Item {
    label: String,
    machine: MachineConfig,
    src: String,
    reference: Reference,
    /// `Some` tunes through the BLAS path (`TuneConfig::tune`); `None`
    /// tunes `src` through `TuneConfig::tune_source`.
    blas: Option<Kernel>,
}

/// The HIL files `ic-hil` tunes beside the suite sources.
const HIL_FILES: [(&str, &str, Reference); 3] = [
    (
        "ddot.hil",
        include_str!("../../kernels/ddot.hil"),
        Reference::Blas(Kernel {
            op: BlasOp::Dot,
            prec: Prec::D,
        }),
    ),
    (
        "snrm2.hil",
        include_str!("../../kernels/snrm2.hil"),
        Reference::Blas(Kernel {
            op: BlasOp::Nrm2,
            prec: Prec::S,
        }),
    ),
    (
        "waxpby.hil",
        include_str!("../../kernels/waxpby.hil"),
        Reference::Waxpby,
    ),
];

pub fn machines() -> [MachineConfig; 2] {
    [p4e(), opteron()]
}

/// The `oc-paper` kernels: one per BLAS operation of the suite, in both
/// precisions between them. Paper-size tunes are long; half the suite
/// lets a run time every tune twice.
const OC_KERNELS: [&str; 7] = [
    "sswap", "dscal", "scopy", "daxpy", "ddot", "sasum", "isamax",
];

fn items(w: Workload) -> Vec<Item> {
    let mut out = Vec::new();
    for machine in machines() {
        let kernels = ALL_KERNELS
            .into_iter()
            .filter(|k| w == Workload::IcHil || OC_KERNELS.contains(&k.name().as_str()));
        for k in kernels {
            out.push(Item {
                label: format!("{}@{}", k.name(), machine.name),
                machine: machine.clone(),
                src: hil_source(k.op, k.prec),
                reference: Reference::Blas(k),
                blas: (w == Workload::OcPaper).then_some(k),
            });
        }
        if w == Workload::IcHil {
            for (name, src, reference) in HIL_FILES {
                out.push(Item {
                    label: format!("{name}@{}", machine.name),
                    machine: machine.clone(),
                    src: src.to_string(),
                    reference,
                    blas: None,
                });
            }
        }
    }
    out
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut Rng64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.range_usize(i + 1));
    }
    v
}

/// The parts of a tune outcome both paths share.
struct Tuned {
    result: SearchResult,
    compiled: CompiledKernel,
}

fn tune(item: &Item, cfg: &TuneConfig) -> Result<Tuned, String> {
    match item.blas {
        Some(k) => cfg
            .tune(k)
            .map(|o| Tuned {
                result: o.result,
                compiled: o.compiled,
            })
            .map_err(|e| e.to_string()),
        None => cfg
            .tune_source(&item.src)
            .map(|o| Tuned {
                result: o.result,
                compiled: o.compiled,
            })
            .map_err(|e| e.to_string()),
    }
}

/// Warm re-tunes per item; the item's warm time is their minimum (the
/// paper's min-of-repetitions timing protocol).
const WARM_REPS: usize = 3;

/// Raw wall times and results of one item.
struct ItemTimes {
    cold_s: f64,
    /// Fastest of the warm re-tunes.
    warm_s: f64,
    /// The whole item: session, tunes, checks and db calls.
    item_s: f64,
    speedup: f64,
    winner_cycles: u64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Everything a workload run shares between items.
struct Bench {
    w: Workload,
    seed: u64,
    dir: PathBuf,
    /// Every winner of the run is appended here (the benchmark's own
    /// `TunedDb::store` calls).
    archive: TunedDb,
    /// Inputs the BLAS-convention winners are checked on.
    check_data: ifko_blas::Workload,
    next_db: usize,
}

impl Bench {
    /// Set-up: the item list, every item's source through the HIL front
    /// end and FKO (`CompileSession::from_source` and the FKO-default
    /// compile every tune starts from), the run's archive db, the
    /// checking inputs, and the scratch directory the per-item dbs live
    /// in. A source that does not compile fails the run here.
    fn setup(w: Workload, seed: u64, dir: &Path) -> Result<(Bench, Vec<Item>), String> {
        let items = items(w);
        for item in &items {
            CompileSession::from_source(&item.src, &item.machine)
                .and_then(|s| {
                    let defaults = TransformParams::defaults(s.report(), &item.machine);
                    s.compile(&defaults, CompileOpts::default())
                })
                .map_err(|e| format!("{}: set-up compile: {e}", item.label))?;
        }
        let archive = TunedDb::open(dir.join("archive")).map_err(|e| format!("archive db: {e}"))?;
        let bench = Bench {
            w,
            seed,
            dir: dir.to_path_buf(),
            archive,
            check_data: check::data(w.n(), seed),
            next_db: 0,
        };
        Ok((bench, items))
    }

    /// Cold tune, check, and warm re-tune of one item. Each is one
    /// attempted operation in `report`.
    fn run_item(
        &mut self,
        item: &Item,
        reg: &Arc<MetricsRegistry>,
        tr: Option<&Arc<Tracer>>,
        report: &mut Report,
    ) -> Option<ItemTimes> {
        let db_dir = self.dir.join(format!("db{}", self.next_db));
        self.next_db += 1;
        let out = self.item_in(item, &db_dir, reg, tr, report);
        let _ = std::fs::remove_dir_all(&db_dir);
        out
    }

    fn item_in(
        &mut self,
        item: &Item,
        db_dir: &Path,
        reg: &Arc<MetricsRegistry>,
        tr: Option<&Arc<Tracer>>,
        report: &mut Report,
    ) -> Option<ItemTimes> {
        let t_item = Instant::now();
        let label = &item.label;
        let mach = &item.machine;
        let req = tr.map_or(0, |t| t.new_req());
        let item_span = trace::span(tr, "item", None, req);
        let parent = item_span.as_ref().map(|s| s.id());
        let fail = |report: &mut Report, what: String| {
            report.op(Err(format!("{label}: {what}")));
            None
        };

        // HIL front end + FKO analysis, and the static cost model, called
        // directly (the tune builds its own session internally).
        let sess = {
            let _s = trace::span(tr, "session", parent, req);
            CompileSession::from_source(&item.src, mach)
        };
        let sess = match sess {
            Ok(s) => s,
            Err(e) => return fail(report, format!("session: {e}")),
        };
        {
            let _s = trace::span(tr, "predict", parent, req);
            let _ = sess.predict(&TransformParams::defaults(sess.report(), mach), mach);
        }

        let db = {
            let _s = trace::span(tr, "db.open", parent, req);
            TunedDb::open(db_dir)
        };
        let db = match db {
            Ok(db) => Arc::new(db),
            Err(e) => return fail(report, format!("db open: {e}")),
        };
        let traced = |cfg: TuneConfig| match tr {
            Some(t) => cfg.trace(Arc::clone(t) as Arc<dyn ifko::eval::TraceSink>),
            None => cfg,
        };
        let cfg = traced(
            self.w
                .config(mach, self.seed)
                .metrics(Arc::clone(reg))
                .db(Arc::clone(&db)),
        );
        let (cold, cold_s) = timed(|| {
            let s = trace::span(tr, "cold", parent, req);
            if let (Some(t), Some(s)) = (tr, &s) {
                t.enter(req, s.id());
            }
            tune(item, &cfg)
        });
        let cold = match cold {
            Ok(c) => c,
            Err(e) => return fail(report, format!("cold tune: {e}")),
        };
        let stored = db.records();
        let rec = match stored.as_slice() {
            [rec] => rec.clone(),
            other => return fail(report, format!("{} stored winners, want 1", other.len())),
        };
        let found = {
            let _s = trace::span(tr, "db.lookup", parent, req);
            db.lookup(&rec.key)
        };
        {
            let _s = trace::span(tr, "db.append", parent, req);
            self.archive.store(&rec);
        }
        let checked = {
            let _s = trace::span(tr, "check", parent, req);
            check::winner(
                &cold.compiled,
                item.reference,
                &self.check_data,
                self.w.context(),
                mach,
            )
        };
        {
            let _s = trace::span(tr, "predict", parent, req);
            let _ = sess.predict(&cold.result.best, mach);
        }
        let stored_params = params_json(&rec.params);
        report.op(match (checked, found) {
            (Err(e), _) => Err(format!("{label}: winner check: {e}")),
            (Ok(()), None) => Err(format!("{label}: stored winner not found by lookup")),
            (Ok(()), Some(_)) if params_json(&cold.result.best) != stored_params => {
                Err(format!("{label}: stored params differ from the winner"))
            }
            (Ok(()), Some(_)) => Ok(()),
        });

        // Warm re-tune: same db and evaluation cache, so the stored
        // winner is looked up and re-verified instead of searched for.
        let warm_cfg = traced(
            self.w
                .config(mach, self.seed)
                .metrics(Arc::clone(reg))
                .db(Arc::clone(&db))
                .cache(Arc::clone(cfg.cache_ref())),
        );
        let mut warm_s = f64::MAX;
        for _ in 0..WARM_REPS {
            let (warm, t) = timed(|| {
                let s = trace::span(tr, "warm", parent, req);
                if let (Some(t), Some(s)) = (tr, &s) {
                    t.enter(req, s.id());
                }
                tune(item, &warm_cfg)
            });
            report.op(match warm {
                Err(e) => Err(format!("{label}: warm tune: {e}")),
                Ok(w) if w.result.strategy != STRATEGY_WARM => Err(format!(
                    "{label}: warm tune ran a {} search",
                    w.result.strategy
                )),
                Ok(w) if params_json(&w.result.best) != stored_params => {
                    Err(format!("{label}: warm winner differs from the stored one"))
                }
                Ok(_) => Ok(()),
            });
            warm_s = warm_s.min(t);
        }
        Some(ItemTimes {
            cold_s,
            warm_s,
            item_s: t_item.elapsed().as_secs_f64(),
            speedup: cold.result.speedup_over_default(),
            winner_cycles: cold.result.best_cycles,
        })
    }
}

/// Set-ups a run times at least; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// One set-up from scratch into its own directory, timed.
fn setup_once(
    w: Workload,
    seed: u64,
    run: &RunDir,
    i: usize,
) -> Result<((Bench, Vec<Item>), f64), String> {
    let dir = run.path().join(format!("setup{i}"));
    let (b, t) = timed(|| {
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        Bench::setup(w, seed, &dir)
    });
    Ok((b?, t))
}

/// A further timed set-up whose result is dropped: set-up is timed again
/// before every pass after the first, spread over the run, so the
/// median sees the host the way the tunes do.
fn setup_again(w: Workload, seed: u64, run: &RunDir, i: usize) -> Result<f64, String> {
    let (_, t) = setup_once(w, seed, run, i)?;
    let _ = std::fs::remove_dir_all(run.path().join(format!("setup{i}")));
    Ok(t)
}

pub fn run(w: Workload, args: &Args, report: &mut Report) -> Result<(), String> {
    let run = RunDir::create(if w == Workload::OcPaper { "oc" } else { "ic" })
        .map_err(|e| format!("scratch dir: {e}"))?;
    let ((mut bench, items), first) = setup_once(w, args.seed, &run, 0)?;
    let mut setups = vec![first];
    let mut rng = Rng64::seed_from_u64(args.seed);
    if args.trace {
        traced(&mut bench, &items, &mut rng, report)?;
    } else {
        untraced(&mut bench, &items, args.seconds, &mut rng, report, &run, &mut setups)?;
        while setups.len() < SETUP_REPS {
            setups.push(setup_again(w, args.seed, &run, setups.len())?);
        }
    }
    report.set_noted(
        "setup_s",
        trace::median(&setups),
        format!("median of {} set-ups", setups.len()),
    );
    report.set("peak_rss_mb", crate::peak_rss_mb("self"));
    Ok(())
}

/// Passes every end-to-end run makes at least, so each item's time is a
/// minimum over repetitions.
const MIN_PASSES: usize = 2;

/// The end-to-end run: whole passes over the items, in a seeded order,
/// until `seconds` have passed (at least `MIN_PASSES`), with a timed
/// set-up (`setup_again`) before every pass after the first.
fn untraced(
    bench: &mut Bench,
    items: &[Item],
    seconds: f64,
    rng: &mut Rng64,
    report: &mut Report,
    run: &RunDir,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    let reg = Arc::new(MetricsRegistry::new());
    let mut times = Vec::new();
    let mut passes = 0;
    let t0 = Instant::now();
    while passes < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        if passes > 0 {
            setups.push(setup_again(bench.w, bench.seed, run, setups.len())?);
        }
        for i in shuffled(items.len(), rng) {
            times.extend(
                bench
                    .run_item(&items[i], &reg, None, report)
                    .map(|t| (i, t)),
            );
        }
        passes += 1;
    }
    item_metrics(&times, report);
    eprintln!(
        "layerbench: {passes} passes in {:.1} s",
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// End-to-end metrics of the item runs `(item index, times)`. Each
/// item's time is the fastest of its repetitions in the run — the
/// paper's min-of-repetitions protocol (§3.2), which on a shared host
/// keeps what the code costs and drops what other tenants cost.
fn item_metrics(times: &[(usize, ItemTimes)], report: &mut Report) {
    // Per item: fastest cold and warm tune, repetitions, speedup.
    let mut best: BTreeMap<usize, (f64, f64, usize, f64)> = BTreeMap::new();
    for (i, t) in times {
        let b = best.entry(*i).or_insert((f64::MAX, f64::MAX, 0, t.speedup));
        b.0 = b.0.min(t.cold_s);
        b.1 = b.1.min(t.warm_s);
        b.2 += 1;
    }
    let cold: Vec<f64> = best.values().map(|b| b.0).collect();
    let warm_ms: Vec<f64> = best.values().map(|b| b.1 * 1e3).collect();
    let n = best.len();
    let reps = best.values().map(|b| b.2).min().unwrap_or(0);
    let cold_sum: f64 = cold.iter().sum();
    let item_sum = cold_sum + warm_ms.iter().sum::<f64>() * WARM_REPS as f64 / 1e3;
    let cold_p50 = trace::median(&cold);
    report.set_noted(
        "tune_s_p50",
        cold_p50,
        format!("n={n} kernels x machines, fastest of >={reps} repetitions each"),
    );
    report.set_noted("cold_ms_p50", cold_p50 * 1e3, format!("n={n}"));
    report.set_noted("tunes_per_s", n as f64 / cold_sum, format!("n={n}"));
    report.set_noted("warm_ms_p50", trace::median(&warm_ms), format!("n={n}"));
    report.set_noted(
        "warm_ms_p99",
        trace::quantile(&warm_ms, 0.99),
        format!("n={n}"),
    );
    report.set_noted(
        "req_per_s",
        (n * (1 + WARM_REPS)) as f64 / item_sum,
        format!("1 cold + {WARM_REPS} warm tunes per item"),
    );
    let speedups: Vec<f64> = best.values().map(|b| b.3).collect();
    report.set_noted(
        "speedup_geomean",
        trace::geomean(&speedups),
        format!("{} winners", speedups.len()),
    );
}

/// Passes of traced tunes for the per-layer metrics; the untraced
/// twins of some items give the tracing overhead.
fn traced(
    bench: &mut Bench,
    items: &[Item],
    rng: &mut Rng64,
    report: &mut Report,
) -> Result<(), String> {
    let tracer = Tracer::new();
    let reg = Arc::new(MetricsRegistry::new());
    let plain_reg = Arc::new(MetricsRegistry::new());
    let passes = match bench.w {
        Workload::OcPaper => 1,
        Workload::IcHil => 4,
    };
    let mut times = Vec::new();
    let (mut paired_traced, mut paired_plain) = (0.0, 0.0);
    for pass in 0..passes {
        for (pos, i) in shuffled(items.len(), rng).into_iter().enumerate() {
            let item = &items[i];
            // Paper-size tunes are long: pair only one machine's items.
            let paired = bench.w == Workload::IcHil || item.machine.name == "P4E";
            let plain_first = (pos + pass) % 2 == 0;
            let mut plain = 0.0;
            if paired && plain_first {
                plain = item_wall(bench.run_item(item, &plain_reg, None, report));
            }
            let t = bench.run_item(item, &reg, Some(&tracer), report);
            if paired && !plain_first {
                plain = item_wall(bench.run_item(item, &plain_reg, None, report));
            }
            if let Some(t) = t {
                if paired {
                    paired_traced += t.item_s;
                    paired_plain += plain;
                }
                times.push((i, t));
            }
        }
    }
    item_metrics(&times, report);
    let winners = Totals {
        tunes: times.len() as u64,
        winner_cycles: times.iter().map(|t| t.1.winner_cycles).sum(),
    };
    let reps = bench.w.config(&p4e(), 0).search_ref().timer.reps;
    layer_metrics(&tracer, &reg, reps, &winners, report);
    report.set_noted(
        "trace.overhead_frac",
        trace::ratio(paired_traced, paired_plain) - 1.0,
        format!("{paired_traced:.3} s traced vs {paired_plain:.3} s untraced"),
    );
    // The parallel-efficiency rows time paper-size tunes; they ride on
    // the `ic-hil` traced run, which the benchmark's gated set includes.
    if bench.w == Workload::IcHil {
        parallel_rows(bench.seed, report)?;
    }
    Ok(())
}

fn item_wall(t: Option<ItemTimes>) -> f64 {
    t.map_or(0.0, |t| t.item_s)
}

/// Work totals of the traced cold tunes.
pub struct Totals {
    pub tunes: u64,
    pub winner_cycles: u64,
}

/// Library spans that are a layer's own work (the compile span covers
/// its xform/opt/regalloc/codegen children).
const LAYER_SPANS: &[&str] = &[
    "parse",
    "compile",
    "recompile",
    "simulate",
    "test",
    "time",
    "final-time",
];

/// Fold the tracer's spans and events and the run's engine counters into
/// the per-layer metrics. `timer_reps` is the search timer's repetition
/// count on the BLAS path.
pub fn layer_metrics(
    tr: &Tracer,
    reg: &MetricsRegistry,
    timer_reps: u32,
    totals: &Totals,
    report: &mut Report,
) {
    let spans = tr.spans();
    let evals = tr.evals();
    let count = |name: &str| reg.counter_value(name).unwrap_or(0) as f64;
    let us = |name: &str| trace::median(&trace::durations(&spans, name)) * 1e6;
    let n = |name: &str| spans.iter().filter(|s| s.name == name).count();

    let session = trace::durations(&spans, "session");
    report.set_noted(
        "fko.session_ms",
        trace::median(&session) * 1e3,
        format!("n={}", session.len()),
    );
    let compiles = count(metrics::PIPE_COMPILES);
    let sub_hits = count(metrics::PIPE_SUBCACHE_HITS);
    let sub_misses = count(metrics::PIPE_SUBCACHE_MISSES);
    report.set("fko.compiles", compiles);
    report.set(
        "fko.compile_busy_s",
        trace::busy(&spans, &["compile", "recompile"]),
    );
    report.set_noted(
        "fko.compile_us_p50",
        us("compile"),
        format!("n={}", n("compile")),
    );
    report.set_noted(
        "fko.subcache_hit_ratio",
        trace::ratio(sub_hits, sub_hits + sub_misses),
        format!("{sub_hits} of {} session compiles", sub_hits + sub_misses),
    );
    report.set_noted(
        "fko.predict_us_p50",
        us("predict"),
        format!("n={}", n("predict")),
    );

    // Simulator runs inside tunes: one per `simulate` span (the tester's
    // run) plus the timer's repetitions and re-times per `time` span.
    // The library counts no simulator runs, so the runs and simulated
    // instructions of the timer are derived from the configured
    // `timer_reps`, not counted: a change to the timer's loop or to the
    // verify run that keeps `reps` must update these formulas.
    let time_calls = n("time") as f64;
    let retimes: f64 = evals.iter().map(|e| e.retries as f64).sum();
    let timer_runs = time_calls * timer_reps as f64 + retimes;
    let runs = n("simulate") as f64 + timer_runs;
    let fresh = count(metrics::ENGINE_EVALS);
    let timed_reqs: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "time")
        .map(|s| s.req)
        .collect();
    let sim_insts: f64 = evals
        .iter()
        .filter(|e| e.fresh)
        .map(|e| {
            let timed = e.cycles.is_some() && timed_reqs.contains(&e.req);
            e.insts as f64 * (1.0 + if timed { timer_reps as f64 } else { 0.0 })
        })
        .sum();
    let verify_insts: f64 = evals
        .iter()
        .filter(|e| e.fresh)
        .map(|e| e.insts as f64)
        .sum();
    report.set_noted(
        "xsim.runs",
        runs,
        format!("candidate simulations in tunes; timer runs derived as time spans x {timer_reps} reps + re-times"),
    );
    report.set(
        "xsim.run_busy_s",
        trace::busy(&spans, &["simulate", "time", "final-time"]),
    );
    report.set_noted(
        "xsim.run_us_p50",
        us("simulate"),
        format!("n={}", n("simulate")),
    );
    report.set(
        "xsim.sim_inst_per_s",
        trace::ratio(verify_insts, trace::busy(&spans, &["simulate"])),
    );
    report.set_noted(
        "xsim.runs_per_candidate",
        trace::ratio(runs, fresh),
        format!("{runs} derived runs / {fresh} fresh evaluations"),
    );
    report.set_noted(
        "xsim.sim_inst_per_tune",
        trace::ratio(sim_insts, totals.tunes as f64),
        format!("{} cold tunes; timed candidates' instructions x (1 + {timer_reps} reps)", totals.tunes),
    );

    report.set_noted(
        "tester.verify_us_p50",
        us("test"),
        format!("n={}", n("test")),
    );
    report.set("tester.busy_s", trace::busy(&spans, &["test"]));
    report.set_noted("timer.time_us_p50", us("time"), format!("n={}", n("time")));
    report.set_noted(
        "timer.runs_per_call",
        trace::ratio(timer_runs, time_calls),
        format!("derived from timer reps = {timer_reps}"),
    );
    report.set("timer.busy_s", trace::busy(&spans, &["time", "final-time"]));

    let probes = count(metrics::ENGINE_PROBES);
    report.set("eval.probes", probes);
    report.set("eval.fresh", fresh);
    report.set(
        "eval.cache_hit_ratio",
        trace::ratio(count(metrics::ENGINE_CACHE_HITS), probes),
    );
    report.set("eval.pruned", count(metrics::ENGINE_PRUNED));
    report.set("eval.failed", count(metrics::ENGINE_FAILED));
    let (useful, fresh_seen) = useful_evals(&evals);
    report.set_noted(
        "eval.useful_ratio",
        trace::ratio(useful as f64, fresh_seen as f64),
        format!("{useful} of {fresh_seen} fresh evaluations set a new best"),
    );
    report.set("tune.count", totals.tunes as f64);
    report.set("tune.winner_cycles", totals.winner_cycles as f64);
    let tune_wall = trace::busy(&spans, &["cold", "warm"]);
    report.set_noted(
        "tune.unattributed_s",
        tune_wall - trace::busy(&spans, LAYER_SPANS),
        format!("of {tune_wall:.3} s traced tune wall"),
    );
    report.set_noted(
        "db.open_ms",
        us("db.open") / 1e3,
        format!("n={}", n("db.open")),
    );
    report.set_noted(
        "db.lookup_us_p50",
        us("db.lookup"),
        format!("n={}", n("db.lookup")),
    );
    report.set_noted(
        "db.append_us_p50",
        us("db.append"),
        format!("n={}", n("db.append")),
    );
}

/// Fresh evaluations that set a new best within their tune, replaying
/// the search's strict-improvement rule in event order (the first
/// verified result only establishes the baseline). Returns (useful,
/// fresh).
fn useful_evals(evals: &[trace::EvalRec]) -> (u64, u64) {
    let mut best: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let (mut useful, mut fresh) = (0, 0);
    for e in evals {
        fresh += u64::from(e.fresh);
        let Some(c) = e.cycles else { continue };
        match best.get(&e.req).copied() {
            None => {
                best.insert(e.req, c);
            }
            Some(b) if c < b => {
                useful += u64::from(e.fresh);
                best.insert(e.req, c);
            }
            Some(_) => {}
        }
    }
    (useful, fresh)
}

/// Kernels of the fixed `oc-paper` subset timed serial, at `--jobs
/// nproc` and at `--workers nproc`.
const PAR_SUBSET: [Kernel; 3] = [
    Kernel {
        op: BlasOp::Scal,
        prec: Prec::S,
    },
    Kernel {
        op: BlasOp::Dot,
        prec: Prec::D,
    },
    Kernel {
        op: BlasOp::Iamax,
        prec: Prec::D,
    },
];

/// Parallel-efficiency rows and the worker round trip over a fixed
/// `oc-paper` subset (run from the `ic-hil` traced run). Winners must be
/// bit-identical in all three modes.
fn parallel_rows(seed: u64, report: &mut Report) -> Result<(), String> {
    let nproc = crate::nproc();
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let launcher = WorkerLauncher::new(exe).arg("worker");
    let machine = p4e();
    let w = Workload::OcPaper;
    let mode = |jobs: usize, workers: usize| {
        let t0 = Instant::now();
        let winners: Vec<Result<(String, u64), String>> = PAR_SUBSET
            .iter()
            .map(|k| {
                let mut cfg = w.config(&machine, seed).jobs(jobs);
                if workers > 0 {
                    cfg = cfg.workers(workers).worker_launcher(launcher.clone());
                }
                cfg.tune(*k)
                    .map(|o| (params_json(&o.result.best), o.cycles))
                    .map_err(|e| format!("{}: {e}", k.name()))
            })
            .collect();
        (t0.elapsed().as_secs_f64(), winners)
    };
    let (serial_s, serial) = mode(1, 0);
    let (jobs_s, jobs) = mode(nproc, 0);
    let (workers_s, workers) = mode(1, nproc);
    for (k, ((a, b), c)) in PAR_SUBSET
        .iter()
        .zip(serial.iter().zip(&jobs).zip(&workers))
    {
        report.op(match (a, b, c) {
            (Ok(a), Ok(b), Ok(c)) if a == b && a == c => Ok(()),
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Err(e.clone()),
            _ => Err(format!(
                "{}: winners differ across serial / --jobs / --workers",
                k.name()
            )),
        });
    }
    let base = format!("{serial_s:.3} s serial, nproc {nproc}");
    report.set_noted(
        "engine.par_eff_jobs",
        serial_s / (nproc as f64 * jobs_s),
        format!("{base}, {jobs_s:.3} s at --jobs {nproc}"),
    );
    report.set_noted(
        "engine.par_eff_workers",
        serial_s / (nproc as f64 * workers_s),
        format!("{base}, {workers_s:.3} s at --workers {nproc}"),
    );
    worker_round_trips(&launcher, &machine, seed, report)
}

/// Round trips of `eval` requests to one worker process: FKO defaults
/// and a tuned point of `ddot`, alternately. Repeats of a point must
/// return the same cycles.
fn worker_round_trips(
    launcher: &WorkerLauncher,
    machine: &MachineConfig,
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    const ROUND_TRIPS: u64 = 16;
    let w = Workload::OcPaper;
    let kernel = PAR_SUBSET[1];
    let cfg = w.config(machine, seed);
    let opts = cfg.search_ref();
    let scope = EvalScope::new(
        kernel.name(),
        machine,
        w.context(),
        w.n(),
        seed,
        &opts.timer,
    );
    let spec = WorkerSpec::blas(
        &kernel.name(),
        machine,
        w.context(),
        w.n(),
        seed,
        opts,
        &scope,
    );
    let sess = CompileSession::from_source(&hil_source(kernel.op, kernel.prec), machine)
        .map_err(|e| e.to_string())?;
    let defaults = TransformParams::defaults(sess.report(), machine);
    let mut tuned = defaults.clone();
    tuned.unroll = defaults.unroll * 2;
    let points = [defaults, tuned];
    let mut handle =
        WorkerHandle::spawn(launcher, 0, &spec.to_json()).map_err(|e| format!("worker: {e}"))?;
    let mut rts = Vec::new();
    let mut seen: [Option<Option<u64>>; 2] = [None, None];
    for id in 0..ROUND_TRIPS {
        let slot = (id % 2) as usize;
        let t0 = Instant::now();
        let rec = handle.eval(id, &points[slot]);
        rts.push(t0.elapsed().as_secs_f64() * 1e6);
        report.op(match rec {
            Err(e) => Err(format!("worker eval: {e}")),
            Ok(r) => match seen[slot] {
                Some(prev) if prev != r.cycles => {
                    Err("worker returned different cycles for one point".into())
                }
                _ => {
                    seen[slot] = Some(r.cycles);
                    Ok(())
                }
            },
        });
    }
    handle.shutdown();
    report.set_noted(
        "worker.eval_rt_us_p50",
        trace::median(&rts),
        format!("n={ROUND_TRIPS} ddot@P4E evals"),
    );
    Ok(())
}
