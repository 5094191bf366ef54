//! `service-mixed`: the `ifkod` daemon as its own process on a
//! pre-populated tuned db, driven by a closed loop over up to two
//! connections.
//!
//! About 90% of requests are warm — `tune` on stored BLAS keys (index
//! lookup plus re-verification) and `query` — and about 10% are cold:
//! never-seen HIL kernels (suite sources under a fresh routine name, so
//! each is a new db key) that run a fresh tune and append to the db.
//! Every warm reply must carry the stored winner's params bit-for-bit;
//! every cold winner is re-run and checked against the BLAS reference.

use crate::check::{self, Reference};
use crate::trace::{self, Tracer};
use crate::tunes::{layer_metrics, machines, shuffled, Totals};
use crate::{Args, Report, RunDir};
use ifko::metrics::MetricsRegistry;
use ifko::report::Json;
use ifko::runner::Context;
use ifko::strategy::db::{params_from_json, params_json};
use ifko::strategy::{db_key, TunedDb, STRATEGY_WARM};
use ifko::{SearchOptions, TuneConfig};
use ifko_blas::hil_src::hil_source;
use ifko_blas::{Kernel, ALL_KERNELS};
use ifko_daemon::client::{Client, TuneRequest};
use ifko_daemon::server::{Daemon, DaemonConfig};
use ifko_fko::{CompileOpts, CompileSession, TransformParams};
use ifko_xsim::isa::Prec;
use ifko_xsim::rng::Rng64;
use ifko_xsim::MachineConfig;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Synthetic records added to the pristine db beside the real winners,
/// so the daemon loads and searches an index of some thousands of
/// records. The size is an assumption, not a measured one: the suite
/// has 56 keys per repository revision (14 kernels, 2 machines, 2
/// contexts), so 4000 stands for a db kept across some 70 revisions.
const PAD_RECORDS: usize = 4000;
/// Daemon starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// One block of the request mix, sent in a seeded order: 30% query,
/// 45% warm in-L2 tune, 15% warm out-of-cache tune, 10% cold tune.
/// The 90/10 warm/cold split is the workload's definition; the split of
/// the warm share is an assumption. Whole blocks keep the shares exact
/// in every run.
const BLOCK: [Slot; 20] = {
    use Slot::*;
    [
        Query, Query, Query, Query, Query, Query, WarmIc, WarmIc, WarmIc, WarmIc, WarmIc, WarmIc,
        WarmIc, WarmIc, WarmIc, WarmOc, WarmOc, WarmOc, Cold, Cold,
    ]
};

/// A request type of the mix.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Query,
    WarmIc,
    WarmOc,
    Cold,
}

/// Endless seeded rounds over `0..n`: every index once per round.
struct Rounds {
    order: Vec<usize>,
    pos: usize,
}

impl Rounds {
    fn new(n: usize) -> Rounds {
        Rounds {
            order: (0..n).collect(),
            pos: n,
        }
    }

    fn next(&mut self, rng: &mut Rng64) -> usize {
        if self.pos == self.order.len() {
            self.order = shuffled(self.order.len(), rng);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// `layerbench daemon --socket PATH --db DIR`: serve like `ifkod
/// --jobs 1 --quiet` until a client sends `shutdown`.
pub fn serve_daemon(argv: &[String]) -> ExitCode {
    let (mut socket, mut db) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--socket", Some(v)) => socket = Some(PathBuf::from(v)),
            ("--db", Some(v)) => db = Some(PathBuf::from(v)),
            _ => {
                eprintln!("layerbench daemon: usage: daemon --socket PATH --db DIR");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(socket), Some(db)) = (socket, db) else {
        eprintln!("layerbench daemon: --socket and --db are required");
        return ExitCode::from(2);
    };
    let mut cfg = DaemonConfig::new(socket, db);
    cfg.jobs = 1;
    cfg.quiet = true;
    match Daemon::start(cfg) {
        Ok(handle) => {
            handle.wait();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("layerbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A stored BLAS winner the warm requests ask for.
#[derive(Clone)]
struct Stored {
    kernel: Kernel,
    /// Machine name as the daemon's protocol spells it.
    machine: &'static str,
    context: Context,
    n: usize,
    params: String,
}

fn proto_machine(m: &MachineConfig) -> &'static str {
    if m.name == "P4E" {
        "p4e"
    } else {
        "opteron"
    }
}

/// Size of a request's problem in a context.
fn context_n(context: Context) -> usize {
    match context {
        Context::InL2 => 1024,
        Context::OutOfCache => 80_000,
    }
}

/// The daemon's tune configuration for a request (`ifkod` `run_tune`
/// without `full`).
fn daemon_config(machine: &MachineConfig, context: Context, seed: u64) -> TuneConfig {
    TuneConfig::paper()
        .machine(machine.clone())
        .context(context)
        .n(context_n(context))
        .seed(seed)
        .search(SearchOptions::quick())
}

/// Build the pristine db: on both machines, the suite tuned in L2 and
/// its double-precision half out of cache (paper-size tunes dominate the
/// build), plus padding records. Returns the real winners.
fn populate(dir: &Path, seed: u64) -> Result<Vec<Stored>, String> {
    let db = Arc::new(TunedDb::open(dir).map_err(|e| format!("pristine db: {e}"))?);
    let mut stored = Vec::new();
    for machine in machines() {
        for context in [Context::InL2, Context::OutOfCache] {
            let kernels = ALL_KERNELS
                .into_iter()
                .filter(|k| context == Context::InL2 || k.prec == Prec::D);
            for kernel in kernels {
                let out = daemon_config(&machine, context, seed)
                    .jobs(crate::nproc())
                    .db(Arc::clone(&db))
                    .tune(kernel)
                    .map_err(|e| format!("populate {}: {e}", kernel.name()))?;
                stored.push(Stored {
                    kernel,
                    machine: proto_machine(&machine),
                    context,
                    n: context_n(context),
                    params: params_json(&out.result.best),
                });
            }
        }
    }
    let real = db.records();
    for i in 0..PAD_RECORDS {
        let mut rec = real[i % real.len()].clone();
        rec.kernel = format!("hil:pad{i}#{:016x}", ifko::eval::fnv64(rec.key.as_bytes()));
        rec.key = db_key(&rec.kernel, &rec.prec, &rec.machine, &rec.context, &rec.rev);
        db.store(&rec);
    }
    db.join_compactions();
    Ok(stored)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A running daemon process. Dropping it stops the process and waits
/// for it.
struct DaemonProc {
    child: Child,
    socket: PathBuf,
}

impl DaemonProc {
    /// Restore the live db from the pristine copy, start the daemon and
    /// wait for its first `ping`. Returns the process and the seconds
    /// from spawn to the answered ping.
    fn start(pristine: &Path, dir: &Path) -> Result<(DaemonProc, f64), String> {
        let live = dir.join("live");
        copy_dir(pristine, &live)?;
        let socket = dir.join("d.sock");
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let child = Command::new(exe)
            .arg("daemon")
            .arg("--socket")
            .arg(&socket)
            .arg("--db")
            .arg(&live)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut proc = DaemonProc { child, socket };
        loop {
            if let Ok(mut c) = Client::connect(&proc.socket) {
                c.ping().map_err(|e| format!("first ping: {e}"))?;
                return Ok((proc, t0.elapsed().as_secs_f64()));
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!("daemon exited at start: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(60) {
                return Err("daemon did not answer within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(&self.child.id().to_string())
    }

    /// Ask the daemon to shut down and wait for it.
    fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.socket)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown());
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        match (asked, status.success()) {
            (Ok(()), true) => Ok(()),
            (Err(e), _) => Err(format!("daemon shutdown: {e}")),
            (_, false) => Err(format!("daemon exited with {status}")),
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One completed request.
struct Sample {
    kind: Slot,
    /// Whether the request was traced (the traced run alternates).
    traced: bool,
    rt_s: f64,
    speedup: Option<(String, f64)>,
}

/// A checked reply: its round trip, and for `tune` replies the winner's
/// speedup keyed by what determines it.
struct Reply {
    rt_s: f64,
    speedup: Option<(String, f64)>,
}

/// Rename a HIL source's routine, so its content hash (and db key) is
/// new.
fn renamed(src: &str, tag: &str) -> String {
    src.replacen("ROUTINE ", &format!("ROUTINE {tag}_"), 1)
}

fn reply_params(v: &Json) -> Option<TransformParams> {
    params_from_json(v.get("params")?)
}

/// Everything a client thread needs.
struct Load<'a> {
    socket: &'a Path,
    stored: &'a [Stored],
    seed: u64,
    /// Distinguishes cold kernels between runs.
    tag: &'a str,
    /// Inputs cold winners are checked on.
    check_data: &'a ifko_blas::Workload,
    /// Traces every other request on each connection when set, so
    /// traced and untraced round trips share a daemon and connection.
    tracer: Option<&'a Arc<Tracer>>,
}

impl Load<'_> {
    /// Closed loop on one connection until `until`.
    fn client(&self, thread: u64, until: Instant) -> Result<ClientRun, String> {
        let mut client = Client::connect(self.socket).map_err(|e| format!("connect: {e}"))?;
        let mut rng = Rng64::seed_from_u64(self.seed ^ (thread + 1).wrapping_mul(0x9e37_79b9));
        let mut run = ClientRun::default();
        let mut i = 0u64;
        let in_context = |ctx: Context| -> Vec<&Stored> {
            self.stored.iter().filter(|s| s.context == ctx).collect()
        };
        let (warm_ic, warm_oc) = (in_context(Context::InL2), in_context(Context::OutOfCache));
        let mut slots = Rounds::new(BLOCK.len());
        let mut queries = Rounds::new(self.stored.len());
        let mut warm_ic_keys = Rounds::new(warm_ic.len());
        let mut warm_oc_keys = Rounds::new(warm_oc.len());
        let mut colds = Rounds::new(2 * ALL_KERNELS.len());
        while Instant::now() < until {
            let kind = BLOCK[slots.next(&mut rng)];
            let tr = self.tracer.filter(|_| i % 2 == 0);
            let outcome = match kind {
                Slot::Query => {
                    let s = &self.stored[queries.next(&mut rng)];
                    self.query(&mut client, s, tr)
                }
                Slot::WarmIc => self.warm(&mut client, warm_ic[warm_ic_keys.next(&mut rng)], tr),
                Slot::WarmOc => self.warm(&mut client, warm_oc[warm_oc_keys.next(&mut rng)], tr),
                Slot::Cold => {
                    let c = colds.next(&mut rng);
                    let kernel = ALL_KERNELS[c % ALL_KERNELS.len()];
                    let machine = &machines()[c / ALL_KERNELS.len()];
                    let tag = format!("{}t{thread}r{i}", self.tag);
                    self.cold(&mut client, kernel, machine, &tag, tr)
                }
            };
            i += 1;
            match outcome {
                Ok(Reply { rt_s, speedup }) => {
                    run.samples.push(Sample {
                        kind,
                        traced: tr.is_some(),
                        rt_s,
                        speedup,
                    });
                    run.outcomes.push(Ok(()));
                }
                Err(e) => run.outcomes.push(Err(e)),
            }
        }
        Ok(run)
    }

    /// Send one request, timing the round trip (and tracing it into
    /// `tr`).
    fn timed(
        client: &mut Client,
        tr: Option<&Arc<Tracer>>,
        name: &str,
        payload: impl FnOnce(&mut Client) -> Result<Json, String>,
    ) -> (Result<Json, String>, f64) {
        let req = tr.map_or(0, |t| t.new_req());
        let _s = trace::span(tr, name, None, req);
        let t0 = Instant::now();
        let reply = payload(client);
        (reply, t0.elapsed().as_secs_f64())
    }

    fn query(
        &self,
        client: &mut Client,
        s: &Stored,
        tr: Option<&Arc<Tracer>>,
    ) -> Result<Reply, String> {
        let ctx = s.context.label();
        let (reply, rt_s) = Self::timed(client, tr, "rq.query", |c| {
            c.query(&s.kernel.name(), s.machine, ctx, None, None)
        });
        let what = format!("query {}@{}/{ctx}", s.kernel.name(), s.machine);
        let reply = reply.map_err(|e| format!("{what}: {e}"))?;
        let params = reply.get("record").and_then(reply_params);
        if reply.get("found").and_then(Json::as_bool) != Some(true)
            || params.map(|p| params_json(&p)).as_deref() != Some(s.params.as_str())
        {
            return Err(format!("{what}: reply lacks the stored winner"));
        }
        Ok(Reply {
            rt_s,
            speedup: None,
        })
    }

    fn warm(
        &self,
        client: &mut Client,
        s: &Stored,
        tr: Option<&Arc<Tracer>>,
    ) -> Result<Reply, String> {
        let req = TuneRequest {
            kernel: Some(s.kernel.name()),
            machine: s.machine.to_string(),
            context: s.context.label().to_string(),
            n: Some(s.n),
            seed: Some(self.seed),
            ..TuneRequest::default()
        };
        let (reply, rt_s) = Self::timed(client, tr, "rq.warm", |c| c.tune(&req));
        let what = format!(
            "warm tune {}@{}/{}",
            s.kernel.name(),
            s.machine,
            s.context.label()
        );
        let reply = reply.map_err(|e| format!("{what}: {e}"))?;
        if reply.get("strategy").and_then(Json::as_str) != Some(STRATEGY_WARM) {
            return Err(format!("{what}: not answered from the db"));
        }
        if reply_params(&reply).map(|p| params_json(&p)).as_deref() != Some(s.params.as_str()) {
            return Err(format!("{what}: params differ from the stored winner"));
        }
        Ok(Reply {
            rt_s,
            speedup: speedup(&reply).map(|x| (what, x)),
        })
    }

    fn cold(
        &self,
        client: &mut Client,
        kernel: Kernel,
        machine: &MachineConfig,
        tag: &str,
        tr: Option<&Arc<Tracer>>,
    ) -> Result<Reply, String> {
        let src = renamed(&hil_source(kernel.op, kernel.prec), tag);
        let req = TuneRequest {
            src: Some(src.clone()),
            machine: proto_machine(machine).to_string(),
            context: "ic".into(),
            n: Some(1024),
            seed: Some(self.seed),
            ..TuneRequest::default()
        };
        let (reply, rt_s) = Self::timed(client, tr, "rq.cold", |c| c.tune(&req));
        let what = format!("cold tune {}@{}", kernel.name(), machine.name);
        let reply = reply.map_err(|e| format!("{what}: {e}"))?;
        if reply.get("warm").and_then(Json::as_bool) != Some(false) {
            return Err(format!("{what}: a never-seen kernel was answered warm"));
        }
        let params = reply_params(&reply).ok_or_else(|| format!("{what}: no params"))?;
        let compiled = CompileSession::from_source(&src, machine)
            .and_then(|s| s.compile(&params, CompileOpts::default()))
            .map_err(|e| format!("{what}: winner does not compile: {e}"))?;
        check::winner(
            &compiled,
            Reference::Blas(kernel),
            self.check_data,
            Context::InL2,
            machine,
        )
        .map_err(|e| format!("{what}: winner check: {e}"))?;
        Ok(Reply {
            rt_s,
            speedup: speedup(&reply).map(|x| (what, x)),
        })
    }
}

/// What one client thread measured.
#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    outcomes: Vec<Result<(), String>>,
}

fn speedup(reply: &Json) -> Option<f64> {
    let d = reply.get("default_cycles")?.as_f64()?;
    let b = reply.get("best_cycles")?.as_f64()?;
    Some(d / b.max(1.0))
}

/// Run the closed loop on `conns` connections for `seconds`. Returns the
/// samples and the wall time.
fn load(
    l: &Load<'_>,
    conns: usize,
    seconds: f64,
    report: &mut Report,
) -> Result<(Vec<Sample>, f64), String> {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(seconds);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns as u64)
            .map(|t| s.spawn(move || l.client(t, until)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for r in results {
        let run = r?;
        samples.extend(run.samples);
        for o in run.outcomes {
            report.op(o);
        }
    }
    Ok((samples, wall))
}

/// End-to-end metrics of one load phase.
fn load_metrics(samples: &[Sample], wall: f64, report: &mut Report) {
    let ms = |k: &[Slot]| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| k.contains(&s.kind))
            .map(|s| s.rt_s * 1e3)
            .collect()
    };
    let warm = ms(&[Slot::Query, Slot::WarmIc, Slot::WarmOc]);
    let cold = ms(&[Slot::Cold]);
    let tunes = ms(&[Slot::WarmIc, Slot::WarmOc, Slot::Cold]);
    report.set_noted(
        "tune_s_p50",
        trace::median(&tunes) / 1e3,
        format!("n={} warm+cold tune requests", tunes.len()),
    );
    report.set_noted(
        "tunes_per_s",
        tunes.len() as f64 / wall,
        format!("over {wall:.1} s"),
    );
    report.set_noted(
        "warm_ms_p50",
        trace::median(&warm),
        format!("n={}", warm.len()),
    );
    report.set_noted(
        "warm_ms_p99",
        trace::quantile(&warm, 0.99),
        format!("n={}", warm.len()),
    );
    report.set_noted(
        "cold_ms_p50",
        trace::median(&cold),
        format!("n={}", cold.len()),
    );
    report.set_noted(
        "req_per_s",
        samples.len() as f64 / wall,
        format!("{} requests", samples.len()),
    );
    // One value per distinct kernel/machine/context: warm replies of one
    // key repeat its winner, and a cold winner does not depend on the
    // routine's name.
    let mut by_key: std::collections::BTreeMap<&str, f64> = Default::default();
    for (k, x) in samples.iter().filter_map(|s| s.speedup.as_ref()) {
        by_key.insert(k.as_str(), *x);
    }
    let xs: Vec<f64> = by_key.values().copied().collect();
    report.set_noted(
        "speedup_geomean",
        trace::geomean(&xs),
        format!("{} distinct winners", xs.len()),
    );
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let run = RunDir::create("svc").map_err(|e| format!("scratch dir: {e}"))?;
    let pristine = run.path().join("pristine");
    let t0 = Instant::now();
    let stored = populate(&pristine, args.seed)?;
    eprintln!(
        "layerbench: pristine db of {} winners + {PAD_RECORDS} padding records built in {:.1} s",
        stored.len(),
        t0.elapsed().as_secs_f64()
    );
    let conns = crate::nproc().clamp(1, 2);
    if args.trace {
        return traced(args, &run, &pristine, &stored, conns, report);
    }
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPS {
        let (d, s) = DaemonProc::start(&pristine, run.path())?;
        setups.push(s);
        if i + 1 < SETUP_REPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    report.set_noted(
        "setup_s",
        trace::median(&setups),
        format!("median of {SETUP_REPS} daemon starts"),
    );
    let tag = format!("s{}", args.seed);
    let l = Load {
        socket: &daemon.socket,
        stored: &stored,
        seed: args.seed,
        tag: &tag,
        check_data: &check::data(1024, args.seed),
        tracer: None,
    };
    let (samples, wall) = load(&l, conns, args.seconds, report)?;
    load_metrics(&samples, wall, report);
    report.set("peak_rss_mb", daemon.peak_rss_mb());
    daemon.stop()
}

/// The traced run: in-process calls into the db, tune and daemon
/// layers, then the request loop on one daemon, tracing every other
/// request on each connection for the overhead.
fn traced(
    args: &Args,
    run: &RunDir,
    pristine: &Path,
    stored: &[Stored],
    conns: usize,
    report: &mut Report,
) -> Result<(), String> {
    let tracer = Tracer::new();
    let reg = Arc::new(MetricsRegistry::new());
    let totals = in_process_layers(args.seed, run, pristine, stored, &tracer, &reg, report)?;
    layer_metrics(
        &tracer,
        &reg,
        SearchOptions::quick().timer.reps,
        &totals,
        report,
    );
    let spans = tracer.spans();
    report.set_noted(
        "daemon.warm_verify_ms_p50",
        trace::median(&trace::durations(&spans, "warm")) * 1e3,
        "in-process warm tunes on a copy of the db".into(),
    );

    let (daemon, setup_s) = DaemonProc::start(pristine, run.path())?;
    report.set("setup_s", setup_s);
    // Protocol round trips: `ping` does no work behind the frame.
    let mut c = Client::connect(&daemon.socket).map_err(|e| e.to_string())?;
    for _ in 0..200 {
        let req = tracer.new_req();
        let _s = tracer.span("ping", None, req);
        report.op(c.ping());
    }
    drop(c);
    let tag = format!("s{}t", args.seed);
    let l = Load {
        socket: &daemon.socket,
        stored,
        seed: args.seed,
        tag: &tag,
        check_data: &check::data(1024, args.seed),
        tracer: Some(&tracer),
    };
    let (samples, wall) = load(&l, conns, args.seconds, report)?;
    load_metrics(&samples, wall, report);
    report.set("peak_rss_mb", daemon.peak_rss_mb());
    daemon.stop()?;

    let spans = tracer.spans();
    let us = |name: &str| trace::median(&trace::durations(&spans, name)) * 1e6;
    report.set_noted("proto.frame_rt_us_p50", us("ping"), "n=200 pings".into());
    report.set("daemon.query_us_p50", us("rq.query"));
    // Per warm request type, median traced over median untraced round
    // trip; their geometric mean, so the mix of types does not weigh in.
    let ratios: Vec<f64> = [Slot::Query, Slot::WarmIc, Slot::WarmOc]
        .into_iter()
        .map(|kind| {
            let median = |traced: bool| {
                let rts: Vec<f64> = samples
                    .iter()
                    .filter(|s| s.kind == kind && s.traced == traced)
                    .map(|s| s.rt_s)
                    .collect();
                trace::median(&rts)
            };
            trace::ratio(median(true), median(false))
        })
        .filter(|r| *r > 0.0)
        .collect();
    report.set_noted(
        "trace.overhead_frac",
        trace::geomean(&ratios) - 1.0,
        "warm round trips, traced vs untraced alternating on one daemon".into(),
    );
    Ok(())
}

/// The layers behind the daemon, called in this process: db open,
/// lookups and appends on a copy of the pristine db, one warm tune per
/// stored key and one cold tune per suite kernel and machine, built as
/// the daemon builds them.
fn in_process_layers(
    seed: u64,
    run: &RunDir,
    pristine: &Path,
    stored: &[Stored],
    tracer: &Arc<Tracer>,
    reg: &Arc<MetricsRegistry>,
    report: &mut Report,
) -> Result<Totals, String> {
    let t = tracer;
    let copy = run.path().join("probe");
    copy_dir(pristine, &copy)?;
    let mut db = None;
    for _ in 0..3 {
        let _s = t.span("db.open", None, t.new_req());
        db = Some(TunedDb::open(&copy).map_err(|e| format!("db open: {e}"))?);
    }
    let db = Arc::new(db.expect("opened"));
    let records = db.records();
    for rec in records.iter().take(1000) {
        let found = {
            let _s = t.span("db.lookup", None, t.new_req());
            db.lookup(&rec.key)
        };
        report.op(match found {
            Some(r) if r == *rec => Ok(()),
            _ => Err(format!("db lookup of {} lost the record", rec.key)),
        });
    }
    for (i, rec) in records.iter().take(200).enumerate() {
        let mut rec = rec.clone();
        rec.kernel = format!("hil:append{i}");
        rec.key = db_key(&rec.kernel, &rec.prec, &rec.machine, &rec.context, &rec.rev);
        let _s = t.span("db.append", None, t.new_req());
        db.store(&rec);
    }

    let cache = Arc::new(ifko::EvalCache::new());
    let sink = Arc::clone(tracer) as Arc<dyn ifko::eval::TraceSink>;
    for s in stored {
        let machine = machines()
            .into_iter()
            .find(|m| proto_machine(m) == s.machine)
            .expect("stored machine");
        let cfg = daemon_config(&machine, s.context, seed)
            .jobs(1)
            .cache(Arc::clone(&cache))
            .db(Arc::clone(&db))
            .metrics(Arc::clone(reg))
            .trace(Arc::clone(&sink));
        let req = t.new_req();
        let span = t.span("warm", None, req);
        t.enter(req, span.id());
        let out = cfg.tune(s.kernel);
        drop(span);
        report.op(match out {
            Ok(o)
                if o.result.strategy == STRATEGY_WARM
                    && params_json(&o.result.best) == s.params =>
            {
                Ok(())
            }
            Ok(_) => Err(format!(
                "in-process warm tune of {} missed",
                s.kernel.name()
            )),
            Err(e) => Err(e.to_string()),
        });
    }
    let check_data = check::data(1024, seed);
    let mut totals = Totals {
        tunes: 0,
        winner_cycles: 0,
    };
    for machine in machines() {
        for kernel in ALL_KERNELS {
            let src = renamed(&hil_source(kernel.op, kernel.prec), &format!("probe{seed}"));
            let req = t.new_req();
            let sess = {
                let _s = t.span("session", None, req);
                CompileSession::from_source(&src, &machine).map_err(|e| e.to_string())?
            };
            {
                let _s = t.span("predict", None, req);
                let _ = sess.predict(
                    &TransformParams::defaults(sess.report(), &machine),
                    &machine,
                );
            }
            let cfg = daemon_config(&machine, Context::InL2, seed)
                .jobs(1)
                .cache(Arc::clone(&cache))
                .db(Arc::clone(&db))
                .metrics(Arc::clone(reg))
                .trace(Arc::clone(&sink));
            let span = t.span("cold", None, req);
            t.enter(req, span.id());
            let out = cfg.tune_source(&src);
            drop(span);
            let checked = out.map_err(|e| e.to_string()).and_then(|o| {
                totals.tunes += 1;
                totals.winner_cycles += o.result.best_cycles;
                check::winner(
                    &o.compiled,
                    Reference::Blas(kernel),
                    &check_data,
                    Context::InL2,
                    &machine,
                )
            });
            report.op(checked.map_err(|e| format!("in-process cold tune {}: {e}", kernel.name())));
        }
    }
    Ok(totals)
}
