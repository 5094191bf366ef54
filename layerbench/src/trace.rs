//! In-memory tracing for the traced run, plus the small statistics
//! helpers every workload uses.
//!
//! Two sources feed one span list:
//! * the benchmark's own calls into each layer's public functions
//!   ([`Tracer::span`] guards around session builds, tunes, reference
//!   checks, database and socket calls);
//! * the library's existing pipeline spans (`compile`, `simulate`,
//!   `test`, `time`, ...) and candidate events, received through the
//!   public [`TraceSink`] trait while a tune runs.
//!
//! Every span carries a name, start and end (µs since the run began),
//! its parent, and the id of the tune or request it belongs to. Nothing
//! is written to disk; the run folds the spans into per-layer metrics
//! when it ends.

use ifko::eval::{SearchEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Library span ids live above this offset so they never collide with
/// the benchmark's own ids.
const LIB_ID_BASE: u64 = 1 << 40;

/// One completed span. The metrics fold spans by name and time; `id` and
/// `parent` keep the span tree for reading a trace by hand.
#[derive(Clone, Debug)]
#[allow(dead_code)]
pub struct SpanRec {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub id: u64,
    pub parent: Option<u64>,
    /// Tune or request this span belongs to.
    pub req: u64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// One candidate evaluation reported by the library's search engine.
#[derive(Clone, Debug)]
pub struct EvalRec {
    pub req: u64,
    pub fresh: bool,
    pub cycles: Option<u64>,
    /// Dynamic instructions of the verification run (fresh evaluations).
    pub insts: u64,
    /// Timing re-runs on top of the timer's configured repetitions.
    pub retries: u32,
}

/// Span and event store for one traced run.
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    /// Request id and parent span the library's events are filed under
    /// (set by [`Tracer::enter`] around each library call; the traced
    /// runs call the library from one thread at a time).
    cur_req: AtomicU64,
    cur_parent: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    evals: Mutex<Vec<EvalRec>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            cur_req: AtomicU64::new(0),
            cur_parent: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            evals: Mutex::new(Vec::new()),
        })
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// A fresh request id.
    pub fn new_req(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a span; it is recorded when the guard drops.
    pub fn span(self: &Arc<Self>, name: &str, parent: Option<u64>, req: u64) -> SpanGuard {
        SpanGuard {
            tracer: Arc::clone(self),
            name: name.to_string(),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            start_us: self.now_us(),
        }
    }

    /// File the library events that follow under `req`, below `parent`.
    pub fn enter(&self, req: u64, parent: u64) {
        self.cur_req.store(req, Ordering::Relaxed);
        self.cur_parent.store(parent, Ordering::Relaxed);
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    pub fn evals(&self) -> Vec<EvalRec> {
        self.evals.lock().expect("eval store poisoned").clone()
    }

    fn push(&self, rec: SpanRec) {
        self.spans.lock().expect("span store poisoned").push(rec);
    }
}

impl TraceSink for Tracer {
    fn record(&self, ev: &SearchEvent) {
        let req = self.cur_req.load(Ordering::Relaxed);
        match ev {
            SearchEvent::Span(s) => {
                let end_us = self.now_us();
                let parent = match s.parent {
                    Some(p) => Some(LIB_ID_BASE + p),
                    None => Some(self.cur_parent.load(Ordering::Relaxed)),
                };
                self.push(SpanRec {
                    name: s.stage.clone(),
                    start_us: end_us - s.wall_us as f64,
                    end_us,
                    id: LIB_ID_BASE + s.id,
                    parent,
                    req,
                });
            }
            SearchEvent::Eval(e) => {
                self.evals
                    .lock()
                    .expect("eval store poisoned")
                    .push(EvalRec {
                        req,
                        fresh: !e.cache_hit && e.pruned.is_none(),
                        cycles: e.cycles,
                        insts: e.stats.as_ref().map_or(0, |s| s.insts),
                        retries: e.retries,
                    });
            }
        }
    }
}

/// An open span of the benchmark's own.
pub struct SpanGuard {
    tracer: Arc<Tracer>,
    name: String,
    id: u64,
    parent: Option<u64>,
    req: u64,
    start_us: f64,
}

impl SpanGuard {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_us = self.tracer.now_us();
        self.tracer.push(SpanRec {
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            end_us,
            id: self.id,
            parent: self.parent,
            req: self.req,
        });
    }
}

/// Open a span when tracing is on; a no-op otherwise.
pub fn span(
    tr: Option<&Arc<Tracer>>,
    name: &str,
    parent: Option<u64>,
    req: u64,
) -> Option<SpanGuard> {
    tr.map(|t| t.span(name, parent, req))
}

/// Durations (seconds) of every span called `name`.
pub fn durations(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::secs)
        .collect()
}

/// Summed duration (seconds) of the spans called any of `names`.
pub fn busy(spans: &[SpanRec], names: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .map(SpanRec::secs)
        .sum()
}

/// Linear-interpolated quantile `q` in [0, 1] (NaN-free input; 0 for
/// an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean (1 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
