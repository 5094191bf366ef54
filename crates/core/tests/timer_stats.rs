//! Robust timing statistics, property-tested over the in-repo xoshiro
//! generator: with outliers injected at a contamination rate of at most
//! one third, the median/MAD screen must reject exactly the spikes and
//! the robust estimate must equal the clean minimum; on a real kernel
//! the robust path must agree with the paper's min-of-reps and stay
//! within the interference envelope of [`Timer::exact`]. The timer's
//! one-simulation protocol must equal, field by field, a reference that
//! re-simulates every repetition.

use ifko::prelude::*;
use ifko::runner::{run_once, KernelArgs};
use ifko::timer::{robust_min, robust_outliers, TimingReport};
use ifko_blas::hil_src::hil_source;
use ifko_fko::{compile_defaults, CompiledKernel};
use ifko_xsim::Rng64;

const INTERFERENCE: f64 = 0.03;

/// Synthetic repetitions the way the timer produces them: a true cycle
/// count inflated by bounded noise, with `n_spikes` of them multiplied
/// by an 8–32× interference spike (the fault plan's range).
fn sample(rng: &mut Rng64, reps: usize, n_spikes: usize) -> (Vec<u64>, u64) {
    let base = 10_000 + rng.next_u64() % 50_000;
    let mut vals: Vec<u64> = (0..reps)
        .map(|_| (base as f64 * (1.0 + rng.unit_f64() * INTERFERENCE)) as u64)
        .collect();
    // Spike distinct indices; at most ⌊reps/3⌋ of them.
    let mut spiked = vec![false; reps];
    let mut placed = 0;
    while placed < n_spikes {
        let i = (rng.next_u64() % reps as u64) as usize;
        if !spiked[i] {
            spiked[i] = true;
            let factor = 8.0 + rng.unit_f64() * 24.0;
            vals[i] = (vals[i] as f64 * factor) as u64;
            placed += 1;
        }
    }
    // The recoverable truth: the smallest repetition a spike missed.
    let clean_min = vals
        .iter()
        .zip(&spiked)
        .filter(|&(_, &s)| !s)
        .map(|(&v, _)| v)
        .min()
        .unwrap();
    (vals, clean_min)
}

/// ≤ 1/3 contamination: every spike is rejected, no clean repetition
/// is, and the estimate is exactly the clean minimum.
#[test]
fn robust_min_rejects_spikes_and_recovers_clean_minimum() {
    let mut rng = Rng64::seed_from_u64(0x7133_57a7);
    for _ in 0..500 {
        let reps = 3 + (rng.next_u64() % 10) as usize; // 3..=12
        let n_spikes = (rng.next_u64() % (reps as u64 / 3 + 1)) as usize;
        let (vals, clean_min) = sample(&mut rng, reps, n_spikes);
        let (est, rejected) = robust_min(&vals, INTERFERENCE);
        assert_eq!(
            rejected, n_spikes as u32,
            "rejected {rejected} of {n_spikes} spikes in {vals:?}"
        );
        assert_eq!(
            est, clean_min,
            "estimate drifted off the clean minimum in {vals:?}"
        );
    }
}

/// With no contamination the screen never fires — the robust path is
/// the identity on clean data, whatever the seed.
#[test]
fn robust_screen_never_fires_on_clean_samples() {
    let mut rng = Rng64::seed_from_u64(0x000c_1ea9);
    for _ in 0..500 {
        let reps = 2 + (rng.next_u64() % 11) as usize;
        let (vals, clean_min) = sample(&mut rng, reps, 0);
        assert!(
            robust_outliers(&vals, INTERFERENCE).iter().all(|&f| !f),
            "clean sample flagged: {vals:?}"
        );
        assert_eq!(robust_min(&vals, INTERFERENCE), (clean_min, 0));
    }
}

fn compiled_ddot() -> (CompiledKernel, Workload, Kernel, MachineConfig) {
    let mach = p4e();
    let src = hil_source(BlasOp::Dot, Prec::D);
    let compiled = compile_defaults(&src, &mach).unwrap();
    let w = Workload::generate(512, 5);
    (
        compiled,
        w,
        Kernel {
            op: BlasOp::Dot,
            prec: Prec::D,
        },
        mach,
    )
}

/// On a real kernel, across timer seeds: min-of-reps and the robust
/// path agree bit-exactly on clean runs, and both stay within the
/// interference envelope of the noise-free [`Timer::exact`] count.
#[test]
fn robust_and_min_of_reps_agree_across_seeds() {
    let (compiled, w, k, mach) = compiled_ddot();
    let args = KernelArgs {
        kernel: k,
        workload: &w,
        context: Context::OutOfCache,
    };
    let exact = Timer::exact().time(&compiled, &args, &mach).unwrap();
    for seed in 0..12 {
        let t = Timer {
            reps: 6,
            interference: INTERFERENCE,
            seed,
        };
        let min_reps = t.time(&compiled, &args, &mach).unwrap();
        let robust = t.time_robust(&compiled, &args, &mach, None).unwrap();
        assert_eq!(
            robust.cycles, min_reps,
            "seed {seed}: robust and min-of-reps disagree on a clean run"
        );
        assert_eq!((robust.outliers_rejected, robust.retimed), (0, 0));
        assert!(min_reps >= exact, "seed {seed}: timing below truth");
        assert!(
            min_reps as f64 <= exact as f64 * (1.0 + INTERFERENCE) + 1.0,
            "seed {seed}: min-of-reps {min_reps} outside the envelope of {exact}"
        );
    }
}

/// Injected timer spikes across chaos seeds: the robust estimate stays
/// within the interference envelope of [`Timer::exact`] — spikes are
/// either re-timed away or rejected, never averaged in.
#[test]
fn injected_spikes_stay_within_tolerance_of_exact() {
    let (compiled, w, k, mach) = compiled_ddot();
    let args = KernelArgs {
        kernel: k,
        workload: &w,
        context: Context::OutOfCache,
    };
    let exact = Timer::exact().time(&compiled, &args, &mach).unwrap();
    let t = Timer {
        reps: 6,
        interference: INTERFERENCE,
        seed: 0x5eed,
    };
    let mut injections = 0u32;
    for chaos_seed in 0..16u64 {
        // ~1/3 of reps spiked on average, the satellite's contamination cap.
        let plan = FaultPlan::uniform(chaos_seed, 0.33);
        let r = t
            .time_robust(&compiled, &args, &mach, Some((&plan, "ddot/chaos")))
            .unwrap();
        injections += r.injected;
        assert!(r.cycles >= exact, "seed {chaos_seed}: estimate below truth");
        assert!(
            r.cycles as f64 <= exact as f64 * (1.0 + INTERFERENCE) + 1.0,
            "seed {chaos_seed}: estimate {} outside the envelope of {exact} \
             ({} injected, {} rejected, {} retimed)",
            r.cycles,
            r.injected,
            r.outliers_rejected,
            r.retimed
        );
    }
    assert!(injections > 0, "16 seeds at rate 0.33 must inject spikes");
}

/// The re-simulating reference for [`Timer::time`]: one fresh run per
/// repetition, minimum of the inflated observations.
fn resimulated_time(
    t: &Timer,
    c: &CompiledKernel,
    args: &KernelArgs<'_>,
    m: &MachineConfig,
) -> u64 {
    (0..t.reps.max(1))
        .map(|rep| {
            let cycles = run_once(c, args, m).unwrap().stats.cycles;
            t.inflate(cycles, &c.name, rep)
        })
        .min()
        .unwrap()
}

/// The re-simulating reference for [`Timer::time_robust`]: every
/// measurement and every re-time is a fresh run, spikes keyed on
/// `(rep, attempt)`, at most three re-time rounds.
fn resimulated_time_robust(
    t: &Timer,
    c: &CompiledKernel,
    args: &KernelArgs<'_>,
    m: &MachineConfig,
    faults: Option<(&FaultPlan, &str)>,
) -> TimingReport {
    let reps = t.reps.max(1) as usize;
    let mut injected = 0u32;
    let mut retimed = 0u32;
    let mut measure = |rep: usize, attempt: u32| {
        let cycles = run_once(c, args, m).unwrap().stats.cycles;
        let mut v = t.inflate(cycles, &c.name, rep as u32);
        if let Some((plan, key)) = faults {
            if let Some(factor) = plan.timer_spike(key, rep as u32, attempt) {
                injected += 1;
                v = (v as f64 * factor) as u64;
            }
        }
        v
    };
    let mut attempts = vec![0u32; reps];
    let mut vals: Vec<u64> = (0..reps).map(|rep| measure(rep, 0)).collect();
    for _round in 0..3 {
        let flags = robust_outliers(&vals, t.interference);
        if !flags.iter().any(|&f| f) {
            break;
        }
        for rep in 0..reps {
            if flags[rep] {
                attempts[rep] += 1;
                retimed += 1;
                vals[rep] = measure(rep, attempts[rep]);
            }
        }
    }
    let (cycles, outliers_rejected) = robust_min(&vals, t.interference);
    TimingReport {
        cycles,
        outliers_rejected,
        retimed,
        injected,
    }
}

/// One simulation per timing is bit-identical to re-simulating every
/// repetition: four suite kernels, both machines, both contexts, reps
/// 1/2/6, with and without injected timer spikes.
#[test]
fn one_run_protocol_equals_resimulated_reference() {
    let kernels = [
        (BlasOp::Dot, Prec::D),
        (BlasOp::Axpy, Prec::S),
        (BlasOp::Iamax, Prec::D),
        (BlasOp::Asum, Prec::S),
    ];
    let w = Workload::generate(256, 9);
    let chaos = FaultPlan::uniform(0x7e57, 0.33);
    let (mut injected, mut retimed) = (0u32, 0u32);
    for mach in [p4e(), opteron()] {
        for (op, prec) in kernels {
            let compiled = compile_defaults(&hil_source(op, prec), &mach).unwrap();
            for context in [Context::OutOfCache, Context::InL2] {
                let args = KernelArgs {
                    kernel: Kernel { op, prec },
                    workload: &w,
                    context,
                };
                for reps in [1, 2, 6] {
                    let t = Timer {
                        reps,
                        interference: INTERFERENCE,
                        seed: 0x5eed,
                    };
                    let what = format!("{} {} {context:?} reps={reps}", mach.name, compiled.name);
                    assert_eq!(
                        t.time(&compiled, &args, &mach).unwrap(),
                        resimulated_time(&t, &compiled, &args, &mach),
                        "{what}: min-of-reps"
                    );
                    for faults in [None, Some((&chaos, what.as_str()))] {
                        let got = t.time_robust(&compiled, &args, &mach, faults).unwrap();
                        let want = resimulated_time_robust(&t, &compiled, &args, &mach, faults);
                        let label = format!("{what} chaos={}", faults.is_some());
                        assert_eq!(got.cycles, want.cycles, "{label}: cycles");
                        assert_eq!(
                            got.outliers_rejected, want.outliers_rejected,
                            "{label}: outliers_rejected"
                        );
                        assert_eq!(got.retimed, want.retimed, "{label}: retimed");
                        assert_eq!(got.injected, want.injected, "{label}: injected");
                        injected += got.injected;
                        retimed += got.retimed;
                    }
                }
            }
        }
    }
    assert!(
        injected > 0 && retimed > 0,
        "the chaos plan must inject spikes and force re-times"
    );
}
