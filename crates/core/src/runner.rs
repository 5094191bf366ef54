//! Kernel execution harness: binds a BLAS workload to a compiled kernel's
//! calling convention, establishes the timing context, runs on the
//! simulator, and extracts outputs.
//!
//! Every run starts from a simulator in the state of `Cpu::new(machine)`
//! plus `flush_caches` and `Memory::new(capacity)`, but the CPU and memory
//! are recycled per thread ([`with_simulator`]) instead of rebuilt: a
//! short in-L2 run would otherwise spend more time allocating and clearing
//! a 1 MiB L2 model and memory image than interpreting the kernel.

use std::cell::RefCell;

use ifko_blas::{Kernel, RetKind, Workload};
use ifko_fko::{ArgSlot, CompiledKernel, RetSlot};
use ifko_xsim::isa::Prec;
use ifko_xsim::{Cpu, FReg, IReg, MachineConfig, Memory, RunStats};

/// Memory context of a timing (paper §3: "out-of-cache" N=80000 vs
/// "in-L2-cache" N=1024).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Context {
    /// Caches cold at kernel entry.
    OutOfCache,
    /// Operands pre-loaded into L2 (but not L1).
    InL2,
}

impl Context {
    pub fn label(self) -> &'static str {
        match self {
            Context::OutOfCache => "oc",
            Context::InL2 => "ic",
        }
    }
    /// The paper's problem size for this context.
    pub fn paper_n(self) -> usize {
        match self {
            Context::OutOfCache => ifko_blas::workload::N_OUT_OF_CACHE,
            Context::InL2 => ifko_blas::workload::N_IN_L2,
        }
    }
}

/// Everything bound for one run.
pub struct KernelArgs<'a> {
    pub kernel: Kernel,
    pub workload: &'a Workload,
    pub context: Context,
}

/// Outputs captured after a run (vectors widened to f64 for comparison).
#[derive(Clone, Debug)]
pub struct Outputs {
    pub ret_f: f64,
    pub ret_i: i64,
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub stats: RunStats,
}

/// Why a run failed.
#[derive(Clone, Debug)]
pub struct RunFailure(pub String);

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for RunFailure {}

thread_local! {
    /// This thread's simulator, kept between runs by [`with_simulator`].
    static SIMULATOR: RefCell<Option<(Cpu, Memory)>> = const { RefCell::new(None) };
}

/// Run `f` on this thread's simulator, handed over in exactly the state of
/// a fresh `Cpu::new(machine)` (caches cold) and a fresh
/// `Memory::new(capacity)`. The pair is kept per thread and recycled
/// ([`Cpu::reset`], [`Memory::recycle`]); the CPU is rebuilt only when
/// `machine` differs from the one it was built for. Whatever state `f`
/// leaves behind — a fault or instruction-limit stop mid-run, a lowered
/// instruction limit — never reaches the next call. `f` must not call
/// `with_simulator` itself: the simulator is already lent out.
pub fn with_simulator<R>(
    machine: &MachineConfig,
    capacity: usize,
    f: impl FnOnce(&mut Cpu, &mut Memory) -> R,
) -> R {
    SIMULATOR.with(|slot| {
        let mut slot = slot.borrow_mut();
        match &mut *slot {
            Some((cpu, mem)) => {
                if cpu.config() == machine {
                    cpu.reset();
                } else {
                    *cpu = Cpu::new(machine.clone());
                }
                mem.recycle(capacity);
            }
            None => *slot = Some((Cpu::new(machine.clone()), Memory::new(capacity))),
        }
        let (cpu, mem) = slot.as_mut().expect("simulator installed above");
        f(cpu, mem)
    })
}

/// Execute `compiled` once under `args` on a simulator of the machine it
/// was compiled for, reset to power-on state (cold caches, zeroed memory;
/// see [`with_simulator`]).
pub fn run_once(
    compiled: &CompiledKernel,
    args: &KernelArgs<'_>,
    machine: &MachineConfig,
) -> Result<Outputs, RunFailure> {
    let capacity = ((args.workload.n as u64 * args.kernel.prec.bytes() * 2) + (1 << 20)) as usize;
    with_simulator(machine, capacity, |cpu, mem| {
        run_on(compiled, args, cpu, mem)
    })
}

/// The body of [`run_once`] on a simulator in power-on state.
fn run_on(
    compiled: &CompiledKernel,
    args: &KernelArgs<'_>,
    cpu: &mut Cpu,
    mem: &mut Memory,
) -> Result<Outputs, RunFailure> {
    let n = args.workload.n;
    let prec = args.kernel.prec;
    let eb = prec.bytes();

    // Lay out operands.
    let n_vec = args.kernel.op.n_vectors();
    let xaddr = mem.alloc_vector(n.max(1) as u64, eb);
    let yaddr = if n_vec > 1 {
        mem.alloc_vector(n.max(1) as u64, eb)
    } else {
        0
    };
    store_vec(mem, xaddr, &args.workload.x, prec);
    if n_vec > 1 {
        store_vec(mem, yaddr, &args.workload.y, prec);
    }
    let frame = if compiled.frame_bytes > 0 {
        mem.alloc(compiled.frame_bytes, 16)
    } else {
        0
    };

    if args.context == Context::InL2 {
        cpu.preload_l2(xaddr, n as u64 * eb);
        if n_vec > 1 {
            cpu.preload_l2(yaddr, n as u64 * eb);
        }
    }

    // Bind arguments following the compiled convention. Pointers bind in
    // vector order (X then Y); integer slots receive N; the FP slot
    // receives alpha.
    let mut ptrs = [xaddr, yaddr].into_iter();
    let mut scalars = [args.workload.alpha, args.workload.beta].into_iter();
    for slot in &compiled.arg_convention {
        match slot {
            ArgSlot::PtrReg(r) => {
                let a = ptrs
                    .next()
                    .ok_or_else(|| RunFailure("kernel wants more pointers than workload".into()))?;
                cpu.set_ireg(IReg(*r), a as i64);
            }
            ArgSlot::IntReg(r) => cpu.set_ireg(IReg(*r), n as i64),
            ArgSlot::FReg(r) => {
                let v = scalars
                    .next()
                    .ok_or_else(|| RunFailure("kernel wants more scalars than workload".into()))?;
                match prec {
                    Prec::D => cpu.set_freg_f64(FReg(*r), v),
                    Prec::S => cpu.set_freg_f32(FReg(*r), v as f32),
                }
            }
        }
    }
    cpu.set_ireg(IReg(7), frame as i64);

    let stats = cpu
        .run(&compiled.program, mem)
        .map_err(|e| RunFailure(format!("{}: {e}", compiled.name)))?;

    let ret_f = match compiled.ret {
        RetSlot::F0 => match prec {
            Prec::D => cpu.freg_f64(FReg(0)),
            Prec::S => cpu.freg_f32(FReg(0)) as f64,
        },
        _ => 0.0,
    };
    let ret_i = match compiled.ret {
        RetSlot::I0 => cpu.ireg(IReg(0)),
        _ => 0,
    };
    // Sanity: the ret slot must agree with the op's return kind.
    match (args.kernel.op.ret(), compiled.ret) {
        (RetKind::Float, RetSlot::F0) | (RetKind::Index, RetSlot::I0) | (RetKind::None, _) => {}
        (want, got) => {
            return Err(RunFailure(format!(
                "{}: return mismatch (op wants {want:?}, kernel delivers {got:?})",
                compiled.name
            )))
        }
    }

    Ok(Outputs {
        ret_f,
        ret_i,
        x: load_vec(mem, xaddr, n, prec),
        y: if n_vec > 1 {
            load_vec(mem, yaddr, n, prec)
        } else {
            Vec::new()
        },
        stats,
    })
}

fn store_vec(mem: &mut Memory, addr: u64, data: &[f64], prec: Prec) {
    match prec {
        Prec::D => mem.store_f64_slice(addr, data).expect("operand store"),
        Prec::S => {
            let f: Vec<f32> = data.iter().map(|&v| v as f32).collect();
            mem.store_f32_slice(addr, &f).expect("operand store");
        }
    }
}

fn load_vec(mem: &Memory, addr: u64, n: usize, prec: Prec) -> Vec<f64> {
    match prec {
        Prec::D => mem.load_f64_slice(addr, n).expect("operand load"),
        Prec::S => mem
            .load_f32_slice(addr, n)
            .expect("operand load")
            .into_iter()
            .map(|v| v as f64)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifko_blas::hil_src::hil_source;
    use ifko_blas::ops::BlasOp;
    use ifko_fko::compile_defaults;
    use ifko_xsim::p4e;

    #[test]
    fn runs_ddot_with_defaults() {
        let mach = p4e();
        let src = hil_source(BlasOp::Dot, Prec::D);
        let compiled = compile_defaults(&src, &mach).unwrap();
        let w = Workload::generate(512, 1);
        let k = Kernel {
            op: BlasOp::Dot,
            prec: Prec::D,
        };
        let out = run_once(
            &compiled,
            &KernelArgs {
                kernel: k,
                workload: &w,
                context: Context::OutOfCache,
            },
            &mach,
        )
        .unwrap();
        let expect = ifko_blas::reference::dot(&w.x, &w.y);
        assert!((out.ret_f - expect).abs() < 1e-9);
        assert!(out.stats.cycles > 0);
    }

    #[test]
    fn in_l2_context_is_faster_and_quieter_on_the_bus() {
        let mach = p4e();
        let src = hil_source(BlasOp::Asum, Prec::D);
        let compiled = compile_defaults(&src, &mach).unwrap();
        let w = Workload::generate(1024, 2);
        let k = Kernel {
            op: BlasOp::Asum,
            prec: Prec::D,
        };
        let cold = run_once(
            &compiled,
            &KernelArgs {
                kernel: k,
                workload: &w,
                context: Context::OutOfCache,
            },
            &mach,
        )
        .unwrap();
        let warm = run_once(
            &compiled,
            &KernelArgs {
                kernel: k,
                workload: &w,
                context: Context::InL2,
            },
            &mach,
        )
        .unwrap();
        assert!(warm.stats.cycles < cold.stats.cycles);
        assert!(warm.stats.bus_read_bytes < cold.stats.bus_read_bytes / 2);
    }

    #[test]
    fn single_precision_binding_works() {
        let mach = p4e();
        let src = hil_source(BlasOp::Axpy, Prec::S);
        let compiled = compile_defaults(&src, &mach).unwrap();
        let w = Workload::generate(300, 3);
        let k = Kernel {
            op: BlasOp::Axpy,
            prec: Prec::S,
        };
        let out = run_once(
            &compiled,
            &KernelArgs {
                kernel: k,
                workload: &w,
                context: Context::OutOfCache,
            },
            &mach,
        )
        .unwrap();
        // Compute the expected result in f32.
        let xs = w.x_f32();
        let mut ys = w.y_f32();
        ifko_blas::reference::axpy(w.alpha as f32, &xs, &mut ys);
        for (i, (got, want)) in out.y.iter().zip(&ys).enumerate() {
            assert_eq!(*got as f32, *want, "i={i}");
        }
    }
}
