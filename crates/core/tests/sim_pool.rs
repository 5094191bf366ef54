//! The per-thread simulator pool must be invisible: every run through
//! [`run_once`] and [`run_generic`] — which recycle one CPU and memory per
//! thread — must equal, bit for bit, a reference that builds a fresh
//! `Cpu::new` and `Memory::new` for the run (test-local copies of the
//! harness bodies from before the pool existed). Runs are interleaved so
//! that each one follows a different kind of predecessor: the same or the
//! other machine, the other context, a larger or smaller memory image, a
//! run stopped by a memory fault or by the instruction limit.

use ifko::generic::{run_generic, GenericOutputs, GenericWorkload};
use ifko::runner::{run_once, with_simulator, Context, KernelArgs, Outputs, RunFailure};
use ifko_blas::hil_src::hil_source;
use ifko_blas::{RetKind, Workload, ALL_KERNELS};
use ifko_fko::{ArgSlot, CompileOpts, CompileSession, CompiledKernel, RetSlot, TransformParams};
use ifko_xsim::isa::{Inst, Prec};
use ifko_xsim::{opteron, p4e, Addr, Asm, Cpu, FReg, IReg, MachineConfig, Memory, RunError};

/// Reference for [`run_once`]: the harness body on a freshly built CPU
/// and memory.
fn fresh_run_once(
    compiled: &CompiledKernel,
    args: &KernelArgs<'_>,
    machine: &MachineConfig,
) -> Result<Outputs, RunFailure> {
    let n = args.workload.n;
    let prec = args.kernel.prec;
    let eb = prec.bytes();
    let mut mem = Memory::new(((n as u64 * eb * 2) + (1 << 20)) as usize);
    let n_vec = args.kernel.op.n_vectors();
    let xaddr = mem.alloc_vector(n.max(1) as u64, eb);
    let yaddr = if n_vec > 1 {
        mem.alloc_vector(n.max(1) as u64, eb)
    } else {
        0
    };
    store(&mut mem, xaddr, &args.workload.x, prec);
    if n_vec > 1 {
        store(&mut mem, yaddr, &args.workload.y, prec);
    }
    let frame = if compiled.frame_bytes > 0 {
        mem.alloc(compiled.frame_bytes, 16)
    } else {
        0
    };
    let mut cpu = Cpu::new(machine.clone());
    cpu.flush_caches();
    if args.context == Context::InL2 {
        cpu.preload_l2(xaddr, n as u64 * eb);
        if n_vec > 1 {
            cpu.preload_l2(yaddr, n as u64 * eb);
        }
    }
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
        .run(&compiled.program, &mut mem)
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
        x: load(&mem, xaddr, n, prec),
        y: if n_vec > 1 {
            load(&mem, yaddr, n, prec)
        } else {
            Vec::new()
        },
        stats,
    })
}

/// Reference for [`run_generic`]: the harness body on a freshly built CPU
/// and memory.
fn fresh_run_generic(
    compiled: &CompiledKernel,
    w: &GenericWorkload,
    context: Context,
    machine: &MachineConfig,
) -> Result<GenericOutputs, String> {
    let prec = compiled.prec;
    let eb = prec.bytes();
    let n = w.n;
    let mut mem =
        Memory::new(((n as u64 * eb) * (w.vectors.len() as u64 + 1) + (1 << 20)) as usize);
    let addrs: Vec<u64> = w
        .vectors
        .iter()
        .map(|_| mem.alloc_vector(n.max(1) as u64, eb))
        .collect();
    for (a, v) in addrs.iter().zip(&w.vectors) {
        store(&mut mem, *a, v, prec);
    }
    let frame = if compiled.frame_bytes > 0 {
        mem.alloc(compiled.frame_bytes, 16)
    } else {
        0
    };
    let mut cpu = Cpu::new(machine.clone());
    cpu.flush_caches();
    if context == Context::InL2 {
        for a in &addrs {
            cpu.preload_l2(*a, n as u64 * eb);
        }
    }
    let mut ptrs = addrs.iter();
    let mut scalars = w.scalars.iter();
    for slot in &compiled.arg_convention {
        match slot {
            ArgSlot::PtrReg(r) => {
                cpu.set_ireg(IReg(*r), *ptrs.next().ok_or("missing vector")? as i64)
            }
            ArgSlot::IntReg(r) => cpu.set_ireg(IReg(*r), n as i64),
            ArgSlot::FReg(r) => {
                let v = *scalars.next().ok_or("missing scalar")?;
                match prec {
                    Prec::D => cpu.set_freg_f64(FReg(*r), v),
                    Prec::S => cpu.set_freg_f32(FReg(*r), v as f32),
                }
            }
        }
    }
    cpu.set_ireg(IReg(7), frame as i64);
    let stats = cpu
        .run(&compiled.program, &mut mem)
        .map_err(|e| e.to_string())?;
    Ok(GenericOutputs {
        ret_f: match compiled.ret {
            RetSlot::F0 => match prec {
                Prec::D => cpu.freg_f64(FReg(0)),
                Prec::S => cpu.freg_f32(FReg(0)) as f64,
            },
            _ => 0.0,
        },
        ret_i: match compiled.ret {
            RetSlot::I0 => cpu.ireg(IReg(0)),
            _ => 0,
        },
        vectors: addrs.iter().map(|a| load(&mem, *a, n, prec)).collect(),
        cycles: stats.cycles,
        stats,
    })
}

fn store(mem: &mut Memory, addr: u64, data: &[f64], prec: Prec) {
    match prec {
        Prec::D => mem.store_f64_slice(addr, data).unwrap(),
        Prec::S => {
            let f: Vec<f32> = data.iter().map(|&v| v as f32).collect();
            mem.store_f32_slice(addr, &f).unwrap();
        }
    }
}

fn load(mem: &Memory, addr: u64, n: usize, prec: Prec) -> Vec<f64> {
    match prec {
        Prec::D => mem.load_f64_slice(addr, n).unwrap(),
        Prec::S => mem
            .load_f32_slice(addr, n)
            .unwrap()
            .into_iter()
            .map(|v| v as f64)
            .collect(),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_outputs(
    got: &Result<Outputs, RunFailure>,
    want: &Result<Outputs, RunFailure>,
    what: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.stats, w.stats, "{what}: RunStats");
            assert_eq!(g.ret_f.to_bits(), w.ret_f.to_bits(), "{what}: ret_f");
            assert_eq!(g.ret_i, w.ret_i, "{what}: ret_i");
            assert_eq!(bits(&g.x), bits(&w.x), "{what}: x");
            assert_eq!(bits(&g.y), bits(&w.y), "{what}: y");
        }
        (Err(g), Err(w)) => assert_eq!(g.0, w.0, "{what}: failure"),
        _ => panic!(
            "{what}: pooled {:?} vs fresh {:?}",
            got.as_ref().map(|o| o.stats.cycles).map_err(|e| &e.0),
            want.as_ref().map(|o| o.stats.cycles).map_err(|e| &e.0)
        ),
    }
}

fn assert_same_generic(
    got: &Result<GenericOutputs, String>,
    want: &Result<GenericOutputs, String>,
    what: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.stats, w.stats, "{what}: RunStats");
            assert_eq!(g.cycles, w.cycles, "{what}: cycles");
            assert_eq!(g.ret_f.to_bits(), w.ret_f.to_bits(), "{what}: ret_f");
            assert_eq!(g.ret_i, w.ret_i, "{what}: ret_i");
            assert_eq!(g.vectors.len(), w.vectors.len(), "{what}: vectors");
            for (gv, wv) in g.vectors.iter().zip(&w.vectors) {
                assert_eq!(bits(gv), bits(wv), "{what}: vector");
            }
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{what}: failure"),
        _ => panic!("{what}: pooled and fresh runs disagree on success"),
    }
}

/// The order runs follow within a group: the same machine twice (a reset),
/// then a switch; out of cache to in L2 and back; memory images that grow
/// (6000 elements out of cache) and shrink (37 and 1024 in L2).
const PHASES: [(usize, Context, usize); 4] = [
    (0, Context::OutOfCache, 6000),
    (0, Context::InL2, 1024),
    (1, Context::InL2, 37),
    (1, Context::OutOfCache, 1024),
];

fn machines() -> [MachineConfig; 2] {
    [p4e(), opteron()]
}

/// FKO's defaults plus a variant with non-temporal writes, no SIMD and a
/// different unroll, so write-combining and scalar cleanup paths run too.
fn variants(src: &str, mach: &MachineConfig) -> Vec<CompiledKernel> {
    let sess = CompileSession::from_source(src, mach).unwrap();
    let defaults = TransformParams::defaults(sess.report(), mach);
    let mut other = defaults.clone();
    other.wnt = true;
    other.simd = false;
    other.unroll = 3;
    [defaults, other]
        .iter()
        .filter_map(|p| sess.compile(p, CompileOpts::default()).ok())
        .collect()
}

/// A kernel that scribbles over its operands, the memory slack and the
/// caches, then faults: a candidate that crashed mid-run.
fn faulting(template: &CompiledKernel) -> CompiledKernel {
    let mut a = Asm::new();
    a.push(Inst::FLdImm(FReg(1), 123.5, Prec::D));
    for r in 0..6 {
        a.push(Inst::IMovImm(
            IReg(r),
            ifko_xsim::mem::DEFAULT_BASE as i64 + 4096 * r as i64,
        ));
        a.push(Inst::FSt(Addr::base(IReg(r)), FReg(1), Prec::D));
        a.push(Inst::FLd(FReg(2), Addr::base_disp(IReg(r), 64), Prec::D));
    }
    // Deep in the slack of a 1 MiB image.
    a.push(Inst::IMovImm(
        IReg(6),
        ifko_xsim::mem::DEFAULT_BASE as i64 + 1_000_000,
    ));
    a.push(Inst::FSt(Addr::base(IReg(6)), FReg(1), Prec::D));
    a.push(Inst::IMovImm(IReg(6), 8));
    a.push(Inst::FLd(FReg(0), Addr::base(IReg(6)), Prec::D));
    a.push(Inst::Halt);
    CompiledKernel {
        program: a.finish(),
        ..template.clone()
    }
}

/// Leave this thread's pooled simulator stopped by the instruction limit,
/// with the limit lowered, registers dirty and caches warm.
fn stop_at_inst_limit(machine: &MachineConfig) {
    let mut a = Asm::new();
    a.push(Inst::IMovImm(IReg(0), ifko_xsim::mem::DEFAULT_BASE as i64));
    let top = a.here();
    a.push(Inst::FLd(FReg(3), Addr::base(IReg(0)), Prec::D));
    a.push(Inst::FAdd(
        FReg(4),
        ifko_xsim::RegOrMem::Reg(FReg(3)),
        Prec::D,
    ));
    a.push(Inst::IAddImm(IReg(0), 64));
    a.push(Inst::Jmp(top));
    let prog = a.finish();
    let err = with_simulator(machine, 1 << 20, |cpu, mem| {
        cpu.set_inst_limit(2000);
        cpu.set_ireg(IReg(5), 77);
        cpu.run(&prog, mem)
    });
    assert_eq!(err, Err(RunError::InstLimit { limit: 2000 }));
}

/// `kernels/*.hil`, compiled for each machine.
fn hil_files(machs: &[MachineConfig; 2]) -> Vec<(String, [CompiledKernel; 2])> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "hil"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no kernels/*.hil");
    paths
        .iter()
        .map(|p| {
            let src = std::fs::read_to_string(p).unwrap();
            let c = |m: &MachineConfig| ifko_fko::compile_defaults(&src, m).unwrap();
            (p.display().to_string(), [c(&machs[0]), c(&machs[1])])
        })
        .collect()
}

#[test]
fn pooled_runs_equal_fresh_simulators_bit_for_bit() {
    let machs = machines();
    let hils = hil_files(&machs);
    let mut checked = 0usize;
    for (ki, kernel) in ALL_KERNELS.iter().enumerate() {
        let src = hil_source(kernel.op, kernel.prec);
        let compiled: Vec<Vec<CompiledKernel>> = machs.iter().map(|m| variants(&src, m)).collect();
        for (v, pair) in compiled[0].iter().zip(&compiled[1]).enumerate() {
            for (step, &(mi, context, n)) in PHASES.iter().enumerate() {
                let machine = &machs[mi];
                let ck = [pair.0, pair.1][mi];
                let w = Workload::generate(n, (ki * 31 + step) as u64);
                let args = KernelArgs {
                    kernel: *kernel,
                    workload: &w,
                    context,
                };
                let what = format!(
                    "{} variant {v} on {} {} n={n}",
                    kernel.name(),
                    machine.name,
                    context.label()
                );
                assert_same_outputs(
                    &run_once(ck, &args, machine),
                    &fresh_run_once(ck, &args, machine),
                    &what,
                );
                checked += 1;
            }
        }

        // A crashed candidate, then a run on the same machine and one on
        // the other: neither may see its registers, caches or writes.
        let mi = ki % 2;
        let w = Workload::generate(1024, ki as u64);
        let crash = faulting(&compiled[mi][0]);
        let args = KernelArgs {
            kernel: *kernel,
            workload: &w,
            context: Context::InL2,
        };
        let crashed = run_once(&crash, &args, &machs[mi]);
        assert!(
            crashed
                .as_ref()
                .is_err_and(|e| e.0.contains("memory fault")),
            "{}: the scribbler must fault",
            kernel.name()
        );
        assert_same_outputs(
            &crashed,
            &fresh_run_once(&crash, &args, &machs[mi]),
            "fault",
        );
        for mj in [mi, 1 - mi] {
            let args = KernelArgs {
                kernel: *kernel,
                workload: &w,
                context: if mj == mi {
                    Context::OutOfCache
                } else {
                    Context::InL2
                },
            };
            let ck = &compiled[mj][0];
            assert_same_outputs(
                &run_once(ck, &args, &machs[mj]),
                &fresh_run_once(ck, &args, &machs[mj]),
                &format!("{} after a memory fault", kernel.name()),
            );
            checked += 1;
        }

        // Stopped by a lowered instruction limit: the next run gets the
        // default limit back (a paper-size run needs far more than 2000).
        stop_at_inst_limit(&machs[1 - mi]);
        let big = Workload::generate(8000, ki as u64 + 99);
        let args = KernelArgs {
            kernel: *kernel,
            workload: &big,
            context: Context::OutOfCache,
        };
        let ck = &compiled[1 - mi][0];
        let after = run_once(ck, &args, &machs[1 - mi]);
        assert!(after.as_ref().is_ok_and(|o| o.stats.insts > 2000));
        assert_same_outputs(
            &after,
            &fresh_run_once(ck, &args, &machs[1 - mi]),
            &format!("{} after the instruction limit", kernel.name()),
        );
        checked += 1;

        // Interleave the generic path: one HIL file per BLAS kernel.
        let (path, hc) = &hils[ki % hils.len()];
        for (step, &(mi, context, n)) in PHASES.iter().enumerate() {
            let w = GenericWorkload::for_kernel(&hc[mi], n, (ki * 7 + step) as u64);
            assert_same_generic(
                &run_generic(&hc[mi], &w, context, &machs[mi]),
                &fresh_run_generic(&hc[mi], &w, context, &machs[mi]),
                &format!("{path} on {} {} n={n}", machs[mi].name, context.label()),
            );
            checked += 1;
        }
    }
    // Both variants of every kernel, its fault and limit runs, its HIL file.
    assert_eq!(checked, 14 * (2 * 4 + 3 + 4), "runs checked");
}

#[test]
fn recycled_memory_never_shows_an_earlier_runs_writes() {
    let machine = p4e();
    let slack = ifko_xsim::mem::DEFAULT_BASE + 1_000_000;
    with_simulator(&machine, 1 << 20, |_, mem| {
        mem.write_f64(slack, 9.0).unwrap();
        mem.write_f64(ifko_xsim::mem::DEFAULT_BASE, 9.0).unwrap();
    });
    // Smaller image: the old slack write is now out of range.
    with_simulator(&machine, 1 << 16, |_, mem| {
        assert_eq!(mem.capacity(), 1 << 16);
        assert!(mem.read_f64(slack).is_err());
        assert_eq!(mem.read_f64(ifko_xsim::mem::DEFAULT_BASE), Ok(0.0));
    });
    // Back to the larger image: in range again, and zero.
    with_simulator(&opteron(), 1 << 20, |cpu, mem| {
        assert_eq!(cpu.config().name, "Opteron");
        assert_eq!(mem.read_f64(slack), Ok(0.0));
    });
}
