//! Independent correctness checks: every winner is re-run on the
//! simulator with fresh data and compared with a reference that is not
//! the compiler under test.

use ifko::generic::{run_generic, GenericWorkload};
use ifko::runner::{run_once, Context, KernelArgs};
use ifko_blas::{Kernel, Workload};
use ifko_fko::CompiledKernel;
use ifko_xsim::MachineConfig;

/// How a winner's outputs are checked.
#[derive(Clone, Copy, Debug)]
pub enum Reference {
    /// The kernel follows a BLAS routine's calling convention: compare
    /// with `ifko_blas::reference` through `tester::verify`.
    Blas(Kernel),
    /// `kernels/waxpby.hil`: `w[i] = alpha * x[i] + y[i]`.
    Waxpby,
}

/// Salt mixed into the run seed for checking data, so a winner is
/// checked on other inputs than those it was tuned on.
const CHECK_SALT: u64 = 0x00c4_ec4e;

/// Checking inputs of size `n` for a run seeded with `seed`.
pub fn data(n: usize, seed: u64) -> Workload {
    Workload::generate(n, seed ^ CHECK_SALT)
}

/// Run `compiled` on `data` and compare its outputs with the reference.
pub fn winner(
    compiled: &CompiledKernel,
    reference: Reference,
    data: &Workload,
    context: Context,
    machine: &MachineConfig,
) -> Result<(), String> {
    match reference {
        Reference::Blas(kernel) => {
            let args = KernelArgs {
                kernel,
                workload: data,
                context,
            };
            let out = run_once(compiled, &args, machine).map_err(|e| e.to_string())?;
            ifko::tester::verify(kernel, data, &out).map_err(|e| e.to_string())
        }
        Reference::Waxpby => {
            let n = data.n;
            let w = GenericWorkload {
                n,
                vectors: vec![data.x.clone(), data.y.clone(), vec![0.0; n]],
                scalars: vec![data.alpha],
            };
            let out = run_generic(compiled, &w, context, machine)?;
            let (x, y, alpha) = match (&w.vectors[..], &w.scalars[..]) {
                ([x, y, _], [alpha]) => (x, y, *alpha),
                _ => return Err("waxpby: unexpected argument convention".into()),
            };
            let got = out.vectors.get(2).ok_or("waxpby: no output vector")?;
            for i in 0..n {
                let want = alpha * x[i] + y[i];
                if (got[i] - want).abs() > 1e-12 * want.abs().max(1.0) {
                    return Err(format!("waxpby: w[{i}] = {} but reference {want}", got[i]));
                }
            }
            Ok(())
        }
    }
}
