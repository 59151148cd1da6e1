//! The one way every harness runs a benchmark kernel dynamically.
//!
//! The VM is this repo's stand-in for the paper's instrumented run
//! (TAU/PAPI, §IV). A [`Shape`] fixes, per kernel signature, everything a
//! harness must know to run it: the VM memory size, the allocation order
//! and fill values of its inputs, the call arguments, the unmeasured
//! setup (miniFE's `assemble`, then a counter reset) and the bindings the
//! static side is evaluated at. [`Shape::load`] hands back a [`Run`]
//! ready for the measured call, so each caller times or profiles exactly
//! the part it measures. The same setup drives both engines through
//! [`Engine`]: the block-dispatch [`Vm`] and the per-step [`ReferenceVm`].

use crate::minife::{solve_mem_size, MiniFe, SolveBuffers};
use mira_sym::{bindings, Bindings};
use mira_vm::reference::ReferenceVm;
use mira_vm::{HostVal, Vm, VmError, VmOptions};
use mira_vobj::Object;

/// What the runner, [`SolveBuffers`] and the engine-equivalence tests
/// use of a VM engine. Both engines implement it by forwarding to their
/// inherent methods of the same names.
pub trait Engine: Sized {
    fn load(obj: &Object, options: VmOptions) -> Result<Self, VmError>;
    fn alloc_f64(&mut self, data: &[f64]) -> u64;
    fn alloc_i64(&mut self, data: &[i64]) -> u64;
    fn alloc_zeroed_f64(&mut self, n: usize) -> u64;
    fn read_f64(&self, addr: u64, n: usize) -> Vec<f64>;
    fn read_i64(&self, addr: u64, n: usize) -> Vec<i64>;
    fn call(&mut self, func: &str, args: &[HostVal]) -> Result<HostVal, VmError>;
    fn fp_return(&self) -> f64;
    fn int_return(&self) -> i64;
    fn reset_counters(&mut self);
}

macro_rules! forward_engine {
    ($($engine:ty),*) => {$(
        impl Engine for $engine {
            fn load(obj: &Object, options: VmOptions) -> Result<Self, VmError> {
                <$engine>::load(obj, options)
            }
            fn alloc_f64(&mut self, data: &[f64]) -> u64 {
                <$engine>::alloc_f64(self, data)
            }
            fn alloc_i64(&mut self, data: &[i64]) -> u64 {
                <$engine>::alloc_i64(self, data)
            }
            fn alloc_zeroed_f64(&mut self, n: usize) -> u64 {
                <$engine>::alloc_zeroed_f64(self, n)
            }
            fn read_f64(&self, addr: u64, n: usize) -> Vec<f64> {
                <$engine>::read_f64(self, addr, n)
            }
            fn read_i64(&self, addr: u64, n: usize) -> Vec<i64> {
                <$engine>::read_i64(self, addr, n)
            }
            fn call(&mut self, func: &str, args: &[HostVal]) -> Result<HostVal, VmError> {
                <$engine>::call(self, func, args)
            }
            fn fp_return(&self) -> f64 {
                <$engine>::fp_return(self)
            }
            fn int_return(&self) -> i64 {
                <$engine>::int_return(self)
            }
            fn reset_counters(&mut self) {
                <$engine>::reset_counters(self)
            }
        }
    )*};
}

forward_engine!(Vm, ReferenceVm);

/// A kernel signature at one problem size. Each variant names the
/// kernels that share it; the function to call is the caller's choice.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// `f(n, reps, a, b, c, 3.0)` over three `n`-vectors filled 1.0, 2.0
    /// and 0.0: `stream_bench`, `stream_kernels`, `triad`,
    /// `triad_blocked`.
    Stream { n: i64, reps: i64 },
    /// `f(n, reps, a, b, c)` over three `n × n` matrices filled 0.5,
    /// 0.25 and 0.0: `dgemm_bench`, `dgemm`, `dgemm_tiled`.
    Square { n: i64, reps: i64 },
    /// miniFE on an `nx × ny × nz` grid: the [`SolveBuffers`] are
    /// allocated, `assemble` runs (its nonzero count must equal
    /// [`MiniFe::nnz_formula`]) and the counters are reset, so the
    /// measured `cg_solve(n, …, max_iter, tol)` is counted alone, the way
    /// the paper scopes TAU to the solve.
    MiniFe {
        nx: i64,
        ny: i64,
        nz: i64,
        max_iter: i64,
        tol: f64,
    },
    /// `trisolve(n, l, b, x)` with the `n × n` matrix `l` filled 1.0,
    /// then `b` filled 1.0 and `x` 0.0.
    Trisolve { n: i64 },
    /// `stencil_sweep(n, steps, u, v)` with `u` filled 1.0 and `v` 0.0.
    StencilSweep { n: i64, steps: i64 },
}

impl Shape {
    /// VM memory: three times the largest input plus 64 MiB for the stack
    /// and slack. The stack sits at the top of memory and the cache
    /// simulator counts by address, so each shape keeps this size.
    fn mem_size(self) -> usize {
        let vectors = |len: i64| 3 * len as usize * 8 + (64 << 20);
        match self {
            Shape::Stream { n, .. } | Shape::StencilSweep { n, .. } => vectors(n),
            Shape::Square { n, .. } | Shape::Trisolve { n } => vectors(n * n),
            Shape::MiniFe { nx, ny, nz, .. } => solve_mem_size((nx * ny * nz) as usize),
        }
    }

    /// Load `obj` on a fresh engine with `options` (its `mem_size` is the
    /// shape's), allocate and fill the inputs and do the unmeasured
    /// setup. Only the measured call is left.
    pub fn load<E: Engine>(self, obj: &Object, options: VmOptions) -> Run<E> {
        let options = VmOptions {
            mem_size: self.mem_size(),
            ..options
        };
        let mut vm = E::load(obj, options).expect("kernel object loads");
        let args = match self {
            Shape::Stream { n, reps } => {
                let [a, b, c] = [1.0, 2.0, 0.0].map(|v| fill(&mut vm, n, v));
                vec![
                    HostVal::Int(n),
                    HostVal::Int(reps),
                    a,
                    b,
                    c,
                    HostVal::Fp(3.0),
                ]
            }
            Shape::Square { n, reps } => {
                let [a, b, c] = [0.5, 0.25, 0.0].map(|v| fill(&mut vm, n * n, v));
                vec![HostVal::Int(n), HostVal::Int(reps), a, b, c]
            }
            Shape::MiniFe {
                nx,
                ny,
                nz,
                max_iter,
                tol,
            } => {
                let n = (nx * ny * nz) as usize;
                let bufs = SolveBuffers::alloc(&mut vm, n);
                vm.call("assemble", &bufs.assemble_args(nx, ny, nz))
                    .expect("assemble runs");
                assert_eq!(
                    vm.int_return(),
                    MiniFe::nnz_formula(nx, ny, nz),
                    "assembly nnz formula"
                );
                vm.reset_counters();
                bufs.solve_args(n as i64, max_iter, tol)
            }
            Shape::Trisolve { n } => {
                let l = fill(&mut vm, n * n, 1.0);
                let [b, x] = [1.0, 0.0].map(|v| fill(&mut vm, n, v));
                vec![HostVal::Int(n), l, b, x]
            }
            Shape::StencilSweep { n, steps } => {
                let [u, v] = [1.0, 0.0].map(|f| fill(&mut vm, n, f));
                vec![HostVal::Int(n), HostVal::Int(steps), u, v]
            }
        };
        Run {
            vm,
            shape: self,
            args,
        }
    }

    /// [`Shape::load`], then the measured call of `func`.
    pub fn run<E: Engine>(self, obj: &Object, options: VmOptions, func: &str) -> Run<E> {
        let mut run = self.load(obj, options);
        run.call(func);
        run
    }
}

/// Allocate `len` doubles equal to `v`; the address as an argument.
fn fill<E: Engine>(vm: &mut E, len: i64, v: f64) -> HostVal {
    HostVal::Int(vm.alloc_f64(&vec![v; len as usize]) as i64)
}

/// A kernel loaded and set up by [`Shape::load`]: from here on the
/// engine's counters see only the measured call.
pub struct Run<E> {
    pub vm: E,
    shape: Shape,
    args: Vec<HostVal>,
}

impl<E: Engine> Run<E> {
    /// The measured call: `func` with the shape's arguments.
    pub fn call(&mut self, func: &str) {
        if let Err(e) = self.vm.call(func, &self.args) {
            panic!("{func} fails: {e}");
        }
    }

    /// The bindings the static side is evaluated at. A miniFE solve binds
    /// `cg_iters` to the iteration count its measured call returned,
    /// which must have converged by tolerance, so read these after
    /// [`Run::call`].
    pub fn bindings(&self) -> Bindings {
        match self.shape {
            Shape::Stream { n, reps } | Shape::Square { n, reps } => {
                bindings(&[("n", n as i128), ("reps", reps as i128)])
            }
            Shape::MiniFe {
                nx,
                ny,
                nz,
                max_iter,
                ..
            } => {
                let iterations = self.vm.int_return();
                assert!(iterations < max_iter, "cg_solve must converge by tolerance");
                bindings(&[
                    ("n", (nx * ny * nz) as i128),
                    ("nnz_row_milli", MiniFe::nnz_row_milli(nx, ny, nz) as i128),
                    ("cg_iters", iterations as i128),
                ])
            }
            Shape::Trisolve { n } => bindings(&[("n", n as i128)]),
            Shape::StencilSweep { n, steps } => {
                bindings(&[("n", n as i128), ("steps", steps as i128)])
            }
        }
    }
}
