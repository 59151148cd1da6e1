//! Differential fault injection: drive every fault class — out-of-bounds
//! loads and stores, integer division by zero, deep-recursion stack
//! overflow, step-limit exhaustion at *every* block boundary, and a
//! handcrafted return past the host entry frame — through both the fast
//! block-dispatch [`Vm`] and the per-step [`ReferenceVm`], and assert
//! they refuse with the *same* typed [`VmError`] while leaving
//! bit-identical partial profiles and step counts at the fault point.
//!
//! The fast engine attributes whole blocks at once and folds frames on
//! the way out; the reference engine scatters per instruction. These are
//! exactly the places mid-block faults could make the engines drift, so
//! each case here pins the equality the crate docs promise: "the engines
//! can only ever disagree about accounting" — and they may not.

use mira_vcc::{compile_source, Options};
use mira_vm::reference::ReferenceVm;
use mira_vm::{HostVal, Vm, VmError, VmOptions};

/// Run both engines on the same object/call and assert identical outcome
/// (value or typed error), step count, and profile. Returns the shared
/// outcome for the caller to assert on.
fn differential(
    obj: &mira_vobj::Object,
    options: VmOptions,
    func: &str,
    args_f: &dyn Fn(&mut Vm) -> Vec<HostVal>,
    args_r: &dyn Fn(&mut ReferenceVm) -> Vec<HostVal>,
) -> Result<(), VmError> {
    let mut fast = Vm::load(obj, options).expect("fast load");
    let mut seed = ReferenceVm::load(obj, options).expect("reference load");
    let fa = args_f(&mut fast);
    let ra = args_r(&mut seed);
    let fr = fast.call(func, &fa).map(|_| ());
    let rr = seed.call(func, &ra).map(|_| ());
    assert_eq!(fr, rr, "engines disagree on outcome for `{func}`");
    assert_eq!(
        fast.steps(),
        seed.steps(),
        "engines disagree on steps at the fault point for `{func}`"
    );
    assert_eq!(
        fast.profile(),
        seed.profile(),
        "partial profiles diverge at the fault point for `{func}`"
    );
    fr
}

fn no_args(_: &mut Vm) -> Vec<HostVal> {
    vec![]
}
fn no_args_r(_: &mut ReferenceVm) -> Vec<HostVal> {
    vec![]
}

/// Small options so OOB addresses are cheap to reach. (`Machine::bump`
/// keeps 1 MiB of headroom, so this leaves ~3 MiB of usable heap.)
fn small() -> VmOptions {
    VmOptions {
        mem_size: 4 << 20,
        ..VmOptions::default()
    }
}

#[test]
fn oob_load_faults_identically() {
    let src = r#"
double peek(double* x, int i) {
    return x[i];
}
"#;
    let obj = compile_source(src, &Options::default()).unwrap();
    // a one-element array, indexed far past the 1 MiB memory
    let r = differential(
        &obj,
        small(),
        "peek",
        &|vm| {
            let a = vm.alloc_f64(&[1.0]);
            vec![HostVal::Int(a as i64), HostVal::Int(100_000_000)]
        },
        &|vm| {
            let a = vm.alloc_f64(&[1.0]);
            vec![HostVal::Int(a as i64), HostVal::Int(100_000_000)]
        },
    );
    assert!(matches!(r, Err(VmError::Fault { .. })), "{r:?}");
}

#[test]
fn oob_store_faults_identically() {
    let src = r#"
double poke(double* x, int i) {
    x[i] = 3.5;
    return x[0];
}
"#;
    let obj = compile_source(src, &Options::default()).unwrap();
    let r = differential(
        &obj,
        small(),
        "poke",
        &|vm| {
            let a = vm.alloc_f64(&[0.0]);
            vec![HostVal::Int(a as i64), HostVal::Int(50_000_000)]
        },
        &|vm| {
            let a = vm.alloc_f64(&[0.0]);
            vec![HostVal::Int(a as i64), HostVal::Int(50_000_000)]
        },
    );
    assert!(matches!(r, Err(VmError::Fault { .. })), "{r:?}");
}

#[test]
fn div_by_zero_faults_identically() {
    let src = r#"
int quot(int a, int b) {
    return a / b;
}
"#;
    let obj = compile_source(src, &Options::default()).unwrap();
    let r = differential(
        &obj,
        small(),
        "quot",
        &|_| vec![HostVal::Int(7), HostVal::Int(0)],
        &|_| vec![HostVal::Int(7), HostVal::Int(0)],
    );
    assert_eq!(r, Err(VmError::DivByZero));
    // modulo shares the idiv path
    let src = "int rem(int a, int b) { return a % b; }";
    let obj = compile_source(src, &Options::default()).unwrap();
    let r = differential(
        &obj,
        small(),
        "rem",
        &|_| vec![HostVal::Int(7), HostVal::Int(0)],
        &|_| vec![HostVal::Int(7), HostVal::Int(0)],
    );
    assert_eq!(r, Err(VmError::DivByZero));
}

#[test]
fn runaway_recursion_overflows_identically() {
    let src = r#"
int down(int n) {
    return down(n + 1);
}
"#;
    let obj = compile_source(src, &Options::default()).unwrap();
    let r = differential(&obj, small(), "down", &|_| vec![HostVal::Int(0)], &|_| {
        vec![HostVal::Int(0)]
    });
    assert_eq!(r, Err(VmError::StackOverflow));
}

/// The core sweep: a program exercising loops, calls, and FP work is run
/// to completion to learn its exact step count, then re-run under *every*
/// `max_steps` prefix. At each prefix both engines must agree on outcome
/// (StepLimit until the final step, then success), steps retired, and
/// the partial profile — this walks the fault point across every block
/// boundary *and* every mid-block position of the fast engine.
#[test]
fn step_limit_sweep_every_boundary() {
    let src = r#"
double kern(int n, double* x) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += x[i] * x[i];
    }
    return s;
}

double drive(int n, double* x) {
    double t = 0.0;
    for (int r = 0; r < 3; r++) {
        t += kern(n, x);
    }
    return t;
}
"#;
    let obj = compile_source(src, &Options::default()).unwrap();
    let alloc = |vm: &mut Vm| {
        let a = vm.alloc_f64(&[1.0, 2.0, 3.0, 4.0]);
        vec![HostVal::Int(4), HostVal::Int(a as i64)]
    };
    let alloc_r = |vm: &mut ReferenceVm| {
        let a = vm.alloc_f64(&[1.0, 2.0, 3.0, 4.0]);
        vec![HostVal::Int(4), HostVal::Int(a as i64)]
    };

    // full run to learn the step count
    let mut full = Vm::load(&obj, small()).unwrap();
    let args = alloc(&mut full);
    full.call("drive", &args).unwrap();
    let total = full.steps();
    assert!(total > 50, "program too small to sweep meaningfully");

    for limit in 0..=total {
        let opt = VmOptions {
            max_steps: limit,
            ..small()
        };
        let r = differential(&obj, opt, "drive", &alloc, &alloc_r);
        if limit < total {
            assert_eq!(r, Err(VmError::StepLimit), "at limit {limit}");
        } else {
            assert_eq!(r, Ok(()), "at limit {limit}");
        }
    }
}

/// Step-limit sweep across a faulting run: the step budget and the
/// memory fault race; whichever fires first must be the same error in
/// both engines, with the same partial profile.
#[test]
fn step_limit_vs_fault_race_identical() {
    let src = r#"
double walk(double* x, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += x[i * 4096];
    }
    return s;
}
"#;
    let obj = compile_source(src, &Options::default()).unwrap();
    let alloc = |vm: &mut Vm| {
        let a = vm.alloc_f64(&[1.0]);
        vec![HostVal::Int(a as i64), HostVal::Int(1_000_000)]
    };
    let alloc_r = |vm: &mut ReferenceVm| {
        let a = vm.alloc_f64(&[1.0]);
        vec![HostVal::Int(a as i64), HostVal::Int(1_000_000)]
    };

    // unlimited: the walk faults once i*4096*8 leaves the 1 MiB image
    let r = differential(&obj, small(), "walk", &alloc, &alloc_r);
    assert!(matches!(r, Err(VmError::Fault { .. })), "{r:?}");
    let mut probe = Vm::load(&obj, small()).unwrap();
    let args = alloc(&mut probe);
    let _ = probe.call("walk", &args);
    let fault_steps = probe.steps();

    // sweep limits across the whole faulting run, including the window
    // right around the fault itself
    for limit in (0..=fault_steps)
        .step_by(7)
        .chain(fault_steps - 3..=fault_steps)
    {
        let opt = VmOptions {
            max_steps: limit,
            ..small()
        };
        let r = differential(&obj, opt, "walk", &alloc, &alloc_r);
        assert!(r.is_err(), "fault or step limit expected at limit {limit}");
    }
}

/// A handcrafted object whose function pushes a bogus return address and
/// `ret`s straight past the host entry frame: both engines must refuse
/// with the typed [`VmError::FrameUnderflow`] instead of panicking.
#[test]
fn ret_past_entry_frame_refuses_identically() {
    use mira_isa::{Inst, Reg};
    use mira_vobj::line::LineTableBuilder;
    use mira_vobj::{Object, Symbol};

    let insts = [
        Inst::MovRI(Reg(0), 0x40), // bogus, non-sentinel return address
        Inst::Push(Reg(0)),
        Inst::Ret,
    ];
    let mut text = Vec::new();
    let mut lb = LineTableBuilder::new();
    for inst in &insts {
        lb.add_row(text.len() as u32, 1);
        inst.encode(&mut text);
    }
    let obj = Object {
        symbols: vec![Symbol::Func {
            name: "evil".to_string(),
            addr: 0,
            size: text.len() as u32,
        }],
        text,
        line_program: lb.finish(),
        loops: vec![],
    };

    let r = differential(&obj, small(), "evil", &no_args, &no_args_r);
    assert_eq!(r, Err(VmError::FrameUnderflow));
}

/// Same ret-underflow shape, but with the sentinel *duplicated*: pushing
/// the host sentinel and returning must still exit cleanly (the popped
/// address decides, not the frame depth), identically in both engines.
#[test]
fn pushed_sentinel_ret_exits_cleanly() {
    use mira_isa::{Inst, Reg};
    use mira_vobj::line::LineTableBuilder;
    use mira_vobj::{Object, Symbol};

    let insts = [
        Inst::MovRI(Reg(0), u64::MAX as i64), // the host sentinel
        Inst::Push(Reg(0)),
        Inst::MovRI(Reg(0), 99),
        Inst::Ret,
    ];
    let mut text = Vec::new();
    let mut lb = LineTableBuilder::new();
    for inst in &insts {
        lb.add_row(text.len() as u32, 1);
        inst.encode(&mut text);
    }
    let obj = Object {
        symbols: vec![Symbol::Func {
            name: "twin".to_string(),
            addr: 0,
            size: text.len() as u32,
        }],
        text,
        line_program: lb.finish(),
        loops: vec![],
    };

    let r = differential(&obj, small(), "twin", &no_args, &no_args_r);
    assert_eq!(r, Ok(()));
    let mut vm = Vm::load(&obj, small()).unwrap();
    vm.call("twin", &[]).unwrap();
    assert_eq!(vm.int_return(), 99);
}
