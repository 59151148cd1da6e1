//! The paper's Listings 1-6 as executable tests, via the full pipeline.

use mira_arch::CategoryCounts;
use mira_core::{analyze_source, MiraOptions};
use mira_sym::bindings;
use mira_vcc::Options;
use mira_vm::Vm;

/// Analyze and run `f()` of `src` under `compiler`: its return value,
/// the model's counts and the VM's inclusive counts.
fn count_via(src: &str, compiler: Options) -> (i64, CategoryCounts, CategoryCounts) {
    let options = MiraOptions {
        compiler,
        ..MiraOptions::default()
    };
    let analysis = analyze_source(src, &options).unwrap();
    let mut vm = Vm::new(&analysis.object).unwrap();
    vm.call("f", &[]).unwrap();
    let report = analysis.report("f", &bindings(&[])).unwrap();
    let dynamic = vm.profile().function("f").unwrap().inclusive.clone();
    (vm.int_return(), report.counts, dynamic)
}

/// `f()` returns `result`, and the static counts equal the VM's in every
/// category under the default, vectorized and spill-everything compilers.
fn assert_exact(src: &str, result: i64) {
    for compiler in [
        Options::default(),
        Options::vectorized(),
        Options::spill_everything(),
    ] {
        let (got, statics, dynamic) = count_via(src, compiler);
        assert_eq!(got, result, "{compiler:?}");
        assert_eq!(statics, dynamic, "{compiler:?}");
    }
}

#[test]
fn listing1_basic_loop() {
    let src = "int f() {\n    int acc = 0;\n    for (int i = 0; i < 10; i++) {\n        acc = acc + 1;\n    }\n    return acc;\n}";
    let (result, statics, dynamic) = count_via(src, Options::default());
    assert_eq!(result, 10);
    assert_eq!(statics.total(), dynamic.total());
}

#[test]
fn listing2_nested_dependent() {
    let src = "int f() {\n    int acc = 0;\n    for (int i = 1; i <= 4; i++) {\n        for (int j = i + 1; j <= 6; j++) {\n            acc = acc + 1;\n        }\n    }\n    return acc;\n}";
    let (result, statics, dynamic) = count_via(src, Options::default());
    assert_eq!(result, 14);
    assert_eq!(statics.total(), dynamic.total());
}

#[test]
fn listing4_branch_in_loop() {
    let src = "int f() {\n    int acc = 0;\n    for (int i = 1; i <= 4; i++) {\n        for (int j = i + 1; j <= 6; j++) {\n            if (j > 4) {\n                acc = acc + 1;\n            }\n        }\n    }\n    return acc;\n}";
    assert_exact(src, 8);
}

#[test]
fn listing5_modulo_branch() {
    let src = "int f() {\n    int acc = 0;\n    for (int i = 1; i <= 4; i++) {\n        for (int j = i + 1; j <= 6; j++) {\n            if (j % 4 != 0) {\n                acc = acc + 1;\n            }\n        }\n    }\n    return acc;\n}";
    assert_exact(src, 11);
}

#[test]
fn listing6_annotations() {
    let src = r#"
int g(int i) {
    return i * 3;
}
int f() {
    int acc = 0;
    for (int i = 1; i <= 4; i++) {
#pragma @Annotation {lp_init: x, lp_cond: y}
        for (int j = g(i); j <= g(i + 6); j++) {
            acc = acc + 1;
        }
    }
    return acc;
}
"#;
    let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
    // the annotated loop's bounds become model parameters x and y
    let params = analysis.parameters();
    assert!(params.contains(&"x".to_string()), "{params:?}");
    assert!(params.contains(&"y".to_string()), "{params:?}");
    let report = analysis
        .report("f", &bindings(&[("x", 3), ("y", 21)]))
        .unwrap();
    assert!(report.total() > 0);
}

#[test]
fn skip_annotation() {
    let src = r#"
int f() {
    int acc = 0;
#pragma @Annotation {skip: yes}
    for (int i = 0; i < 1000; i++) {
        acc = acc + 1;
    }
    return acc;
}
"#;
    let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
    let report = analysis.report("f", &bindings(&[])).unwrap();
    let mut vm = Vm::new(&analysis.object).unwrap();
    vm.call("f", &[]).unwrap();
    assert_eq!(vm.int_return(), 1000); // still executes...
    assert!(report.total() < 100); // ...but the model excludes it
}
