//! Compilation is a pure function of (program, profile, configuration):
//! the same inputs give the same `Func`, down to vreg numbers and the order
//! of phis and phi inputs. And the batched SSA repair that every
//! replication (region formation, partial unrolling, superblock tail
//! duplication) runs produces exactly what the per-pair reference repair
//! does on the same inputs.
//!
//! Each workload is profiled under two input seeds, and compiled under the
//! four paper configurations plus `atomic+forced-mono`.

use std::collections::HashMap;

use hasp_ir::ssa_repair::with_per_pair_reference;
use hasp_ir::verify;
use hasp_opt::{compile_program, superblock, CompiledMethod, CompilerConfig};
use hasp_vm::bytecode::MethodId;
use hasp_vm::env::Env;
use hasp_vm::interp::Interp;
use hasp_vm::profile::Profile;
use hasp_workloads::{all_workloads, Workload};

const SEEDS: [u64; 2] = [1, 2];

fn configs() -> Vec<CompilerConfig> {
    let mut cs = CompilerConfig::paper_configs();
    cs.push(CompilerConfig::atomic_forced_mono());
    cs
}

fn profile(w: &Workload, seed: u64) -> Profile {
    let mut interp = Interp::new(&w.program).with_profiling();
    interp.env = Env::new(seed);
    interp.set_fuel(w.fuel);
    interp
        .run(&[])
        .unwrap_or_else(|e| panic!("{} seed {seed} failed to interpret: {e}", w.name));
    interp.profile
}

/// Asserts both compiles hold the same methods with identical IR.
fn assert_same(
    what: &str,
    a: &HashMap<MethodId, CompiledMethod>,
    b: &HashMap<MethodId, CompiledMethod>,
) {
    let mut ids: Vec<MethodId> = a.keys().copied().collect();
    ids.sort();
    let mut other: Vec<MethodId> = b.keys().copied().collect();
    other.sort();
    assert_eq!(ids, other, "{what}: compiled method sets differ");
    for m in ids {
        let (fa, fb) = (&a[&m].func, &b[&m].func);
        assert!(
            fa == fb,
            "{what} method {}: IR differs\n--- first\n{}\n--- second\n{}",
            m.0,
            fa.display(),
            fb.display()
        );
    }
}

/// Runs `check` on every (workload, seed, configuration) with its profile.
fn for_each_compile(check: impl Fn(&str, &Workload, &Profile, &CompilerConfig)) {
    for w in all_workloads() {
        for seed in SEEDS {
            let p = profile(&w, seed);
            for cfg in configs() {
                let what = format!("{}/{}/seed {seed}", w.name, cfg.name);
                check(&what, &w, &p, &cfg);
            }
        }
    }
}

#[test]
fn repeated_compiles_are_identical() {
    for_each_compile(|what, w, p, cfg| {
        let first = compile_program(&w.program, p, cfg);
        for _ in 0..2 {
            assert_same(what, &first, &compile_program(&w.program, p, cfg));
        }
    });
}

#[test]
fn batched_ssa_repair_matches_per_pair_reference() {
    for_each_compile(|what, w, p, cfg| {
        let batched = compile_program(&w.program, p, cfg);
        let reference = with_per_pair_reference(|| compile_program(&w.program, p, cfg));
        assert_same(what, &batched, &reference);
        // Superblock tail duplication, the third replicating pass, runs on
        // the baseline pipeline's output (as in `examples/addelement.rs`).
        if !cfg.atomic {
            let mut duplicated = 0;
            for (m, c) in &batched {
                let mut a = c.func.clone();
                duplicated += superblock::run(&mut a);
                let mut b = c.func.clone();
                with_per_pair_reference(|| superblock::run(&mut b));
                assert!(a == b, "{what} method {}: superblock IR differs", m.0);
                verify(&a).unwrap_or_else(|e| panic!("{what} method {}: {e}", m.0));
            }
            assert!(duplicated > 0, "{what}: no block was tail-duplicated");
        }
    });
}
