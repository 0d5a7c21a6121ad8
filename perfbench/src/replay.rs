//! The compile pipeline, built from public entry points.
//!
//! [`compile_product`] is what a request compiles with. Untraced, it calls
//! `compile_program` itself. Traced, it replays `compile_method`'s phase
//! order pass by pass so each phase gets its own span. [`guard`] proves,
//! for every method, that the replay lowers to exactly the uops
//! `compile_method` produces, so phase timings never describe a different
//! pipeline.

use std::collections::HashMap;

use hasp_core::form_atomic_regions;
use hasp_hw::{lower, CodeCache, CompiledCode};
use hasp_ir::{translate, verify};
use hasp_opt::{
    checkelim, compile_method, compile_program, constprop, dce, gvn, inline, safepoint, simplify,
    sle, unroll, CompiledMethod, CompilerConfig,
};
use hasp_vm::bytecode::MethodId;
use hasp_vm::class::Program;
use hasp_vm::profile::Profile;

use crate::trace::Tracer;

/// Counters the traced replay collects, summed over compiled methods.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCounts {
    /// IR changes made by the post-formation optimization rounds.
    pub round_changes: u64,
    /// IR size (static HIR ops) after the pipeline.
    pub ir_size: u64,
    /// Atomic regions in the IR right after formation.
    pub form_regions: u64,
    /// IR size right after formation.
    pub form_ir_size: u64,
    /// Static uops of the sealed product.
    pub static_uops: u64,
}

/// `compile_method`'s phase order (release build: the per-phase
/// `debug_assert!` verifies compile out), one span per phase.
pub fn compile_method_traced(
    program: &Program,
    profile: &Profile,
    method: MethodId,
    cfg: &CompilerConfig,
    tr: &mut Tracer,
    counts: &mut CompileCounts,
) -> CompiledMethod {
    let mut f = tr.time("ir.translate", || {
        translate(program, method, profile.method(method))
    });
    tr.time("opt.pre", || {
        gvn::run(&mut f);
        constprop::run(&mut f);
        dce::run(&mut f);
    });
    let m = program.method(method);
    let sites = if m.opaque {
        Vec::new()
    } else {
        tr.time("opt.inline", || {
            inline::run(&mut f, program, profile, &cfg.inline)
        })
    };
    let formation = if cfg.atomic && !m.opaque {
        let region_cfg = cfg.region_for(method);
        let res = tr.time("core.form", || {
            form_atomic_regions(&mut f, &sites, &region_cfg)
        });
        counts.form_regions += f.regions.len() as u64;
        counts.form_ir_size += f.size();
        if cfg.sle {
            tr.time("opt.sle", || sle::run(&mut f));
        }
        if cfg.safepoint_elision {
            tr.time("opt.safepoint", || safepoint::run(&mut f));
        }
        if cfg.partial_unroll {
            tr.time("opt.unroll", || unroll::run(&mut f, &region_cfg));
        }
        Some(res)
    } else {
        None
    };
    // The payoff rounds (and, when configured, post-dominance check
    // elimination, which no paper configuration enables).
    counts.round_changes += tr.time("opt.rounds", || {
        let mut total = 0;
        for _ in 0..cfg.opt_rounds {
            let mut changed = 0;
            changed += gvn::run(&mut f).total();
            changed += constprop::run(&mut f).folded;
            changed += dce::run(&mut f);
            changed += simplify::run(&mut f);
            total += changed as u64;
            if changed == 0 {
                break;
            }
        }
        if cfg.postdom_checkelim {
            checkelim::run(&mut f);
            dce::run(&mut f);
        }
        total
    });
    tr.time("ir.verify", || verify(&f))
        .unwrap_or_else(|e| panic!("final verify ({}): {e}\n{}", cfg.name, f.display()));
    counts.ir_size += f.size();
    CompiledMethod {
        func: f,
        sites,
        formation,
    }
}

/// Compiles, lowers and installs every method of `program` under `cfg`,
/// in method-id order so seal-site numbering is the same in every process.
/// With tracing on, compilation is the phase-by-phase replay and lowering
/// and sealing get spans of their own.
pub fn compile_product(
    program: &Program,
    profile: &Profile,
    cfg: &CompilerConfig,
    tr: &mut Tracer,
    counts: &mut CompileCounts,
) -> CodeCache {
    let methods: Vec<(MethodId, CompiledMethod)> = if tr.on() {
        program
            .method_ids()
            .map(|m| {
                let c = compile_method_traced(program, profile, m, cfg, tr, counts);
                (m, c)
            })
            .collect()
    } else {
        let mut all: Vec<_> = compile_program(program, profile, cfg).into_iter().collect();
        all.sort_unstable_by_key(|(m, _)| m.0);
        all
    };
    let mut code = CodeCache::new();
    for (m, c) in &methods {
        let lowered = tr.time("hw.lower", || lower(&c.func));
        tr.time("hw.seal", || code.install(*m, lowered));
    }
    counts.static_uops += code.static_uops() as u64;
    code
}

/// A method's uops as text with machine registers renamed in order of
/// first appearance, so two lowerings that differ only in register
/// numbering compare equal.
fn canonical(c: &CompiledCode) -> Vec<String> {
    let mut names: HashMap<u32, usize> = HashMap::new();
    c.uops
        .iter()
        .map(|u| {
            let text = format!("{u:?}");
            let mut out = String::with_capacity(text.len());
            let mut rest = text.as_str();
            while let Some(at) = rest.find("MReg(") {
                let (head, tail) = rest.split_at(at + "MReg(".len());
                out.push_str(head);
                let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
                let reg: u32 = tail[..digits].parse().expect("MReg index");
                let next = names.len();
                out.push_str(&names.entry(reg).or_insert(next).to_string());
                rest = &tail[digits..];
            }
            out.push_str(rest);
            out
        })
        .collect()
}

/// Where two lowered methods differ, if they do: the first differing uop
/// after register renaming, or the region metadata.
fn lowered_diff(a: &CompiledCode, b: &CompiledCode) -> Option<String> {
    let (ca, cb) = (canonical(a), canonical(b));
    if let Some(i) = (0..ca.len().max(cb.len())).find(|&i| ca.get(i) != cb.get(i)) {
        return Some(format!("uop {i}: {:?} vs {:?}", ca.get(i), cb.get(i)));
    }
    let meta = |c: &CompiledCode| {
        (
            c.name.clone(),
            c.region_count,
            c.region_boundaries.clone(),
            c.assert_origins.clone(),
        )
    };
    (meta(a) != meta(b)).then(|| "region or assert metadata differs".to_string())
}

/// What the guard found for one (program, config).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardReport {
    /// Methods compared.
    pub methods: usize,
    /// Methods whose replay matched `compile_method` register for register.
    pub exact: usize,
    /// Methods on which two `compile_method` calls on the same input
    /// numbered registers differently.
    pub unstable: usize,
}

/// The replay guard: for every method of `program`, the traced replay must
/// lower to the uops `compile_method` lowers to, uop for uop. Registers
/// are compared up to renaming, because `compile_method` itself does not
/// number them the same way on every call; the report counts the methods
/// where that happened.
///
/// # Errors
/// Names the first method, config and uop where the two differ.
pub fn guard(
    program: &Program,
    profile: &Profile,
    cfg: &CompilerConfig,
) -> Result<GuardReport, String> {
    let mut off = Tracer::new(false, std::time::Instant::now());
    let mut report = GuardReport::default();
    for m in program.method_ids() {
        let reference = lower(&compile_method(program, profile, m, cfg).func);
        let replayed = lower(
            &compile_method_traced(program, profile, m, cfg, &mut off, &mut Default::default())
                .func,
        );
        if let Some(d) = lowered_diff(&reference, &replayed) {
            return Err(format!(
                "replay of {} under {} diverges: {d}",
                reference.name, cfg.name
            ));
        }
        report.methods += 1;
        if reference.uops == replayed.uops {
            report.exact += 1;
        } else if lower(&compile_method(program, profile, m, cfg).func).uops != reference.uops {
            report.unstable += 1;
        }
    }
    Ok(report)
}
