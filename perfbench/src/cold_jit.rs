//! `cold-jit`: one client, closed loop. A request takes one of the seven
//! programs under a fresh seed, profiles it in the interpreter, compiles it
//! under the four paper configurations, lowers and installs each product,
//! and runs each once on the baseline machine, checking every run.

use std::time::Instant;

use hasp_experiments::WorkloadRun;
use hasp_hw::{HwConfig, Machine};
use hasp_opt::CompilerConfig;
use hasp_workloads::{all_workloads, Workload};

use crate::harness::{
    check_run, derive_seed, digest_line, interpret, prime, shuffled_round, Counters, Loop, Opts,
    Request, SimFigures,
};
use crate::measure::thread_cpu_ns;
use crate::replay::{compile_product, GuardReport};
use crate::trace::Tracer;

/// Set-up: building the seven programs.
pub fn setup() -> Result<Vec<Workload>, String> {
    Ok(all_workloads())
}

/// The replay guard over every program and paper configuration, each
/// program profiled on its own seed; the reports are summed.
///
/// # Errors
/// The first divergence.
pub fn guard(programs: &[Workload], seed: u64) -> Result<GuardReport, String> {
    let mut sum = GuardReport::default();
    for (i, w) in programs.iter().enumerate() {
        let r = interpret(w, derive_seed(seed, 0x6a_0000 + i as u64))?;
        for cfg in CompilerConfig::paper_configs() {
            let g = crate::replay::guard(&w.program, &r.profile, &cfg)?;
            sum.methods += g.methods;
            sum.exact += g.exact;
            sum.unstable += g.unstable;
        }
    }
    Ok(sum)
}

/// One request: profile, compile four ways, run four ways. Returns the
/// runs in `paper_configs` order.
fn request(
    w: &Workload,
    seed: u64,
    configs: &[CompilerConfig],
    hw: &HwConfig,
    tr: &mut Tracer,
    counters: &mut Counters,
) -> Result<Vec<WorkloadRun>, String> {
    let reference = tr.time("vm.profile", || interpret(w, seed))?;
    counters.interp_steps += reference.steps;
    let mut runs = Vec::with_capacity(configs.len());
    for cfg in configs {
        let code = compile_product(
            &w.program,
            &reference.profile,
            cfg,
            tr,
            &mut counters.compile,
        );
        let mut mach = tr.time("hw.machine.setup", || {
            Machine::new(&w.program, &code, hw.clone())
        });
        prime(&mut mach, w, seed);
        let cpu0 = tr.on().then(thread_cpu_ns);
        let ran = tr.time("hw.exec", || mach.run(&[]));
        if let Some(c0) = cpu0 {
            counters.exec_cpu_ns += thread_cpu_ns() - c0;
        }
        let run = tr.time("bench.check", || {
            check_run(
                w,
                reference.checksum,
                &mach,
                ran,
                (cfg.name, hw.name),
                &code,
            )
        })?;
        counters.absorb(&run.stats, &run.pred);
        tr.time("hw.machine.teardown", || drop(mach));
        runs.push(run);
    }
    Ok(runs)
}

/// The measurement loop: whole rounds (each program once, in a seeded
/// order) until `seconds` have passed.
pub fn measure(programs: &[Workload], opts: &Opts, seconds: f64, traced: bool) -> Loop {
    let configs = CompilerConfig::paper_configs();
    let hw = HwConfig::baseline();
    let origin = Instant::now();
    let mut tr = Tracer::new(traced, origin);
    let mut out = Loop::default();
    let mut order_rng = derive_seed(opts.seed, 0x0c01d);
    let mut first_round: Vec<Vec<WorkloadRun>> = Vec::new();
    let mut req = 0u32;
    let cpu0 = thread_cpu_ns();
    while origin.elapsed().as_secs_f64() < seconds {
        for p in shuffled_round(programs.len(), &mut order_rng) {
            let w = &programs[p];
            let seed = derive_seed(opts.seed, 0x6a_0000 + u64::from(req));
            tr.set_request(req);
            let t0 = Instant::now();
            let root = tr.enter("bench.request");
            let res = request(w, seed, &configs, &hw, &mut tr, &mut out.counters);
            tr.exit(root);
            out.requests.push(Request {
                program: p,
                ns: t0.elapsed().as_nanos() as u64,
                ok: res.is_ok(),
            });
            match res {
                Ok(runs) => {
                    out.digests
                        .extend(runs.iter().map(|r| digest_line(r, seed)));
                    if (req as usize) < programs.len() {
                        first_round.push(runs);
                    }
                }
                Err(e) => out.failures.record(e),
            }
            req += 1;
        }
    }
    out.wall_s = origin.elapsed().as_secs_f64();
    out.cpu_ns = thread_cpu_ns() - cpu0;
    if first_round.len() == programs.len() {
        let pairs: Vec<_> = first_round.iter().map(|r| (&r[0], &r[1])).collect();
        let all: Vec<_> = first_round.iter().flatten().collect();
        out.sim = Some(SimFigures::of(&pairs, &all));
    }
    out.spans = vec![tr.spans];
    out
}
