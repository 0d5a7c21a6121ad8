//! `warm-exec`: one client, closed loop. Set-up compiles the seven programs
//! once under `atomic`; a request is one full program run, in a seeded
//! order, on a pooled machine with no directory attached and no fault plan.

use std::time::Instant;

use hasp_experiments::WorkloadRun;
use hasp_hw::{CodeCache, HwConfig, Machine, MachinePools};
use hasp_opt::CompilerConfig;
use hasp_vm::profile::Profile;
use hasp_workloads::{all_workloads, Workload};

use crate::harness::{
    check_run, derive_seed, digest_line, governed_hw, interpret, prime, shuffled_round, DigestBook,
    Loop, Opts, Request, SimFigures,
};
use crate::measure::thread_cpu_ns;
use crate::replay::compile_product;
use crate::trace::Tracer;

/// One program made ready to serve: its inputs' seed, reference checksum,
/// profile and sealed `atomic` code, plus the set-up runs that fix its
/// digest and Figure 7 speedup.
#[derive(Debug)]
pub struct Prepared {
    /// The program.
    pub w: Workload,
    /// Seed of the inputs every request on it uses.
    pub seed: u64,
    /// Interpreter checksum for that seed.
    pub reference: i64,
    /// Interpreter profile for that seed.
    pub profile: Profile,
    /// Sealed `atomic` code.
    pub code: CodeCache,
    /// Hardware its requests run on.
    pub hw: HwConfig,
    /// Set-up run of the `no-atomic` product.
    pub base: WorkloadRun,
    /// Set-up run of the `atomic` product.
    pub atomic: WorkloadRun,
}

/// Runs `code` once on a fresh machine and checks the run.
fn run_once(
    w: &Workload,
    code: &CodeCache,
    hw: &HwConfig,
    seed: u64,
    reference: i64,
    compiler: &'static str,
) -> Result<WorkloadRun, String> {
    let mut mach = Machine::new(&w.program, code, hw.clone());
    prime(&mut mach, w, seed);
    let ran = mach.run(&[]);
    check_run(w, reference, &mach, ran, (compiler, hw.name), code)
}

/// Profiles `w` on `seed`, compiles it under `no-atomic` and `atomic`, and
/// runs each product once on `hw`.
///
/// # Errors
/// The first failing step.
pub fn prepare(w: Workload, seed: u64, hw: HwConfig) -> Result<Prepared, String> {
    let r = interpret(&w, seed)?;
    let mut off = Tracer::new(false, Instant::now());
    let mut counts = Default::default();
    let base_cfg = CompilerConfig::no_atomic();
    let base_code = compile_product(&w.program, &r.profile, &base_cfg, &mut off, &mut counts);
    let base = run_once(&w, &base_code, &hw, seed, r.checksum, base_cfg.name)?;
    let cfg = CompilerConfig::atomic();
    let code = compile_product(&w.program, &r.profile, &cfg, &mut off, &mut counts);
    let atomic = run_once(&w, &code, &hw, seed, r.checksum, cfg.name)?;
    Ok(Prepared {
        w,
        seed,
        reference: r.checksum,
        profile: r.profile,
        code,
        hw,
        base,
        atomic,
    })
}

/// Set-up products shared by `warm-exec` and `serve-2core`.
#[derive(Debug)]
pub struct Ready {
    /// One entry per program, in suite order.
    pub programs: Vec<Prepared>,
    /// Expected digest of every request.
    pub book: DigestBook,
    /// Figure 7 statistics of the set-up runs.
    pub sim: SimFigures,
    /// Digest lines of the set-up `atomic` runs.
    pub digests: Vec<String>,
}

impl Ready {
    /// Prepares every suite program, drawing each one's inputs from `seed`
    /// and its hardware from `hw_for`.
    ///
    /// # Errors
    /// The first failing program.
    pub fn new(seed: u64, hw_for: impl Fn(&Workload) -> HwConfig) -> Result<Ready, String> {
        let programs = all_workloads()
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let hw = hw_for(&w);
                prepare(w, derive_seed(seed, 0x3a_0000 + i as u64), hw)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut book = DigestBook::default();
        for p in &programs {
            book.check(&p.atomic, p.seed)?;
        }
        let pairs: Vec<_> = programs.iter().map(|p| (&p.base, &p.atomic)).collect();
        let all: Vec<_> = programs.iter().map(|p| &p.atomic).collect();
        Ok(Ready {
            sim: SimFigures::of(&pairs, &all),
            digests: programs
                .iter()
                .map(|p| digest_line(&p.atomic, p.seed))
                .collect(),
            programs,
            book,
        })
    }
}

/// Set-up: the seven programs on the governed baseline machine.
///
/// # Errors
/// The first failing program.
pub fn setup(seed: u64) -> Result<Ready, String> {
    Ready::new(seed, |_| governed_hw("warm"))
}

/// The measurement loop: whole rounds (each program once, in a seeded
/// order) until `seconds` have passed, on one recycled machine pool.
pub fn measure(ready: &Ready, opts: &Opts, seconds: f64, traced: bool) -> Loop {
    let origin = Instant::now();
    let mut tr = Tracer::new(traced, origin);
    let mut out = Loop::default();
    let mut book = ready.book.clone();
    let mut pools = MachinePools::new();
    let mut order_rng = derive_seed(opts.seed, 0x3a3a);
    let mut req = 0u32;
    let cpu0 = thread_cpu_ns();
    while origin.elapsed().as_secs_f64() < seconds {
        for i in shuffled_round(ready.programs.len(), &mut order_rng) {
            let p = &ready.programs[i];
            tr.set_request(req);
            let t0 = Instant::now();
            let root = tr.enter("bench.request");
            let mut mach = tr.time("hw.machine.setup", || {
                Machine::with_pools(
                    &p.w.program,
                    &p.code,
                    p.hw.clone(),
                    std::mem::take(&mut pools),
                )
            });
            prime(&mut mach, &p.w, p.seed);
            let cpu = tr.on().then(thread_cpu_ns);
            let ran = tr.time("hw.exec", || mach.run(&[]));
            if let Some(c0) = cpu {
                out.counters.exec_cpu_ns += thread_cpu_ns() - c0;
            }
            let checked = tr.time("bench.check", || {
                let run = check_run(
                    &p.w,
                    p.reference,
                    &mach,
                    ran,
                    (p.atomic.compiler, p.hw.name),
                    &p.code,
                )?;
                book.check(&run, p.seed)?;
                Ok::<_, String>(run)
            });
            pools = tr.time("hw.machine.teardown", || mach.into_pools());
            tr.exit(root);
            out.requests.push(Request {
                program: i,
                ns: t0.elapsed().as_nanos() as u64,
                ok: checked.is_ok(),
            });
            match checked {
                Ok(run) => out.counters.absorb(&run.stats, &run.pred),
                Err(e) => out.failures.record(e),
            }
            req += 1;
        }
    }
    out.wall_s = origin.elapsed().as_secs_f64();
    out.cpu_ns = thread_cpu_ns() - cpu0;
    out.spans = vec![tr.spans];
    out
}
