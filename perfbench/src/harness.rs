//! Pieces every workload shares: seeded inputs, the interpreter reference,
//! the per-request correctness check, and the counters and records a
//! measurement loop returns.

use std::collections::{BTreeMap, HashMap};

use hasp_experiments::runner::extract_samples;
use hasp_experiments::WorkloadRun;
use hasp_hw::{CodeCache, HwConfig, LinkStats, Machine, MachineFault, RunStats, ABORT_REASONS};
use hasp_vm::env::Env;
use hasp_vm::interp::Interp;
use hasp_vm::profile::Profile;
use hasp_vm::value::Value;
use hasp_workloads::Workload;

use crate::digest::model_digest;
use crate::trace::Span;

/// Command-line options of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Seconds the measurement loop runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// splitmix64 of `seed` mixed with `salt`: independent seed streams per
/// request, program and worker.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One round of a closed-loop schedule: every index in `0..n` once, in an
/// order drawn from `rng`.
pub fn shuffled_round(n: usize, rng: &mut u64) -> Vec<usize> {
    let mut round: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        *rng = derive_seed(*rng, i as u64);
        round.swap(i, (*rng % (i as u64 + 1)) as usize);
    }
    round
}

/// The interpreter's run of a program on one seed: its profile and the
/// checksum every compiled run must reproduce.
#[derive(Debug)]
pub struct Reference {
    /// Branch/receiver/call profile.
    pub profile: Profile,
    /// Observable checksum.
    pub checksum: i64,
    /// Bytecode instructions executed.
    pub steps: u64,
}

/// Profiles `w` in the interpreter with inputs drawn from `seed`.
///
/// # Errors
/// The interpreter's error, as text.
pub fn interpret(w: &Workload, seed: u64) -> Result<Reference, String> {
    let mut interp = Interp::new(&w.program).with_profiling();
    interp.env = Env::new(seed);
    interp.set_fuel(w.fuel);
    interp
        .run(&[])
        .map_err(|e| format!("interpreter error in {}: {e}", w.name))?;
    Ok(Reference {
        checksum: interp.env.checksum(),
        steps: interp.steps,
        profile: interp.profile,
    })
}

/// Readies a machine for one request on `seed`'s inputs.
pub fn prime(mach: &mut Machine<'_>, w: &Workload, seed: u64) {
    mach.env = Env::new(seed);
    mach.set_fuel(w.fuel.saturating_mul(4));
}

/// Checks a finished machine run against the interpreter reference:
/// no fault, same checksum, every sample marker present.
///
/// # Errors
/// The failure reason, as text.
pub fn check_run(
    w: &Workload,
    reference: i64,
    mach: &Machine<'_>,
    ran: Result<Option<Value>, MachineFault>,
    (compiler, hardware): (&'static str, &'static str),
    code: &CodeCache,
) -> Result<WorkloadRun, String> {
    ran.map_err(|e| format!("{} {compiler}: machine fault: {e}", w.name))?;
    let got = mach.env.checksum();
    if got != reference {
        return Err(format!(
            "{} {compiler}: checksum divergence: expected {reference}, got {got}",
            w.name
        ));
    }
    let stats = mach.stats().clone();
    let samples = extract_samples(w, &stats).map_err(|e| format!("{} {compiler}: {e}", w.name))?;
    Ok(WorkloadRun {
        workload: w.name,
        compiler,
        hardware,
        stats,
        samples,
        static_uops: code.static_uops(),
        pred: mach.way_pred_stats(),
    })
}

/// Digest of a checked run.
pub fn run_digest(run: &WorkloadRun) -> u64 {
    model_digest(&run.stats, &run.pred)
}

/// The digest line printed for one (program, config, seed).
pub fn digest_line(run: &WorkloadRun, seed: u64) -> String {
    format!(
        "digest {} {} seed={seed:#018x} {:#018x}",
        run.workload,
        run.compiler,
        run_digest(run)
    )
}

/// The Figure 7 statistics of a set of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFigures {
    /// Modeled uops per modeled cycle over every run in the set.
    pub ipc: f64,
    /// Mean over programs of the `atomic` speedup over `no-atomic`, in
    /// percent, averaged as Figure 7 averages.
    pub speedup_pct: f64,
}

impl SimFigures {
    /// `pairs` holds, per program, its `(no-atomic, atomic)` runs; `all`
    /// every run whose modeled time counts towards the IPC.
    pub fn of(pairs: &[(&WorkloadRun, &WorkloadRun)], all: &[&WorkloadRun]) -> SimFigures {
        let uops: u64 = all.iter().map(|r| r.stats.uops).sum();
        let cycles: u64 = all.iter().map(|r| r.stats.cycles).sum();
        let speedup = pairs.iter().map(|(b, a)| a.speedup_vs(b)).sum::<f64>() / pairs.len() as f64;
        SimFigures {
            ipc: uops as f64 / cycles as f64,
            speedup_pct: speedup,
        }
    }
}

/// The `atomic` average of the paper's Figure 7, in percent.
pub const PAPER_FIG7_ATOMIC_PCT: f64 = 10.2;

/// Failure reasons with their counts.
#[derive(Debug, Clone, Default)]
pub struct Failures(pub BTreeMap<String, u64>);

impl Failures {
    /// Records one failure.
    pub fn record(&mut self, reason: String) {
        *self.0.entry(reason).or_insert(0) += 1;
    }

    /// Total failures.
    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }

    /// Adds another set of failures.
    pub fn merge(&mut self, other: &Failures) {
        for (r, n) in &other.0 {
            *self.0.entry(r.clone()).or_insert(0) += n;
        }
    }
}

/// Expected digest per (program, config, seed): the first run of a request
/// fixes it and every repeat must reproduce it exactly.
#[derive(Debug, Clone, Default)]
pub struct DigestBook(HashMap<(&'static str, &'static str, u64), u64>);

impl DigestBook {
    /// Records `run`'s digest, or checks it against the one recorded.
    ///
    /// # Errors
    /// Names the request whose repeat produced a different digest.
    pub fn check(&mut self, run: &WorkloadRun, seed: u64) -> Result<(), String> {
        let d = run_digest(run);
        let want = *self
            .0
            .entry((run.workload, run.compiler, seed))
            .or_insert(d);
        if want == d {
            Ok(())
        } else {
            Err(format!(
                "{} {}: model digest {d:#x} differs from {want:#x} on a repeat",
                run.workload, run.compiler
            ))
        }
    }
}

/// Per-layer counters a measurement loop accumulates (all sums, so
/// per-thread copies merge by addition).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Bytecode instructions interpreted while profiling.
    pub interp_steps: u64,
    /// Compile-pipeline counters (traced replay only).
    pub compile: crate::replay::CompileCounts,
    /// Retired uops.
    pub uops: u64,
    /// Thread CPU ns spent inside `Machine::run`.
    pub exec_cpu_ns: u64,
    /// Memory accesses.
    pub mem_accesses: u64,
    /// Way-predictor consults.
    pub pred_probes: u64,
    /// Validated way-predictor hits.
    pub pred_hits: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Region commits.
    pub commits: u64,
    /// Region aborts per reason (indexed like `ABORT_REASONS`).
    pub aborts: [u64; ABORT_REASONS.len()],
    /// Governor-ladder entries per tier.
    pub tier_enters: [u64; 4],
    /// Coherence traffic of every attached link.
    pub link: LinkStats,
    /// Directory-signaled messages.
    pub signaled: u64,
    /// Publisher pins.
    pub pins: u64,
    /// Retired caches reclaimed.
    pub reclaims: u64,
    /// Retired caches still unreclaimed at the end of the loop.
    pub retired_end: u64,
}

impl Counters {
    /// Adds one machine run's statistics.
    pub fn absorb(&mut self, s: &RunStats, pred: &hasp_hw::PredStats) {
        self.uops += s.uops;
        self.mem_accesses += s.mem_accesses;
        self.pred_probes += pred.probes;
        self.pred_hits += pred.hits;
        self.branches += s.branches;
        self.mispredicts += s.mispredicts;
        self.commits += s.commits;
        for (slot, r) in self.aborts.iter_mut().zip(ABORT_REASONS) {
            *slot += s.aborts.get(r);
        }
        for (a, b) in self.tier_enters.iter_mut().zip(s.tier_enters) {
            *a += b;
        }
    }

    /// Adds a detached link's traffic counters.
    pub fn absorb_link(&mut self, l: &LinkStats) {
        self.link.published += l.published;
        self.link.drained += l.drained;
        self.link.sig_aborts += l.sig_aborts;
        self.link.sig_raced += l.sig_raced;
        self.link.benign += l.benign;
    }

    /// Adds another thread's counters.
    pub fn merge(&mut self, o: &Counters) {
        self.interp_steps += o.interp_steps;
        let (c, oc) = (&mut self.compile, &o.compile);
        c.round_changes += oc.round_changes;
        c.ir_size += oc.ir_size;
        c.form_regions += oc.form_regions;
        c.form_ir_size += oc.form_ir_size;
        c.static_uops += oc.static_uops;
        self.uops += o.uops;
        self.exec_cpu_ns += o.exec_cpu_ns;
        self.mem_accesses += o.mem_accesses;
        self.pred_probes += o.pred_probes;
        self.pred_hits += o.pred_hits;
        self.branches += o.branches;
        self.mispredicts += o.mispredicts;
        self.commits += o.commits;
        for (a, b) in self.aborts.iter_mut().zip(o.aborts) {
            *a += b;
        }
        for (a, b) in self.tier_enters.iter_mut().zip(o.tier_enters) {
            *a += b;
        }
        self.absorb_link(&o.link);
        self.signaled += o.signaled;
        self.pins += o.pins;
        self.reclaims += o.reclaims;
        self.retired_end += o.retired_end;
    }
}

/// What one measurement loop produced.
#[derive(Debug, Default)]
pub struct Loop {
    /// Every request, in the order each client completed them.
    pub requests: Vec<Request>,
    /// Wall seconds from the loop's start until its last request ended.
    pub wall_s: f64,
    /// CPU ns of every client thread over the loop, summed.
    pub cpu_ns: u64,
    /// Requests that failed, by reason.
    pub failures: Failures,
    /// Per-layer counters.
    pub counters: Counters,
    /// Recorded spans, one vector per thread (empty when untraced).
    pub spans: Vec<Vec<Span>>,
    /// Modeled figures, for workloads that derive them from the loop.
    pub sim: Option<SimFigures>,
    /// Digest lines of the requests the loop ran for the first time.
    pub digests: Vec<String>,
}

/// One completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Its program, as an index in suite order.
    pub program: usize,
    /// Its wall latency, ns.
    pub ns: u64,
    /// Whether it passed every check.
    pub ok: bool,
}

/// The hardware every warm and served request runs on: the baseline core
/// with the abort-recovery governor online.
pub fn governed_hw(name: &'static str) -> HwConfig {
    HwConfig {
        name,
        governor: hasp_hw::GovernorConfig::online(),
        ..HwConfig::baseline()
    }
}
