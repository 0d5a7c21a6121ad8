//! `serve-2core`: two worker threads, each a closed-loop client over its
//! own seeded schedule of the seven-tenant mix. A request pins the current
//! sealed cache from one publisher and runs on a pooled machine attached to
//! one shared coherence directory through a per-(worker, tenant) core link,
//! in an address space private to that worker. Worker 0 publishes a second
//! cache, compiled in set-up, at a fixed request count. The directory is
//! allocated at a fixed offset within a cache line (see
//! [`DIRECTORY_OFFSET`]).

use std::sync::Arc;
use std::time::Instant;

use hasp_hw::{CodeCache, CoreLink, Directory, FaultPlan, Machine, MachinePools, Publisher};
use hasp_opt::CompilerConfig;

use crate::harness::{
    check_run, derive_seed, governed_hw, prime, shuffled_round, Loop, Opts, Request,
};
use crate::measure::thread_cpu_ns;
use crate::replay::compile_product;
use crate::trace::Tracer;
use crate::warm_exec::Ready;

/// Worker threads (the benchmark host's core count).
pub const WORKERS: usize = 2;

/// Tenants served under a shrunken speculative line budget, as in the
/// service harness's tenant mix: their regions overflow and the governor
/// ladder climbs.
const CONTENDED: [&str; 3] = ["hsqldb", "pmd", "xalan"];

/// Speculative line budget of the contended tenants.
const CONTENDED_LINE_BUDGET: u64 = 4;

/// Worker 0 publishes the second cache after this many of its requests.
const PUBLISH_AT: usize = 7;

/// Where the directory is allocated, in bytes past a cache-line boundary.
/// The directory's shared counters sit next to its read-mostly fields, and
/// whether they share a cache line depends on this offset: allocator luck
/// alone moved its cost per uop by about 1.5x between runs. The benchmark
/// fixes the offset at the slow placement, so every run measures the same
/// layout and a fix to the false sharing shows.
const DIRECTORY_OFFSET: usize = 48;

/// A directory for `cores` cores whose allocation starts `offset` bytes
/// past a cache-line boundary, and the offset it got. The allocator
/// decides where each attempt lands; spacer allocations of varying size
/// between attempts shift where the next one can land. After 64 misses
/// the last attempt is used.
fn directory_at(cores: usize, offset: usize) -> (Arc<Directory>, usize) {
    let mut misses = Vec::new();
    loop {
        let dir = Directory::new(cores);
        let at = Arc::as_ptr(&dir) as usize % 64;
        if at == offset || misses.len() == 64 {
            return (dir, at);
        }
        let spacer = Vec::<u8>::with_capacity(8 + 16 * (misses.len() % 4));
        misses.push((dir, spacer));
    }
}

/// Set-up products: the prepared tenants plus the second cache.
#[derive(Debug)]
pub struct Serve {
    /// Tenants with their first cache.
    pub ready: Ready,
    /// The cache worker 0 publishes mid-run, compiled separately.
    pub second: Vec<CodeCache>,
}

/// Set-up: prepares the tenant mix and compiles the second cache.
///
/// # Errors
/// The first failing tenant.
pub fn setup(seed: u64) -> Result<Serve, String> {
    let ready = Ready::new(seed, |w| {
        if CONTENDED.contains(&w.name) {
            hasp_hw::HwConfig {
                faults: FaultPlan::overflow_budget(CONTENDED_LINE_BUDGET),
                ..governed_hw("svc-contended")
            }
        } else {
            governed_hw("svc-clean")
        }
    })?;
    let mut off = Tracer::new(false, Instant::now());
    let cfg = CompilerConfig::atomic();
    let second = ready
        .programs
        .iter()
        .map(|p| {
            compile_product(
                &p.w.program,
                &p.profile,
                &cfg,
                &mut off,
                &mut Default::default(),
            )
        })
        .collect();
    Ok(Serve { ready, second })
}

/// One worker's closed loop: whole rounds of its schedule until `seconds`
/// have passed on the shared clock.
#[allow(clippy::too_many_arguments)]
fn worker(
    id: usize,
    s: &Serve,
    publisher: &Publisher<Vec<CodeCache>>,
    dir: &Arc<Directory>,
    mut second: Option<Vec<CodeCache>>,
    opts: &Opts,
    origin: Instant,
    seconds: f64,
    traced: bool,
) -> Loop {
    let tenants = &s.ready.programs;
    let n = tenants.len();
    let mut tr = Tracer::new(traced, origin);
    let mut out = Loop::default();
    let mut book = s.ready.book.clone();
    let mut pools = MachinePools::new();
    let mut links: Vec<Option<CoreLink>> = (0..n)
        .map(|t| {
            let core = id * n + t;
            Some(CoreLink::new(Arc::clone(dir), core as u8, core as u16))
        })
        .collect();
    let mut order_rng = derive_seed(opts.seed, 0x5e_0000 + id as u64);
    let mut served = 0usize;
    let cpu0 = thread_cpu_ns();
    while origin.elapsed().as_secs_f64() < seconds {
        for t in shuffled_round(n, &mut order_rng) {
            let p = &tenants[t];
            tr.set_request((id << 24 | served) as u32);
            let t0 = Instant::now();
            let root = tr.enter("bench.request");
            let guard = tr.time("hw.publish.pin", || publisher.pin(id));
            out.counters.pins += 1;
            let mut mach = tr.time("hw.machine.setup", || {
                Machine::with_pools(
                    &p.w.program,
                    &guard[t],
                    p.hw.clone(),
                    std::mem::take(&mut pools),
                )
            });
            let link = links[t].take().expect("link in rotation");
            tr.time("hw.coherence.attach", || mach.attach_core(link));
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
                    &guard[t],
                )?;
                book.check(&run, p.seed)?;
                Ok::<_, String>(run)
            });
            links[t] = tr.time("hw.coherence.detach", || mach.detach_core());
            pools = tr.time("hw.machine.teardown", || mach.into_pools());
            drop(guard);
            tr.exit(root);
            out.requests.push(Request {
                program: t,
                ns: t0.elapsed().as_nanos() as u64,
                ok: checked.is_ok(),
            });
            match checked {
                Ok(run) => out.counters.absorb(&run.stats, &run.pred),
                Err(e) => out.failures.record(e),
            }
            served += 1;
            if served == PUBLISH_AT {
                if let Some(next) = second.take() {
                    tr.time("hw.publish.publish", || publisher.publish(next));
                }
            }
        }
    }
    out.cpu_ns = thread_cpu_ns() - cpu0;
    for link in links.iter().flatten() {
        out.counters.absorb_link(&link.stats);
    }
    if links.iter().any(Option::is_none) {
        out.failures
            .record("a core link was lost on a failed request".into());
    }
    out.spans = vec![tr.spans];
    out
}

/// The measurement loop: both workers until `seconds` have passed, then
/// the publisher's final reclaim and the directory's conservation check.
pub fn measure(s: &Serve, opts: &Opts, seconds: f64, traced: bool) -> Loop {
    let n = s.ready.programs.len();
    let first: Vec<CodeCache> = s.ready.programs.iter().map(|p| p.code.clone()).collect();
    let publisher = Publisher::new(first, WORKERS);
    let (dir, offset) = directory_at(WORKERS * n, DIRECTORY_OFFSET);
    println!("serve-2core directory allocated at cache-line offset {offset}");
    let mut second = Some(s.second.clone());
    let origin = Instant::now();
    let loops: Vec<Loop> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|id| {
                let (publisher, dir) = (&publisher, &dir);
                let next = if id == 0 { second.take() } else { None };
                scope.spawn(move || {
                    worker(id, s, publisher, dir, next, opts, origin, seconds, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve worker panicked"))
            .collect()
    });
    let mut tr = Tracer::new(traced, origin);
    tr.time("hw.publish.reclaim", || publisher.try_reclaim());
    let mut out = Loop {
        wall_s: origin.elapsed().as_secs_f64(),
        ..Loop::default()
    };
    for l in loops {
        out.requests.extend(l.requests);
        out.cpu_ns += l.cpu_ns;
        out.failures.merge(&l.failures);
        out.counters.merge(&l.counters);
        out.spans.extend(l.spans);
    }
    out.spans.push(tr.spans);
    let c = &mut out.counters;
    c.signaled = dir.signaled();
    c.reclaims = publisher.reclaims();
    c.retired_end = publisher.retired_len() as u64;
    if c.signaled != c.link.sig_aborts + c.link.sig_raced {
        out.failures.record(format!(
            "coherence conservation broken: signaled {} != sig_aborts {} + sig_raced {}",
            c.signaled, c.link.sig_aborts, c.link.sig_raced
        ));
    }
    if c.retired_end != 0 {
        out.failures.record(format!(
            "{} retired caches left after the final reclaim",
            c.retired_end
        ));
    }
    out
}
