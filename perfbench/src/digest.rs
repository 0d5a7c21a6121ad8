//! Model digest: one 64-bit FNV-1a hash over every simulated statistic of a
//! run. Two runs of the same (program, config, seed) must print the same
//! digest, so a change that only speeds up the simulator can show that the
//! model it simulates is unchanged.

use hasp_hw::{PredStats, RunStats, ABORT_REASONS};

/// FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, vs: &[u64]) {
        for &v in vs {
            self.word(v);
        }
    }
}

/// Digest of a run's modeled statistics and way-predictor counters.
pub fn model_digest(s: &RunStats, pred: &PredStats) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.words(&[
        s.uops,
        s.cycles,
        s.region_uops,
        s.commits,
        s.branches,
        s.mispredicts,
        s.indirects,
        s.indirect_misses,
        s.l1_hits,
        s.l2_hits,
        s.mem_accesses,
        s.governor_skips,
        s.governor_disables,
        s.governor_reenables,
        s.lock_subscriptions,
        s.lock_holds,
        s.lock_held_aborts,
        s.reform_requests,
        s.governor_recoveries,
        s.validations,
    ]);
    for r in ABORT_REASONS {
        h.word(s.aborts.get(r));
    }
    for (c, n) in s.uop_classes.iter_nonzero() {
        h.words(&[c as u64, n]);
    }
    for tiers in [s.tier_enters, s.tier_exits, s.tier_live, s.tier_time] {
        h.words(&tiers);
    }
    for hist in [&s.region_sizes, &s.region_footprint] {
        h.words(&hist.counts);
        h.words(&[hist.sum, hist.n, hist.max]);
    }
    for ((m, r), c) in s.per_region.sorted_rows() {
        h.words(&[
            u64::from(m.0),
            u64::from(r),
            c.entries,
            c.aborts,
            c.gov_skips,
            u64::from(c.tier),
        ]);
    }
    for m in &s.markers {
        h.words(&[u64::from(m.id), m.ordinal, m.uops, m.cycles]);
    }
    let mut sites: Vec<_> = s.mispredict_sites.iter().collect();
    sites.sort_unstable();
    for (&(m, pc), &n) in sites {
        h.words(&[u64::from(m), pc as u64, n]);
    }
    h.words(&[pred.probes, pred.hits, pred.mispredicts]);
    h.0
}
