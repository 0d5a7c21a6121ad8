//! Property tests over the IR analyses on randomly generated reducible-ish
//! CFGs: dominator-tree laws, post-dominator duality at exits, dominance
//! queries against their path definitions, loop detection sanity, and
//! SSA-construction round trips through the verifier.

use std::collections::HashSet;

use proptest::prelude::*;

use hasp_ir::{BlockId, DomTree, Func, LoopForest, PostDomTree, Term};
use hasp_vm::bytecode::{CmpOp, MethodId};

/// Builds a random CFG: `n` blocks where block `i` branches to one or two
/// higher-numbered blocks (acyclic core) plus optional back edges to
/// lower-numbered blocks, last block returns.
fn random_cfg(edges: &[(u8, u8, bool)], n: usize) -> Func {
    let mut f = Func::new("r", MethodId(0), 0);
    let x = f.vreg();
    let y = f.vreg();
    // Blocks b1..=bn (entry is b0).
    let blocks: Vec<_> = (0..n).map(|_| f.add_block(Term::Return(None))).collect();
    f.block_mut(f.entry).term = Term::Jump(blocks[0]);
    for i in 0..n - 1 {
        // Default: fall through to the next block.
        f.block_mut(blocks[i]).term = Term::Jump(blocks[i + 1]);
    }
    for &(from, to, backward) in edges {
        let from = from as usize % n;
        if from == n - 1 {
            continue; // keep the exit a plain return
        }
        let to = if backward {
            to as usize % (from + 1) // ≤ from: a back edge
        } else {
            from + 1 + (to as usize % (n - from - 1).max(1))
        };
        let t = blocks[to.min(n - 1)];
        let fall = blocks[from + 1];
        f.block_mut(blocks[from]).term = Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: y,
            t,
            f: fall,
            t_count: 1,
            f_count: 1,
        };
    }
    f
}

/// Blocks reachable from `from` along CFG edges without entering `avoid`
/// (empty when `from` is `avoid`).
fn reach_avoiding(f: &Func, from: BlockId, avoid: BlockId) -> HashSet<BlockId> {
    let mut seen = HashSet::new();
    let mut stack = vec![from];
    while let Some(b) = stack.pop() {
        if b == avoid || !seen.insert(b) {
            continue;
        }
        stack.extend(f.succs(b));
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn dominator_laws(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
    ) {
        let f = random_cfg(&edges, n);
        let dt = DomTree::compute(&f);
        let rpo = f.rpo();
        // Entry dominates everything reachable; everything dominates itself.
        for &b in &rpo {
            prop_assert!(dt.dominates(f.entry, b));
            prop_assert!(dt.dominates(b, b));
        }
        // idom is a strict dominator and dominance is transitive through it.
        for &b in &rpo {
            if let Some(d) = dt.idom(b) {
                prop_assert!(dt.dominates(d, b));
                prop_assert!(d != b);
                if let Some(dd) = dt.idom(d) {
                    prop_assert!(dt.dominates(dd, b), "transitivity");
                }
            } else {
                prop_assert_eq!(b, f.entry);
            }
        }
        // A block's dominator must dominate all its predecessors' paths:
        // every CFG predecessor of b is dominated by idom(b) or IS a
        // back-edge source dominated by b itself... weaker check: idom(b)
        // dominates every pred that is not dominated by b.
        let preds = f.preds();
        for &b in &rpo {
            if let Some(d) = dt.idom(b) {
                for &p in preds.get(&b).into_iter().flatten() {
                    prop_assert!(
                        dt.dominates(d, p) || dt.dominates(b, p),
                        "idom({b}) = {d} must dominate pred {p} (or p is in a loop under {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn postdominator_duality(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
    ) {
        let f = random_cfg(&edges, n);
        let pdt = PostDomTree::compute(&f);
        let rpo = f.rpo();
        for &b in &rpo {
            prop_assert!(pdt.post_dominates(b, b));
        }
        // Exit blocks post-dominate themselves and are in the exit list.
        for &e in pdt.exits() {
            prop_assert!(f.succs(e).is_empty());
        }
        // If a post-dominates b and b post-dominates a, they are equal.
        for &a in &rpo {
            for &b in &rpo {
                if a != b {
                    prop_assert!(
                        !(pdt.post_dominates(a, b) && pdt.post_dominates(b, a)),
                        "antisymmetry: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn loop_headers_dominate_their_blocks(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
    ) {
        let f = random_cfg(&edges, n);
        let dt = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dt);
        for l in forest.post_order() {
            for &b in &l.blocks {
                prop_assert!(
                    dt.dominates(l.header, b),
                    "natural-loop header {} must dominate member {b}",
                    l.header
                );
            }
            // Every latch is in the loop and targets the header.
            for latch in l.latches(&f) {
                prop_assert!(l.blocks.contains(&latch));
                prop_assert!(f.succs(latch).contains(&l.header));
            }
            // Post-order is innermost-first: members of an earlier loop that
            // share our header's blocks imply nesting consistency.
            prop_assert!(l.blocks.contains(&l.header));
        }
    }

    #[test]
    fn dominance_queries_match_path_definitions(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
        self_loop in any::<u8>(),
    ) {
        let mut f = random_cfg(&edges, n);
        // A block that never reaches an exit (absent from the post-dominator
        // tree) and one that is unreachable (absent from both trees).
        let spin = f.add_block(Term::Return(None));
        f.block_mut(spin).term = Term::Jump(spin);
        let entered = BlockId(1 + u32::from(self_loop) % n as u32);
        let x = hasp_ir::VReg(0);
        f.block_mut(f.entry).term = Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: x,
            t: spin,
            f: entered,
            t_count: 1,
            f_count: 1,
        };
        f.add_block(Term::Return(None));
        let dt = DomTree::compute(&f);
        let pdt = PostDomTree::compute(&f);
        let reachable: HashSet<BlockId> = f.rpo().into_iter().collect();
        let exits: Vec<BlockId> = reachable
            .iter()
            .copied()
            .filter(|&b| f.succs(b).is_empty())
            .collect();
        let reaches_exit = |from: BlockId, avoid: BlockId| {
            let r = reach_avoiding(&f, from, avoid);
            exits.iter().any(|e| r.contains(e))
        };
        let none = BlockId(u32::MAX);
        let ids: Vec<BlockId> = (0..f.block_count() as u32).map(BlockId).collect();
        for &a in &ids {
            for &b in &ids {
                if a == b {
                    continue;
                }
                // a dominates b: every entry-to-b path passes through a.
                let dom = reachable.contains(&a)
                    && reachable.contains(&b)
                    && !reach_avoiding(&f, f.entry, a).contains(&b);
                prop_assert_eq!(dt.dominates(a, b), dom, "dominates({}, {})", a, b);
                // a post-dominates b: b reaches an exit, and every such path
                // passes through a.
                let pdom = reachable.contains(&a)
                    && reachable.contains(&b)
                    && reaches_exit(b, none)
                    && !reaches_exit(b, a);
                prop_assert_eq!(pdt.post_dominates(a, b), pdom, "post_dominates({}, {})", a, b);
            }
        }
    }
}
