//! Dominators, post-dominators, and dominance frontiers
//! (Cooper–Harvey–Kennedy iterative algorithm).

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::func::Func;
use crate::instr::BlockId;

/// Computes immediate dominators over an abstract graph.
///
/// `nodes` must be a reverse postorder starting at the root; `preds` gives
/// predecessors restricted to `nodes`.
fn compute_idoms(
    nodes: &[BlockId],
    preds: &HashMap<BlockId, Vec<BlockId>>,
) -> HashMap<BlockId, BlockId> {
    let index: HashMap<BlockId, usize> = nodes.iter().enumerate().map(|(i, b)| (*b, i)).collect();
    let root = nodes[0];
    let mut idom: Vec<Option<usize>> = vec![None; nodes.len()];
    idom[0] = Some(0);
    let mut changed = true;
    while changed {
        changed = false;
        for (i, b) in nodes.iter().enumerate().skip(1) {
            let mut new_idom: Option<usize> = None;
            for p in preds.get(b).into_iter().flatten() {
                let Some(&pi) = index.get(p) else { continue };
                if idom[pi].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => pi,
                    Some(cur) => intersect(&idom, pi, cur),
                });
            }
            if let Some(n) = new_idom {
                if idom[i] != Some(n) {
                    idom[i] = Some(n);
                    changed = true;
                }
            }
        }
    }
    nodes
        .iter()
        .enumerate()
        .filter(|(_, b)| **b != root)
        .filter_map(|(i, b)| idom[i].map(|d| (*b, nodes[d])))
        .collect()
}

fn intersect(idom: &[Option<usize>], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while a > b {
            a = idom[a].expect("processed");
        }
        while b > a {
            b = idom[b].expect("processed");
        }
    }
    a
}

/// DFS entry/exit numbers of a tree's nodes: `a` is an ancestor of `b`
/// (reflexively) exactly when `a`'s interval encloses `b`'s, so every
/// dominance query is two comparisons.
#[derive(Debug, Clone)]
struct Intervals {
    /// `(pre, post)` indexed by block id; `None` for blocks not in the tree.
    span: Vec<Option<(u32, u32)>>,
}

impl Intervals {
    /// Numbers the tree under `root`. A root of `BlockId(u32::MAX)` (the
    /// post-dominator tree's virtual exit) is walked but not numbered.
    fn number(root: BlockId, children: &HashMap<BlockId, Vec<BlockId>>) -> Self {
        let mut span: Vec<Option<(u32, u32)>> = Vec::new();
        let mut clock = 0u32;
        let mut stack = vec![(root, false)];
        while let Some((b, exiting)) = stack.pop() {
            let now = clock;
            clock += 1;
            if exiting {
                if let Some(Some((_, post))) = span.get_mut(b.0 as usize) {
                    *post = now;
                }
                continue;
            }
            if b.0 != u32::MAX {
                let i = b.0 as usize;
                if span.len() <= i {
                    span.resize(i + 1, None);
                }
                span[i] = Some((now, now));
            }
            stack.push((b, true));
            for &c in children.get(&b).into_iter().flatten().rev() {
                stack.push((c, false));
            }
        }
        Intervals { span }
    }

    fn get(&self, b: BlockId) -> Option<(u32, u32)> {
        self.span.get(b.0 as usize).copied().flatten()
    }

    /// True if `a` is `b` or an ancestor of `b`, both in the tree.
    fn encloses(&self, a: BlockId, b: BlockId) -> bool {
        match (self.get(a), self.get(b)) {
            (Some((pre_a, post_a)), Some((pre_b, post_b))) => pre_a <= pre_b && post_b <= post_a,
            _ => false,
        }
    }
}

/// The dominator tree of a function's CFG.
#[derive(Debug, Clone)]
pub struct DomTree {
    idom: HashMap<BlockId, BlockId>,
    children: HashMap<BlockId, Vec<BlockId>>,
    root: BlockId,
    /// Tree intervals for O(1) `dominates` queries.
    intervals: Intervals,
}

impl DomTree {
    /// Computes dominators for `f` over reachable blocks.
    pub fn compute(f: &Func) -> Self {
        let rpo = f.rpo();
        let preds = f.preds();
        Self::build(f.entry, &rpo, &preds)
    }

    fn build(root: BlockId, rpo: &[BlockId], preds: &HashMap<BlockId, Vec<BlockId>>) -> Self {
        let idom = compute_idoms(rpo, preds);
        let mut children: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for (&b, &d) in &idom {
            children.entry(d).or_default().push(b);
        }
        for c in children.values_mut() {
            c.sort();
        }
        let intervals = Intervals::number(root, &children);
        DomTree {
            idom,
            children,
            root,
            intervals,
        }
    }

    /// The tree root (function entry).
    pub fn root(&self) -> BlockId {
        self.root
    }

    /// Immediate dominator of `b` (`None` for the root or unreachable).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(&b).copied()
    }

    /// Children of `b` in the dominator tree.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        self.children.get(&b).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        a == b || self.intervals.encloses(a, b)
    }

    /// Dominator-tree preorder starting at the root.
    pub fn preorder(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(b) = stack.pop() {
            out.push(b);
            for &c in self.children(b).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Dominance frontiers (for SSA phi placement). Each frontier iterates
    /// in block order, so phi placement is deterministic.
    pub fn frontiers(&self, f: &Func) -> HashMap<BlockId, BTreeSet<BlockId>> {
        let preds = f.preds();
        let mut df: HashMap<BlockId, BTreeSet<BlockId>> = HashMap::new();
        for b in f.rpo() {
            let ps = preds.get(&b).cloned().unwrap_or_default();
            if ps.len() >= 2 {
                for p in ps {
                    let mut runner = p;
                    loop {
                        if Some(runner) == self.idom(b) {
                            break;
                        }
                        df.entry(runner).or_default().insert(b);
                        match self.idom(runner) {
                            Some(n) if runner != self.root => runner = n,
                            _ => break,
                        }
                    }
                }
            }
        }
        df
    }
}

/// The post-dominator tree, computed over the reversed CFG with a virtual
/// exit uniting all `Return` blocks (and any infinite-loop tails are simply
/// absent, which is safe for the check-elimination use).
#[derive(Debug, Clone)]
pub struct PostDomTree {
    ipdom: HashMap<BlockId, BlockId>,
    /// Intervals of the tree rooted at the virtual exit (which itself is not
    /// numbered); blocks that never reach an exit are absent.
    intervals: Intervals,
    exits: Vec<BlockId>,
}

impl PostDomTree {
    /// Computes post-dominators for `f`.
    pub fn compute(f: &Func) -> Self {
        // Build the reverse graph over reachable blocks with a virtual exit.
        let rpo = f.rpo();
        let virt = BlockId(u32::MAX);
        let mut rev_preds: HashMap<BlockId, Vec<BlockId>> = HashMap::new(); // preds in reverse graph = succs in CFG
        let mut exits = Vec::new();
        for &b in &rpo {
            let succs = f.succs(b);
            if succs.is_empty() {
                exits.push(b);
                rev_preds.entry(b).or_default().push(virt);
            }
            for s in succs {
                rev_preds.entry(b).or_default().push(s);
            }
        }
        // Reverse postorder of the reverse graph = postorder of CFG from
        // virtual exit; compute by DFS over reverse edges (succ lists).
        let mut rev_succs: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for (&b, ps) in &rev_preds {
            for &p in ps {
                rev_succs.entry(p).or_default().push(b);
            }
        }
        let mut order = vec![];
        let mut seen: HashSet<BlockId> = HashSet::new();
        seen.insert(virt);
        let mut stack = vec![(virt, 0usize)];
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let succs = rev_succs.get(&b).cloned().unwrap_or_default();
            if *i < succs.len() {
                let s = succs[*i];
                *i += 1;
                if seen.insert(s) {
                    stack.push((s, 0));
                }
            } else {
                order.push(b);
                stack.pop();
            }
        }
        order.reverse();
        let ipdom: HashMap<BlockId, BlockId> = compute_idoms(&order, &rev_preds);
        let mut children: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for (&b, &p) in &ipdom {
            children.entry(p).or_default().push(b);
        }
        for c in children.values_mut() {
            c.sort();
        }
        let intervals = Intervals::number(virt, &children);
        PostDomTree {
            ipdom,
            intervals,
            exits,
        }
    }

    /// Immediate post-dominator (`None` if it is the virtual exit).
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        self.ipdom.get(&b).copied().filter(|p| p.0 != u32::MAX)
    }

    /// True if `a` post-dominates `b` (reflexive): every path from `b` to
    /// function exit passes through `a`.
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a == b || self.intervals.encloses(a, b)
    }

    /// Blocks that exit the function directly.
    pub fn exits(&self) -> &[BlockId] {
        &self.exits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Term;
    use hasp_vm::bytecode::{CmpOp, MethodId};

    /// entry(0) -> A(1) -> {B(2), C(3)} -> D(4) -> return; B -> D, C -> D
    fn diamond() -> Func {
        let mut f = Func::new("t", MethodId(0), 0);
        let d = f.add_block(Term::Return(None));
        let b = f.add_block(Term::Jump(d));
        let c = f.add_block(Term::Jump(d));
        let x = f.vreg();
        let y = f.vreg();
        let a = f.add_block(Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: y,
            t: b,
            f: c,
            t_count: 1,
            f_count: 1,
        });
        f.block_mut(f.entry).term = Term::Jump(a);
        f
    }

    #[test]
    fn diamond_doms() {
        let f = diamond();
        let dt = DomTree::compute(&f);
        let (a, b, c, d) = (BlockId(4), BlockId(2), BlockId(3), BlockId(1));
        assert_eq!(dt.idom(b), Some(a));
        assert_eq!(dt.idom(c), Some(a));
        assert_eq!(dt.idom(d), Some(a));
        assert!(dt.dominates(f.entry, d));
        assert!(dt.dominates(a, b));
        assert!(!dt.dominates(b, d));
        assert!(dt.dominates(d, d));
    }

    #[test]
    fn diamond_frontiers() {
        let f = diamond();
        let dt = DomTree::compute(&f);
        let df = dt.frontiers(&f);
        let (b, c, d) = (BlockId(2), BlockId(3), BlockId(1));
        assert!(df[&b].contains(&d));
        assert!(df[&c].contains(&d));
        assert!(!df.contains_key(&d) || !df[&d].contains(&d));
    }

    #[test]
    fn diamond_postdoms() {
        let f = diamond();
        let pdt = PostDomTree::compute(&f);
        let (a, b, c, d) = (BlockId(4), BlockId(2), BlockId(3), BlockId(1));
        assert!(pdt.post_dominates(d, a));
        assert!(pdt.post_dominates(d, b));
        assert!(!pdt.post_dominates(b, a));
        assert_eq!(pdt.ipdom(a), Some(d));
        assert!(pdt.post_dominates(c, c));
        assert_eq!(pdt.exits(), &[d]);
    }

    #[test]
    fn loop_doms() {
        // entry -> head -> body -> head; head -> exit
        let mut f = Func::new("l", MethodId(0), 0);
        let exit = f.add_block(Term::Return(None));
        let x = f.vreg();
        let y = f.vreg();
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: y,
            t: body,
            f: exit,
            t_count: 9,
            f_count: 1,
        };
        f.block_mut(f.entry).term = Term::Jump(head);
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(body), Some(head));
        assert_eq!(dt.idom(exit), Some(head));
        assert!(dt.dominates(head, body));
        let pdt = PostDomTree::compute(&f);
        assert!(pdt.post_dominates(head, body));
        assert!(pdt.post_dominates(exit, head));
    }

    #[test]
    fn preorder_starts_at_root() {
        let f = diamond();
        let dt = DomTree::compute(&f);
        let pre = dt.preorder();
        assert_eq!(pre[0], f.entry);
        assert_eq!(pre.len(), 5);
    }
}
