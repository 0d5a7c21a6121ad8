//! Functions: CFG container, block management, traversal utilities.

use std::collections::HashMap;

use hasp_vm::bytecode::MethodId;

use crate::instr::{AssertId, BlockId, Inst, Op, RegionId, Term, VReg};

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Instructions (phis, if any, come first).
    pub insts: Vec<Inst>,
    /// Terminator.
    pub term: Term,
    /// Profiled execution count.
    pub freq: u64,
    /// The atomic region this block belongs to, if it is a speculative copy.
    pub region: Option<RegionId>,
    /// Dead blocks are skipped by traversals (tombstoned rather than removed
    /// so `BlockId`s stay stable).
    pub dead: bool,
}

impl Block {
    fn new(term: Term) -> Self {
        Block {
            insts: Vec::new(),
            term,
            freq: 0,
            region: None,
            dead: false,
        }
    }

    /// Iterator over the phi instructions at the head of the block.
    pub fn phis(&self) -> impl Iterator<Item = &Inst> {
        self.insts.iter().take_while(|i| matches!(i.op, Op::Phi(_)))
    }

    /// Number of leading phi instructions.
    pub fn phi_count(&self) -> usize {
        self.insts
            .iter()
            .take_while(|i| matches!(i.op, Op::Phi(_)))
            .count()
    }
}

/// Metadata about one atomic region of a function. Populated by region
/// formation (`hasp-core`).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionInfo {
    /// The block whose terminator is the `RegionBegin`.
    pub begin: BlockId,
    /// Non-speculative alternate entry (the `<alt PC>`).
    pub abort_target: BlockId,
    /// Static size estimate (HIR ops) at formation time.
    pub size_estimate: u64,
}

/// Metadata about one assertion: where it came from, for abort diagnosis and
/// adaptive recompilation (paper §3.2, §7).
#[derive(Debug, Clone, PartialEq)]
pub struct AssertInfo {
    /// The region the assert belongs to.
    pub region: RegionId,
    /// Human-readable provenance (e.g. "cold branch m:12").
    pub origin: String,
}

/// A function under compilation: CFG plus region/assert metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Name (for diagnostics).
    pub name: String,
    /// The bytecode method this was translated from.
    pub method: MethodId,
    /// Number of parameters; on entry, `VReg(0)..VReg(params-1)` hold them.
    pub params: u16,
    /// Entry block.
    pub entry: BlockId,
    blocks: Vec<Block>,
    next_vreg: u32,
    /// Atomic regions formed in this function, indexed by [`RegionId`].
    pub regions: Vec<RegionInfo>,
    /// Assertions, indexed by [`AssertId`].
    pub asserts: Vec<AssertInfo>,
}

impl Func {
    /// Creates a function with a single empty entry block ending in
    /// `Return(None)`.
    pub fn new(name: impl Into<String>, method: MethodId, params: u16) -> Self {
        Func {
            name: name.into(),
            method,
            params,
            entry: BlockId(0),
            blocks: vec![Block::new(Term::Return(None))],
            next_vreg: u32::from(params),
            regions: Vec::new(),
            asserts: Vec::new(),
        }
    }

    /// Allocates a fresh SSA value.
    pub fn vreg(&mut self) -> VReg {
        let v = VReg(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    /// Number of SSA values allocated so far.
    pub fn vreg_count(&self) -> u32 {
        self.next_vreg
    }

    /// Appends a new block with the given terminator.
    pub fn add_block(&mut self, term: Term) -> BlockId {
        self.blocks.push(Block::new(term));
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Shared access to a block.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.0 as usize]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.0 as usize]
    }

    /// Total number of block slots (including dead ones).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Ids of all live blocks in allocation order.
    pub fn block_ids(&self) -> Vec<BlockId> {
        (0..self.blocks.len())
            .map(|i| BlockId(i as u32))
            .filter(|b| !self.block(*b).dead)
            .collect()
    }

    /// Successors of `b` in edge order.
    pub fn succs(&self, b: BlockId) -> Vec<BlockId> {
        self.block(b).term.succs()
    }

    /// Predecessor map over live, reachable blocks.
    pub fn preds(&self) -> HashMap<BlockId, Vec<BlockId>> {
        let mut preds: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for b in self.reachable() {
            preds.entry(b).or_default();
            for s in self.succs(b) {
                preds.entry(s).or_default().push(b);
            }
        }
        preds
    }

    /// Blocks reachable from the entry, in reverse postorder.
    pub fn rpo(&self) -> Vec<BlockId> {
        let mut order = Vec::new();
        let mut state = vec![0u8; self.blocks.len()]; // 0 unvisited, 1 on stack, 2 done
                                                      // Iterative DFS computing postorder.
        let mut stack = vec![(self.entry, 0usize)];
        state[self.entry.0 as usize] = 1;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let succs = self.succs(b);
            if *i < succs.len() {
                let s = succs[*i];
                *i += 1;
                if state[s.0 as usize] == 0 {
                    state[s.0 as usize] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b.0 as usize] = 2;
                order.push(b);
                stack.pop();
            }
        }
        order.reverse();
        order
    }

    /// Blocks reachable from the entry (arbitrary order).
    pub fn reachable(&self) -> Vec<BlockId> {
        self.rpo()
    }

    /// Tombstones blocks not reachable from the entry. Returns how many died.
    pub fn remove_unreachable(&mut self) -> usize {
        let live: std::collections::HashSet<BlockId> = self.rpo().into_iter().collect();
        let mut killed = 0;
        for i in 0..self.blocks.len() {
            let id = BlockId(i as u32);
            if !live.contains(&id) && !self.blocks[i].dead {
                self.blocks[i].dead = true;
                self.blocks[i].insts.clear();
                killed += 1;
            }
        }
        // Phis may reference dead predecessors; prune those inputs.
        if killed > 0 {
            let preds = self.preds();
            for b in self.block_ids() {
                let pred_set: Vec<BlockId> = preds.get(&b).cloned().unwrap_or_default();
                for inst in &mut self.blocks[b.0 as usize].insts {
                    if let Op::Phi(ins) = &mut inst.op {
                        ins.retain(|(p, _)| pred_set.contains(p));
                    }
                }
            }
        }
        killed
    }

    /// Splits the edge `from -> to` by inserting a fresh empty block.
    /// Phi inputs in `to` are rewritten to come from the new block.
    /// Returns the new block's id.
    pub fn split_edge(&mut self, from: BlockId, to: BlockId) -> BlockId {
        let mid = self.add_block(Term::Jump(to));
        let freq = self.edge_count(from, to);
        self.block_mut(mid).freq = freq;
        self.block_mut(mid).region = self.block(from).region;
        self.block_mut(from).term.retarget(to, mid);
        for inst in &mut self.blocks[to.0 as usize].insts {
            if let Op::Phi(ins) = &mut inst.op {
                for (p, _) in ins.iter_mut() {
                    if *p == from {
                        *p = mid;
                    }
                }
            }
        }
        mid
    }

    /// Profiled count of the edge `from -> to` (0 if absent or unprofiled).
    pub fn edge_count(&self, from: BlockId, to: BlockId) -> u64 {
        match &self.block(from).term {
            Term::Jump(b) => {
                if *b == to {
                    self.block(from).freq
                } else {
                    0
                }
            }
            Term::Branch {
                t,
                f,
                t_count,
                f_count,
                ..
            } => {
                let mut n = 0;
                if *t == to {
                    n += t_count;
                }
                if *f == to {
                    n += f_count;
                }
                n
            }
            Term::Switch {
                targets, default, ..
            } => {
                let mut n = 0;
                for (b, c) in targets {
                    if *b == to {
                        n += c;
                    }
                }
                if default.0 == to {
                    n += default.1;
                }
                n
            }
            Term::Return(_) => 0,
            Term::RegionBegin { body, .. } => {
                if *body == to {
                    self.block(from).freq
                } else {
                    0
                }
            }
        }
    }

    /// Total static instruction count over live blocks (HIR ops; used for
    /// the paper's R = 200 region-size budget).
    pub fn size(&self) -> u64 {
        self.block_ids()
            .iter()
            .map(|b| self.block(*b).insts.len() as u64 + 1)
            .sum()
    }

    /// Registers a new assert and returns its id.
    pub fn new_assert(&mut self, region: RegionId, origin: impl Into<String>) -> AssertId {
        self.asserts.push(AssertInfo {
            region,
            origin: origin.into(),
        });
        AssertId((self.asserts.len() - 1) as u32)
    }

    /// Registers a new region and returns its id.
    pub fn new_region(&mut self, info: RegionInfo) -> RegionId {
        self.regions.push(info);
        RegionId((self.regions.len() - 1) as u32)
    }

    /// Pretty-prints the function for debugging and golden tests.
    pub fn display(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "func {} (params {}) entry {}",
            self.name, self.params, self.entry
        );
        for b in self.block_ids() {
            let blk = self.block(b);
            let region = blk
                .region
                .map(|r| format!(" region r{}", r.0))
                .unwrap_or_default();
            let _ = writeln!(s, "{b}: freq {}{}", blk.freq, region);
            for i in &blk.insts {
                match i.dst {
                    Some(d) => {
                        let _ = writeln!(s, "  {d} = {:?}", i.op);
                    }
                    None => {
                        let _ = writeln!(s, "  {:?}", i.op);
                    }
                }
            }
            let _ = writeln!(s, "  -> {:?}", blk.term);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_vm::bytecode::CmpOp;

    fn diamond() -> Func {
        // entry -> (then | else) -> join -> return
        let mut f = Func::new("d", MethodId(0), 0);
        let join = f.add_block(Term::Return(None));
        let then_ = f.add_block(Term::Jump(join));
        let else_ = f.add_block(Term::Jump(join));
        let a = f.vreg();
        let b = f.vreg();
        f.block_mut(f.entry).term = Term::Branch {
            op: CmpOp::Lt,
            a,
            b,
            t: then_,
            f: else_,
            t_count: 30,
            f_count: 70,
        };
        f
    }

    #[test]
    fn rpo_visits_all_reachable_once() {
        let f = diamond();
        let rpo = f.rpo();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], f.entry);
        // join must come after both branches.
        let pos = |b: BlockId| rpo.iter().position(|x| *x == b).unwrap();
        assert!(pos(BlockId(1)) > pos(BlockId(2)));
        assert!(pos(BlockId(1)) > pos(BlockId(3)));
    }

    #[test]
    fn preds_of_join() {
        let f = diamond();
        let preds = f.preds();
        let mut p = preds[&BlockId(1)].clone();
        p.sort();
        assert_eq!(p, vec![BlockId(2), BlockId(3)]);
    }

    #[test]
    fn unreachable_removed_and_phis_pruned() {
        let mut f = diamond();
        // Add an unreachable block feeding a phi in join.
        let orphan = f.add_block(Term::Jump(BlockId(1)));
        let v = f.vreg();
        let w = f.vreg();
        let d = f.vreg();
        f.block_mut(BlockId(1)).insts.push(Inst::with_dst(
            d,
            Op::Phi(vec![(BlockId(2), v), (BlockId(3), v), (orphan, w)]),
        ));
        assert_eq!(f.remove_unreachable(), 1);
        match &f.block(BlockId(1)).insts[0].op {
            Op::Phi(ins) => assert_eq!(ins.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn split_edge_rewrites_phi() {
        let mut f = diamond();
        let v2 = f.vreg();
        let v3 = f.vreg();
        let d = f.vreg();
        f.block_mut(BlockId(1)).insts.push(Inst::with_dst(
            d,
            Op::Phi(vec![(BlockId(2), v2), (BlockId(3), v3)]),
        ));
        let mid = f.split_edge(BlockId(2), BlockId(1));
        assert_eq!(f.succs(BlockId(2)), vec![mid]);
        match &f.block(BlockId(1)).insts[0].op {
            Op::Phi(ins) => {
                assert!(ins.iter().any(|(p, v)| *p == mid && *v == v2));
                assert!(!ins.iter().any(|(p, _)| *p == BlockId(2)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn edge_counts() {
        let f = diamond();
        assert_eq!(f.edge_count(f.entry, BlockId(2)), 30);
        assert_eq!(f.edge_count(f.entry, BlockId(3)), 70);
        assert_eq!(
            f.edge_count(BlockId(2), BlockId(1)),
            f.block(BlockId(2)).freq
        );
    }
}
