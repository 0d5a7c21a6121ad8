//! SSA repair after code replication.
//!
//! Region replication (and any other duplication) creates several
//! definitions of what was one SSA value: the original and its copies. Uses
//! downstream of the duplicated code are then no longer dominated by any
//! single definition. [`repair`] performs single-variable SSA
//! reconstruction: it treats the group of definitions as assignments to one
//! variable, inserts phis at the iterated dominance frontier of the
//! definition sites, and rewrites every use to its nearest reaching
//! definition (the classic SSA-updater algorithm).
//!
//! One replication duplicates hundreds of values at once, so the passes use
//! [`repair_replicas`]: one definition scan and one dominator-tree walk for
//! all groups together ([`repair_groups`]), which produces exactly the
//! function that one [`repair_with`] call per group would.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap, HashSet};

use crate::dom::DomTree;
use crate::func::Func;
use crate::instr::{BlockId, Inst, Op, VReg};

/// Dominance frontiers as computed by [`DomTree::frontiers`].
pub type Frontiers = HashMap<BlockId, BTreeSet<BlockId>>;

thread_local! {
    static PER_PAIR_REFERENCE: Cell<bool> = const { Cell::new(false) };
}

/// Runs `body` with [`repair_replicas`] on this thread repairing one pair
/// at a time through [`repair_with`] instead of batching. The per-pair
/// loop is the reference the batched repair must reproduce exactly;
/// equivalence tests compile under both and compare.
pub fn with_per_pair_reference<R>(body: impl FnOnce() -> R) -> R {
    let prev = PER_PAIR_REFERENCE.with(|c| c.replace(true));
    let out = body();
    PER_PAIR_REFERENCE.with(|c| c.set(prev));
    out
}

/// Repairs SSA after one replication. `copies` maps every value defined in
/// the duplicated code to its copy; each `(original, copy)` pair is one
/// group, repaired in sorted order, and join inputs on paths without a
/// definition are materialized afterwards.
pub fn repair_replicas(f: &mut Func, copies: HashMap<VReg, VReg>) {
    let dt = DomTree::compute(f);
    let frontiers = dt.frontiers(f);
    let mut pairs: Vec<[VReg; 2]> = copies.into_iter().map(|(d, d2)| [d, d2]).collect();
    pairs.sort();
    if PER_PAIR_REFERENCE.with(Cell::get) {
        for pair in &pairs {
            repair_with(f, pair, &dt, &frontiers);
        }
    } else {
        repair_groups(f, &pairs, &dt, &frontiers);
    }
    materialize_undef_inputs(f);
}

/// Rewrites all uses of the values in `group` (the original definition and
/// its replicas) to reaching definitions, inserting join phis as needed.
///
/// Preconditions: every member of `group` is defined at most once; on every
/// path reaching a use, at least one member is defined (paths where none is
/// defined get a synthesized zero — such paths cannot consume the value
/// meaningfully, or the input was broken before replication).
pub fn repair(f: &mut Func, group: &[VReg]) {
    let dt = DomTree::compute(f);
    let frontiers = dt.frontiers(f);
    repair_with(f, group, &dt, &frontiers);
}

/// [`repair`] with precomputed dominator structures. Inserting phis does not
/// change the CFG, so one `DomTree`/frontier computation can be shared across
/// many groups after a single replication. Calling it once per group is the
/// reference that [`repair_groups`] reproduces in one pass.
pub fn repair_with(f: &mut Func, group: &[VReg], dt: &DomTree, frontiers: &Frontiers) {
    let members: HashSet<VReg> = group.iter().copied().collect();
    let reachable: Vec<BlockId> = f.rpo();
    let reachable_set: HashSet<BlockId> = reachable.iter().copied().collect();

    // Definition sites.
    let mut def_blocks: HashSet<BlockId> = HashSet::new();
    for &b in &reachable {
        for inst in &f.block(b).insts {
            if let Some(d) = inst.dst {
                if members.contains(&d) {
                    def_blocks.insert(b);
                }
            }
        }
    }
    if def_blocks.len() <= 1 {
        return; // a single def dominates all its uses already
    }

    // Iterated dominance frontier → join phi placement.
    let mut phi_at: HashMap<BlockId, VReg> = HashMap::new();
    let mut work: Vec<BlockId> = def_blocks.iter().copied().collect();
    work.sort();
    let mut placed: HashSet<BlockId> = HashSet::new();
    while let Some(b) = work.pop() {
        for &d in frontiers.get(&b).into_iter().flatten() {
            if !reachable_set.contains(&d) || !placed.insert(d) {
                continue;
            }
            let fresh = f.vreg();
            f.block_mut(d)
                .insts
                .insert(0, Inst::with_dst(fresh, Op::Phi(Vec::new())));
            phi_at.insert(d, fresh);
            if !def_blocks.contains(&d) {
                work.push(d);
            }
        }
    }

    // Reaching-definition walk over the dominator tree.
    let mut stack: Vec<VReg> = Vec::new();
    walk(f, dt, dt.root(), &members, &phi_at, &mut stack);
}

fn walk(
    f: &mut Func,
    dt: &DomTree,
    b: BlockId,
    members: &HashSet<VReg>,
    phi_at: &HashMap<BlockId, VReg>,
    stack: &mut Vec<VReg>,
) {
    let mut pushed = 0usize;
    if let Some(&pd) = phi_at.get(&b) {
        stack.push(pd);
        pushed += 1;
    }
    let n = f.block(b).insts.len();
    for i in 0..n {
        let inst = &mut f.block_mut(b).insts[i];
        let is_phi = matches!(inst.op, Op::Phi(_));
        if !is_phi {
            for a in inst.op.args_mut() {
                if members.contains(a) {
                    *a = *stack.last().unwrap_or_else(|| {
                        panic!("use of replicated value with no reaching def in {b}")
                    });
                }
            }
        }
        if let Some(d) = inst.dst {
            if members.contains(&d) {
                stack.push(d);
                pushed += 1;
            }
        }
    }
    {
        let mut term = f.block(b).term.clone();
        for a in term.args_mut() {
            if members.contains(a) {
                *a = *stack
                    .last()
                    .unwrap_or_else(|| panic!("terminator use with no reaching def in {b}"));
            }
        }
        f.block_mut(b).term = term;
    }

    // Feed successors: fill join phis and rewrite existing phi inputs
    // arriving from this block.
    let mut succs = f.succs(b);
    succs.sort();
    succs.dedup();
    for s in succs {
        let reaching = stack.last().copied();
        let sb = &mut f.block_mut(s).insts;
        for inst in sb.iter_mut() {
            let dst = inst.dst;
            if let Op::Phi(ins) = &mut inst.op {
                let is_join = phi_at.get(&s) == dst.as_ref();
                if is_join {
                    if !ins.iter().any(|(p, _)| *p == b) {
                        // Paths without a def contribute a synthesized zero
                        // (dead on such paths).
                        ins.push((b, reaching.unwrap_or(VReg(u32::MAX))));
                    }
                } else {
                    for (p, v) in ins.iter_mut() {
                        if *p == b && members.contains(v) {
                            *v = reaching
                                .unwrap_or_else(|| panic!("phi input without reaching def at {b}"));
                        }
                    }
                }
            }
        }
    }

    for c in dt.children(b).to_vec() {
        walk(f, dt, c, members, phi_at, stack);
    }
    for _ in 0..pushed {
        stack.pop();
    }
}

/// Repairs many disjoint groups at once, producing exactly the function
/// that calling [`repair_with`] on each group in order would: the same
/// fresh vreg numbers, phi order and phi input order.
///
/// Phis are placed group by group, in the per-group worklist order, so
/// fresh vregs are allocated in the same sequence; a block that receives
/// join phis from several groups gets them later group first, as repeated
/// insertion at index 0 would leave them. Groups cannot interfere during
/// the rewrite — a rewritten operand or join input never names a member of
/// another group — so one dominator-tree walk with one stack per group
/// replaces the per-group walks. The cost is one definition scan, the
/// iterated frontiers, and one walk, instead of all three per group.
///
/// # Panics
/// Panics if a value belongs to two groups, or on a use with no reaching
/// definition (as [`repair_with`]).
pub fn repair_groups<G: AsRef<[VReg]>>(
    f: &mut Func,
    groups: &[G],
    dt: &DomTree,
    frontiers: &Frontiers,
) {
    let mut group_of: HashMap<VReg, usize> = HashMap::new();
    for (g, members) in groups.iter().enumerate() {
        for &v in members.as_ref() {
            let prev = group_of.insert(v, g);
            assert!(prev.is_none_or(|p| p == g), "{v} is in two repair groups");
        }
    }

    // One definition scan for all groups.
    let reachable: Vec<BlockId> = f.rpo();
    let mut def_blocks: Vec<BTreeSet<BlockId>> = vec![BTreeSet::new(); groups.len()];
    for &b in &reachable {
        for inst in &f.block(b).insts {
            if let Some(&g) = inst.dst.and_then(|d| group_of.get(&d)) {
                def_blocks[g].insert(b);
            }
        }
    }
    // A single def dominates all its uses already.
    group_of.retain(|_, g| def_blocks[*g].len() > 1);

    // Iterated dominance frontier per group, in group order.
    let reachable_set: HashSet<BlockId> = reachable.into_iter().collect();
    let mut joins: HashMap<BlockId, Vec<(usize, VReg)>> = HashMap::new();
    let mut join_group: HashMap<VReg, usize> = HashMap::new();
    for (g, defs) in def_blocks.iter().enumerate() {
        if defs.len() <= 1 {
            continue;
        }
        let mut work: Vec<BlockId> = defs.iter().copied().collect();
        let mut placed: HashSet<BlockId> = HashSet::new();
        while let Some(b) = work.pop() {
            for &d in frontiers.get(&b).into_iter().flatten() {
                if !reachable_set.contains(&d) || !placed.insert(d) {
                    continue;
                }
                let fresh = f.vreg();
                joins.entry(d).or_default().push((g, fresh));
                join_group.insert(fresh, g);
                if !defs.contains(&d) {
                    work.push(d);
                }
            }
        }
    }
    for (&d, js) in &joins {
        let phis = js
            .iter()
            .rev()
            .map(|&(_, v)| Inst::with_dst(v, Op::Phi(Vec::new())));
        f.block_mut(d).insts.splice(0..0, phis);
    }

    // One reaching-definition walk, one stack per group.
    let ctx = GroupWalk {
        dt,
        group_of: &group_of,
        joins: &joins,
        join_group: &join_group,
    };
    let mut stacks: Vec<Vec<VReg>> = vec![Vec::new(); groups.len()];
    ctx.walk(f, dt.root(), &mut stacks);
}

/// The read-only state of [`repair_groups`]' dominator-tree walk.
struct GroupWalk<'a> {
    dt: &'a DomTree,
    /// Group of every member of a group with two or more definition blocks.
    group_of: &'a HashMap<VReg, usize>,
    /// Join phis placed at each block, as `(group, phi)` in group order.
    joins: &'a HashMap<BlockId, Vec<(usize, VReg)>>,
    /// Group of every join phi.
    join_group: &'a HashMap<VReg, usize>,
}

impl GroupWalk<'_> {
    fn walk(&self, f: &mut Func, b: BlockId, stacks: &mut [Vec<VReg>]) {
        let mut pushed: Vec<usize> = Vec::new();
        for &(g, phi) in self.joins.get(&b).into_iter().flatten() {
            stacks[g].push(phi);
            pushed.push(g);
        }
        let block = f.block_mut(b);
        for inst in &mut block.insts {
            if !matches!(inst.op, Op::Phi(_)) {
                for a in inst.op.args_mut() {
                    if let Some(&g) = self.group_of.get(a) {
                        *a = *stacks[g].last().unwrap_or_else(|| {
                            panic!("use of replicated value with no reaching def in {b}")
                        });
                    }
                }
            }
            if let Some(d) = inst.dst {
                if let Some(&g) = self.group_of.get(&d) {
                    stacks[g].push(d);
                    pushed.push(g);
                }
            }
        }
        for a in block.term.args_mut() {
            if let Some(&g) = self.group_of.get(a) {
                *a = *stacks[g]
                    .last()
                    .unwrap_or_else(|| panic!("terminator use with no reaching def in {b}"));
            }
        }

        // Feed successors: fill join phis and rewrite existing phi inputs
        // arriving from this block.
        let mut succs = f.succs(b);
        succs.sort();
        succs.dedup();
        for s in succs {
            for inst in &mut f.block_mut(s).insts {
                let dst = inst.dst;
                let Op::Phi(ins) = &mut inst.op else {
                    continue;
                };
                if let Some(&g) = dst.as_ref().and_then(|d| self.join_group.get(d)) {
                    if !ins.iter().any(|(p, _)| *p == b) {
                        // Paths without a def contribute a synthesized zero
                        // (dead on such paths).
                        let reaching = stacks[g].last().copied();
                        ins.push((b, reaching.unwrap_or(VReg(u32::MAX))));
                    }
                } else {
                    for (p, v) in ins.iter_mut() {
                        if *p != b {
                            continue;
                        }
                        if let Some(&g) = self.group_of.get(v) {
                            *v = *stacks[g]
                                .last()
                                .unwrap_or_else(|| panic!("phi input without reaching def at {b}"));
                        }
                    }
                }
            }
        }

        for &c in self.dt.children(b) {
            self.walk(f, c, stacks);
        }
        for g in pushed {
            stacks[g].pop();
        }
    }
}

/// Post-pass: any join phi input left as the `VReg(u32::MAX)` placeholder is
/// materialized as a zero constant in the predecessor. Returns the number of
/// materializations.
pub fn materialize_undef_inputs(f: &mut Func) -> usize {
    let mut fixes: Vec<(BlockId, BlockId, usize)> = Vec::new(); // (pred, block, inst idx)
    for b in f.block_ids() {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            if let Op::Phi(ins) = &inst.op {
                for (p, v) in ins {
                    if v.0 == u32::MAX {
                        fixes.push((*p, b, i));
                    }
                }
            }
        }
    }
    let count = fixes.len();
    for (p, b, i) in fixes {
        let z = f.vreg();
        let at = f.block(p).insts.len();
        f.block_mut(p)
            .insts
            .insert(at, Inst::with_dst(z, Op::Const(0)));
        if let Op::Phi(ins) = &mut f.block_mut(b).insts[i].op {
            for (pp, v) in ins.iter_mut() {
                if *pp == p && v.0 == u32::MAX {
                    *v = z;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Term;
    use crate::verify;
    use hasp_vm::bytecode::{BinOp, CmpOp, MethodId};

    /// entry -> {orig, copy} -> join -> use(v_orig)
    /// The copy defines v2 (a replica of v1); the use in join must become a
    /// phi of both.
    #[test]
    fn diamond_copy_gets_phi() {
        let mut f = Func::new("t", MethodId(0), 1);
        let p = VReg(0);
        let join = f.add_block(Term::Return(None));
        let orig = f.add_block(Term::Jump(join));
        let copy = f.add_block(Term::Jump(join));
        let v1 = f.vreg();
        let v2 = f.vreg();
        let z = f.vreg();
        f.block_mut(orig)
            .insts
            .push(Inst::with_dst(v1, Op::Const(10)));
        f.block_mut(copy)
            .insts
            .push(Inst::with_dst(v2, Op::Const(10)));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(z, Op::Const(0)));
        f.block_mut(f.entry).term = Term::Branch {
            op: CmpOp::Eq,
            a: p,
            b: z,
            t: orig,
            f: copy,
            t_count: 1,
            f_count: 1,
        };
        let out = f.vreg();
        f.block_mut(join)
            .insts
            .push(Inst::with_dst(out, Op::Bin(BinOp::Add, v1, v1)));
        f.block_mut(join).term = Term::Return(Some(out));
        assert!(verify(&f).is_err(), "broken before repair");

        repair(&mut f, &[v1, v2]);
        materialize_undef_inputs(&mut f);
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        // join got a phi over (orig v1, copy v2).
        match &f.block(join).insts[0].op {
            Op::Phi(ins) => {
                let mut vals: Vec<VReg> = ins.iter().map(|(_, v)| *v).collect();
                vals.sort();
                assert_eq!(vals, vec![v1, v2]);
            }
            other => panic!("expected join phi, got {other:?}"),
        }
    }

    /// Loop-shaped repair: def before loop and def of the replica inside the
    /// loop; use after the loop sees a header phi.
    #[test]
    fn loop_copy_gets_header_phi() {
        let mut f = Func::new("t", MethodId(0), 1);
        let p = VReg(0);
        let exit = f.add_block(Term::Return(None));
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        let v1 = f.vreg();
        let v2 = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(v1, Op::Const(1)));
        f.block_mut(f.entry).term = Term::Jump(head);
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: p,
            b: p,
            t: body,
            f: exit,
            t_count: 5,
            f_count: 1,
        };
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(v2, Op::Bin(BinOp::Add, v1, v1)));
        f.block_mut(exit).term = Term::Return(Some(v1));

        repair(&mut f, &[v1, v2]);
        materialize_undef_inputs(&mut f);
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        assert!(
            f.block(head).phi_count() >= 1,
            "header needs a merge phi:\n{}",
            f.display()
        );
    }

    #[test]
    fn single_def_untouched() {
        let mut f = Func::new("t", MethodId(0), 0);
        let v = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(v, Op::Const(3)));
        f.block_mut(f.entry).term = Term::Return(Some(v));
        repair(&mut f, &[v, VReg(99)]);
        verify(&f).unwrap();
        assert_eq!(f.block(f.entry).insts.len(), 1);
    }

    /// Three groups defined on both arms of a diamond all join in the same
    /// block. The batched repair equals the per-pair reference, and pins
    /// its order: fresh phis numbered in group order, placed later group
    /// first, inputs in dominator-tree preorder of the predecessors.
    #[test]
    fn batched_groups_sharing_a_join_block() {
        let mut f = Func::new("t", MethodId(0), 1);
        let p = VReg(0);
        let join = f.add_block(Term::Return(None));
        let orig = f.add_block(Term::Jump(join));
        let copy = f.add_block(Term::Jump(join));
        let z = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(z, Op::Const(0)));
        f.block_mut(f.entry).term = Term::Branch {
            op: CmpOp::Eq,
            a: p,
            b: z,
            t: copy,
            f: orig,
            t_count: 1,
            f_count: 1,
        };
        let mut groups: Vec<Vec<VReg>> = Vec::new();
        for k in 0..3 {
            let (v, v2) = (f.vreg(), f.vreg());
            f.block_mut(orig)
                .insts
                .push(Inst::with_dst(v, Op::Const(k)));
            f.block_mut(copy)
                .insts
                .push(Inst::with_dst(v2, Op::Const(k)));
            groups.push(vec![v, v2]);
        }
        // A group with one definition site is left alone.
        groups.push(vec![z, VReg(999)]);
        let (s1, s2) = (f.vreg(), f.vreg());
        let [v0, v1, v2] = [groups[0][0], groups[1][0], groups[2][0]];
        f.block_mut(join)
            .insts
            .push(Inst::with_dst(s1, Op::Bin(BinOp::Add, v0, v1)));
        f.block_mut(join)
            .insts
            .push(Inst::with_dst(s2, Op::Bin(BinOp::Add, s1, v2)));
        f.block_mut(join).term = Term::Return(Some(s2));

        let dt = DomTree::compute(&f);
        let frontiers = dt.frontiers(&f);
        let mut reference = f.clone();
        for g in &groups {
            repair_with(&mut reference, g, &dt, &frontiers);
        }
        let first = VReg(f.vreg_count());
        repair_groups(&mut f, &groups, &dt, &frontiers);
        assert!(
            f == reference,
            "batched:\n{}\nper-pair:\n{}",
            f.display(),
            reference.display()
        );
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));

        let phi = |k: u32| VReg(first.0 + k);
        let insts = &f.block(join).insts;
        let dsts: Vec<Option<VReg>> = insts.iter().map(|i| i.dst).collect();
        assert_eq!(
            dsts,
            vec![Some(phi(2)), Some(phi(1)), Some(phi(0)), Some(s1), Some(s2)]
        );
        for (k, g) in groups.iter().take(3).enumerate() {
            // `join` precedes `orig` and `copy` among the entry's dominator
            // children, and `orig` precedes `copy`.
            assert_eq!(
                insts[2 - k].op,
                Op::Phi(vec![(orig, g[0]), (copy, g[1])]),
                "group {k}"
            );
        }
        assert_eq!(insts[3].op, Op::Bin(BinOp::Add, phi(0), phi(1)));
        assert_eq!(insts[4].op, Op::Bin(BinOp::Add, s1, phi(2)));
        assert_eq!(f.vreg_count(), first.0 + 3);
    }
}
