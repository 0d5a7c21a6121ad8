//! SSA construction (Cytron-style: iterated dominance frontiers + dominator
//! tree renaming).
//!
//! Translation produces code where bytecode registers `VReg(0..num_vars)` are
//! mutable variables; this pass rewrites them into SSA form with explicit
//! phis. Temporaries allocated during translation are already single-def and
//! left untouched.

use std::collections::{HashMap, HashSet};

use crate::dom::DomTree;
use crate::func::Func;
use crate::instr::{BlockId, Inst, Op, VReg};

/// Rewrites variables `VReg(0)..VReg(num_vars)` into SSA form.
///
/// Requires every variable to be defined before use on all paths; the
/// translator guarantees this by zero-initializing non-argument variables in
/// the entry block (arguments are live-in at entry).
pub fn construct(f: &mut Func, num_vars: u32) {
    let is_var = |v: VReg| v.0 < num_vars;
    let dt = DomTree::compute(f);
    let frontiers = dt.frontiers(f);
    let reachable: HashSet<BlockId> = f.rpo().into_iter().collect();

    // Def sites per variable.
    let mut def_sites: HashMap<VReg, HashSet<BlockId>> = HashMap::new();
    for &b in &reachable {
        for inst in &f.block(b).insts {
            if let Some(d) = inst.dst {
                if is_var(d) {
                    def_sites.entry(d).or_default().insert(b);
                }
            }
        }
    }
    // Parameters are defined at entry.
    for i in 0..f.params {
        def_sites
            .entry(VReg(u32::from(i)))
            .or_default()
            .insert(f.entry);
    }

    // Insert phi placeholders at iterated dominance frontiers.
    // phi_for[(block, slot)] = variable (slot = index among leading phis).
    let mut phi_var: HashMap<(BlockId, usize), VReg> = HashMap::new();
    let mut vars: Vec<VReg> = def_sites.keys().copied().collect();
    vars.sort();
    for v in vars {
        let mut work: Vec<BlockId> = def_sites[&v].iter().copied().collect();
        work.sort();
        let mut has_phi: HashSet<BlockId> = HashSet::new();
        while let Some(b) = work.pop() {
            for &d in frontiers.get(&b).into_iter().flatten() {
                if !reachable.contains(&d) || !has_phi.insert(d) {
                    continue;
                }
                let slot = f.block(d).phi_count();
                f.block_mut(d)
                    .insts
                    .insert(slot, Inst::with_dst(v, Op::Phi(Vec::new())));
                // Re-key any phis recorded after this slot in the same block.
                let mut rekey: Vec<((BlockId, usize), VReg)> = Vec::new();
                for (&(bb, s), &vv) in &phi_var {
                    if bb == d && s >= slot {
                        rekey.push(((bb, s), vv));
                    }
                }
                rekey.sort_by_key(|&((_, s), _)| std::cmp::Reverse(s));
                for ((bb, s), vv) in rekey {
                    phi_var.remove(&(bb, s));
                    phi_var.insert((bb, s + 1), vv);
                }
                phi_var.insert((d, slot), v);
                if !def_sites[&v].contains(&d) {
                    work.push(d);
                }
            }
        }
    }

    // Renaming via dominator-tree walk.
    let mut stacks: HashMap<VReg, Vec<VReg>> = HashMap::new();
    for i in 0..f.params {
        // Parameter values arrive in their original registers.
        stacks.insert(VReg(u32::from(i)), vec![VReg(u32::from(i))]);
    }

    rename(f, &dt, f.entry, num_vars, &mut stacks, &phi_var);
}

fn rename(
    f: &mut Func,
    dt: &DomTree,
    b: BlockId,
    num_vars: u32,
    stacks: &mut HashMap<VReg, Vec<VReg>>,
    phi_var: &HashMap<(BlockId, usize), VReg>,
) {
    let is_var = |v: VReg| v.0 < num_vars;
    let mut pushed: Vec<VReg> = Vec::new();

    // Rewrite instructions.
    let n_insts = f.block(b).insts.len();
    for i in 0..n_insts {
        let is_phi = matches!(f.block(b).insts[i].op, Op::Phi(_));
        if !is_phi {
            // Replace variable uses with current SSA names.
            let mut inst = f.block(b).insts[i].clone();
            for a in inst.op.args_mut() {
                if is_var(*a) {
                    *a = *stacks
                        .get(a)
                        .and_then(|s| s.last())
                        .unwrap_or_else(|| panic!("use of {a} before def in {}", f.name));
                }
            }
            f.block_mut(b).insts[i] = inst;
        }
        // New SSA name for variable defs (including phis).
        if let Some(d) = f.block(b).insts[i].dst {
            if is_var(d) {
                let fresh = f.vreg();
                f.block_mut(b).insts[i].dst = Some(fresh);
                stacks.entry(d).or_default().push(fresh);
                pushed.push(d);
            }
        }
    }
    // Terminator uses.
    {
        let mut term = f.block(b).term.clone();
        for a in term.args_mut() {
            if is_var(*a) {
                *a = *stacks
                    .get(a)
                    .and_then(|s| s.last())
                    .unwrap_or_else(|| panic!("use of {a} in terminator before def in {}", f.name));
            }
        }
        f.block_mut(b).term = term;
    }

    // Fill phi operands in successors.
    let mut succs = f.succs(b);
    succs.dedup();
    let mut seen: HashSet<BlockId> = HashSet::new();
    for s in succs {
        if !seen.insert(s) {
            continue;
        }
        let phi_count = f.block(s).phi_count();
        for slot in 0..phi_count {
            let Some(&v) = phi_var.get(&(s, slot)) else {
                continue;
            };
            let cur = stacks
                .get(&v)
                .and_then(|st| st.last())
                .copied()
                .unwrap_or_else(|| panic!("phi input for {v} undefined on edge {b}->{s}"));
            if let Op::Phi(ins) = &mut f.block_mut(s).insts[slot].op {
                ins.push((b, cur));
            }
        }
    }

    // Recurse into dominated blocks.
    for &c in dt.children(b).to_vec().iter() {
        rename(f, dt, c, num_vars, stacks, phi_var);
    }

    // Pop this block's definitions.
    for v in pushed {
        stacks.get_mut(&v).expect("pushed").pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Term;
    use crate::verify;
    use hasp_vm::bytecode::{BinOp, CmpOp, MethodId};

    /// Builds pre-SSA code equivalent to:
    /// ```text
    /// x = 0; i = 0;
    /// while (i < n) { x = x + i; i = i + 1; }
    /// return x
    /// ```
    /// with `n` as VReg(0) (parameter), `x` = VReg(1), `i` = VReg(2).
    fn loop_func() -> Func {
        let mut f = Func::new("l", MethodId(0), 1);
        let (n, x, i) = (VReg(0), VReg(1), VReg(2));
        f.vreg(); // reserve v1
        f.vreg(); // reserve v2
        let exit = f.add_block(Term::Return(Some(x)));
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(x, Op::Const(0)));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(i, Op::Const(0)));
        f.block_mut(f.entry).term = Term::Jump(head);
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: i,
            b: n,
            t: body,
            f: exit,
            t_count: 10,
            f_count: 1,
        };
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(x, Op::Bin(BinOp::Add, x, i)));
        let one = f.vreg();
        f.block_mut(body)
            .insts
            .insert(0, Inst::with_dst(one, Op::Const(1)));
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(i, Op::Bin(BinOp::Add, i, one)));
        f
    }

    #[test]
    fn loop_gets_phis_at_header() {
        let mut f = loop_func();
        construct(&mut f, 3);
        verify::verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        let head = BlockId(2);
        let phis = f.block(head).phi_count();
        assert_eq!(
            phis,
            2,
            "x and i need phis at the loop header:\n{}",
            f.display()
        );
        // Each phi has two inputs: entry and body.
        for inst in f.block(head).phis() {
            if let Op::Phi(ins) = &inst.op {
                assert_eq!(ins.len(), 2);
            }
        }
    }

    #[test]
    fn straightline_needs_no_phis() {
        let mut f = Func::new("s", MethodId(0), 1);
        let v = VReg(1);
        f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(v, Op::Const(5)));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(v, Op::Bin(BinOp::Add, v, VReg(0))));
        f.block_mut(f.entry).term = Term::Return(Some(v));
        construct(&mut f, 2);
        verify::verify(&f).unwrap();
        let phis: usize = f.block_ids().iter().map(|b| f.block(*b).phi_count()).sum();
        assert_eq!(phis, 0);
        // The redefinition got a fresh name and the return uses it.
        match f.block(f.entry).term {
            Term::Return(Some(r)) => {
                assert_eq!(r, f.block(f.entry).insts[1].dst.unwrap());
                assert_ne!(r, f.block(f.entry).insts[0].dst.unwrap());
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn diamond_join_gets_phi() {
        // if (p) v = 1 else v = 2; return v
        let mut f = Func::new("d", MethodId(0), 1);
        let v = VReg(1);
        f.vreg();
        let join = f.add_block(Term::Return(Some(v)));
        let t = f.add_block(Term::Jump(join));
        let e = f.add_block(Term::Jump(join));
        f.block_mut(t).insts.push(Inst::with_dst(v, Op::Const(1)));
        f.block_mut(e).insts.push(Inst::with_dst(v, Op::Const(2)));
        let zero = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(zero, Op::Const(0)));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(v, Op::Const(0)));
        f.block_mut(f.entry).term = Term::Branch {
            op: CmpOp::Ne,
            a: VReg(0),
            b: zero,
            t,
            f: e,
            t_count: 1,
            f_count: 1,
        };
        construct(&mut f, 2);
        verify::verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        assert_eq!(f.block(join).phi_count(), 1, "{}", f.display());
    }
}
