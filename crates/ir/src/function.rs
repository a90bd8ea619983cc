//! Functions: control-flow graphs of basic blocks.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::entity_id;
use crate::expr::{Expr, Operand, Rvalue, Var};
use crate::instr::{Instr, Terminator};

entity_id! {
    /// A basic-block id, indexing into [`Function`]'s block table.
    pub struct BlockId, "bb"
}

entity_id! {
    /// A dense control-flow-edge id, valid for one [`EdgeList`].
    pub struct EdgeId, "e"
}

/// A basic block: a label, straight-line instructions and a terminator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockData {
    /// Human-readable label (unique within the function).
    pub name: String,
    /// Straight-line instructions, executed in order.
    pub instrs: Vec<Instr>,
    /// Control transfer out of the block.
    pub term: Terminator,
}

impl BlockData {
    /// Creates an empty block with the given label, terminated by `Exit`.
    pub fn new(name: impl Into<String>) -> Self {
        BlockData {
            name: name.into(),
            instrs: Vec::new(),
            term: Terminator::Exit,
        }
    }

    /// Iterates over the candidate expressions computed in this block, in
    /// instruction order.
    pub fn exprs(&self) -> impl Iterator<Item = Expr> + '_ {
        self.instrs.iter().filter_map(|i| match i {
            Instr::Assign {
                rv: Rvalue::Expr(e),
                ..
            } => Some(*e),
            _ => None,
        })
    }
}

/// Interns variable names to dense [`Var`] indices.
///
/// ```
/// use lcm_ir::SymbolTable;
///
/// let mut syms = SymbolTable::new();
/// let a = syms.intern("a");
/// assert_eq!(syms.intern("a"), a);
/// assert_eq!(syms.name(a), "a");
/// ```
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct SymbolTable {
    /// Names in [`Var`] order. Each shares its one allocation with its
    /// `index` key, so interning a name allocates once and cloning a
    /// table copies no strings.
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, Var>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its variable (existing or fresh).
    pub fn intern(&mut self, name: impl AsRef<str>) -> Var {
        let name = name.as_ref();
        if let Some(&v) = self.index.get(name) {
            return v;
        }
        let v = Var(u32::try_from(self.names.len()).expect("too many variables"));
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.index.insert(name, v);
        v
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: impl AsRef<str>) -> Option<Var> {
        self.index.get(name.as_ref()).copied()
    }

    /// Returns the textual name of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not interned in this table.
    pub fn name(&self, v: Var) -> &str {
        &self.names[v.index()]
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no variables are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Creates a fresh variable whose name starts with `prefix` and collides
    /// with no existing name.
    pub fn fresh(&mut self, prefix: &str) -> Var {
        let mut n = self.names.len();
        loop {
            let candidate = format!("{prefix}{n}");
            if !self.index.contains_key(candidate.as_str()) {
                return self.intern(candidate);
            }
            n += 1;
        }
    }

    /// Iterates over `(var, name)` pairs in dense order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Var(i as u32), &**n))
    }
}

/// A control-flow edge `from → to`.
///
/// `succ_index` identifies which successor slot of `from` the edge occupies
/// (0 for a jump or the then-target, 1 for the else-target), so parallel
/// edges between the same pair of blocks are distinct.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
    /// Successor slot in `from`'s terminator occupied by this edge.
    pub succ_index: u8,
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} -> {})", self.from, self.to)
    }
}

/// A dense numbering of a function's control-flow edges.
///
/// Edge-valued analyses (EARLIEST, LATER, INSERT) index their bit vectors by
/// [`EdgeId`]. The list is a snapshot: it is invalidated by any mutation of
/// the function's control flow.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EdgeList {
    edges: Vec<Edge>,
    /// Outgoing edge ids per block, in successor order.
    out: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per block.
    into: Vec<Vec<EdgeId>>,
}

impl EdgeList {
    /// Snapshots the edges of `f`.
    pub fn new(f: &Function) -> Self {
        let n = f.num_blocks();
        let mut edges = Vec::new();
        let mut out = vec![Vec::new(); n];
        let mut into = vec![Vec::new(); n];
        for b in f.block_ids() {
            for (i, to) in f.block(b).term.successors().enumerate() {
                let id = EdgeId::from_index(edges.len());
                edges.push(Edge {
                    from: b,
                    to,
                    succ_index: i as u8,
                });
                out[b.index()].push(id);
                into[to.index()].push(id);
            }
        }
        EdgeList { edges, out, into }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the function has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edge with the given id.
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.index()]
    }

    /// Ids of edges leaving `b`, in successor order.
    pub fn outgoing(&self, b: BlockId) -> &[EdgeId] {
        &self.out[b.index()]
    }

    /// Ids of edges entering `b`.
    pub fn incoming(&self, b: BlockId) -> &[EdgeId] {
        &self.into[b.index()]
    }

    /// Iterates over `(id, edge)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &e)| (EdgeId::from_index(i), e))
    }
}

/// A function: a CFG with a unique entry block and a unique exit block.
///
/// Blocks are stored densely and identified by [`BlockId`]. The structure
/// deliberately allows transient ill-formedness while being built or
/// transformed; [`verify`](crate::verify) checks the invariants
/// (entry has no predecessors, exactly the exit block carries
/// [`Terminator::Exit`], everything is reachable from entry and reaches
/// exit).
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    /// Function name.
    pub name: String,
    pub(crate) blocks: Vec<BlockData>,
    pub(crate) entry: BlockId,
    pub(crate) exit: BlockId,
    /// Variable names.
    pub symbols: SymbolTable,
}

impl Function {
    /// Creates a function with empty `entry` and `exit` blocks, with the
    /// entry jumping to the exit.
    pub fn new(name: impl Into<String>) -> Self {
        let mut f = Function {
            name: name.into(),
            blocks: Vec::new(),
            entry: BlockId(0),
            exit: BlockId(1),
            symbols: SymbolTable::new(),
        };
        let entry = f.add_block(BlockData::new("entry"));
        let exit = f.add_block(BlockData::new("exit"));
        f.blocks[entry.index()].term = Terminator::Jump(exit);
        f.entry = entry;
        f.exit = exit;
        f
    }

    /// The entry block (no predecessors).
    #[inline]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The exit block (terminated by [`Terminator::Exit`]).
    #[inline]
    pub fn exit(&self) -> BlockId {
        self.exit
    }

    /// Number of basic blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of instructions across all blocks.
    pub fn num_instrs(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Iterates over all block ids in dense order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Borrows a block.
    #[inline]
    pub fn block(&self, b: BlockId) -> &BlockData {
        &self.blocks[b.index()]
    }

    /// Mutably borrows a block.
    #[inline]
    pub fn block_mut(&mut self, b: BlockId) -> &mut BlockData {
        &mut self.blocks[b.index()]
    }

    /// Appends a block, uniquifying its label if necessary.
    pub fn add_block(&mut self, mut data: BlockData) -> BlockId {
        if self.blocks.iter().any(|b| b.name == data.name) {
            let base = data.name.clone();
            let mut i = self.blocks.len();
            loop {
                let candidate = format!("{base}.{i}");
                if !self.blocks.iter().any(|b| b.name == candidate) {
                    data.name = candidate;
                    break;
                }
                i += 1;
            }
        }
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(data);
        id
    }

    /// Finds a block by label.
    pub fn block_by_name(&self, name: &str) -> Option<BlockId> {
        self.blocks
            .iter()
            .position(|b| b.name == name)
            .map(BlockId::from_index)
    }

    /// Successors of `b`, in terminator order (then possibly duplicated).
    pub fn succs(&self, b: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        self.block(b).term.successors()
    }

    /// Computes the predecessor table (one `Vec` per block, with duplicates
    /// for parallel edges). O(blocks + edges); recompute after mutation.
    pub fn preds(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in self.block_ids() {
            for s in self.succs(b) {
                preds[s.index()].push(b);
            }
        }
        preds
    }

    /// Interns a variable name.
    pub fn var(&mut self, name: impl AsRef<str>) -> Var {
        self.symbols.intern(name)
    }

    /// Returns the textual name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not interned in this function.
    pub fn var_name(&self, v: Var) -> &str {
        self.symbols.name(v)
    }

    /// Creates a fresh temporary (named `t0`, `t1`, … avoiding collisions).
    pub fn fresh_temp(&mut self) -> Var {
        self.symbols.fresh("t")
    }

    /// Iterates over every candidate expression occurrence in the function
    /// as `(block, instr index, expr)`.
    pub fn expr_occurrences(&self) -> impl Iterator<Item = (BlockId, usize, Expr)> + '_ {
        self.block_ids().flat_map(move |b| {
            self.block(b)
                .instrs
                .iter()
                .enumerate()
                .filter_map(move |(i, instr)| match instr {
                    Instr::Assign {
                        rv: Rvalue::Expr(e),
                        ..
                    } => Some((b, i, *e)),
                    _ => None,
                })
        })
    }

    /// The deduplicated, deterministically ordered set of candidate
    /// expressions occurring in the function (the PRE *universe*).
    pub fn expr_universe(&self) -> Vec<Expr> {
        let mut seen = std::collections::HashSet::new();
        let mut universe = Vec::new();
        for (_, _, e) in self.expr_occurrences() {
            if seen.insert(e) {
                universe.push(e);
            }
        }
        universe
    }

    /// Splits the control-flow edge described by (`from`, `succ_index`),
    /// inserting a fresh empty block between the two endpoints, and returns
    /// the new block's id.
    ///
    /// The new block is named `from.name_to.name.split`. Existing [`EdgeList`]
    /// snapshots are invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `succ_index` is not a successor slot of `from`.
    pub fn split_edge(&mut self, from: BlockId, succ_index: u8) -> BlockId {
        let to = self
            .block(from)
            .term
            .successors()
            .nth(succ_index as usize)
            .expect("invalid successor slot");
        let name = format!("{}_{}.split", self.block(from).name, self.block(to).name);
        let mut data = BlockData::new(name);
        data.term = Terminator::Jump(to);
        let mid = self.add_block(data);
        match &mut self.blocks[from.index()].term {
            Terminator::Jump(t) => *t = mid,
            Terminator::Branch {
                then_to, else_to, ..
            } => {
                if succ_index == 0 {
                    *then_to = mid;
                } else {
                    *else_to = mid;
                }
            }
            Terminator::Exit => unreachable!("exit has no successors"),
        }
        mid
    }

    /// Inserts instruction(s) "on" the edge (`from`, `succ_index`):
    /// at the end of `from` if it has a single successor, at the start of
    /// `to` if it has a single predecessor, and otherwise by splitting the
    /// edge. Returns the block that received the instructions.
    ///
    /// `preds` must be the current predecessor table (see [`Function::preds`]);
    /// it is **not** updated when the edge is split, so batch insertions on
    /// distinct critical edges are safe but `preds` must be recomputed
    /// afterwards.
    pub fn insert_on_edge(
        &mut self,
        preds: &[Vec<BlockId>],
        from: BlockId,
        succ_index: u8,
        instrs: &[Instr],
    ) -> BlockId {
        let to = self
            .block(from)
            .term
            .successors()
            .nth(succ_index as usize)
            .expect("invalid successor slot");
        if self.succs(from).count() == 1 {
            self.blocks[from.index()].instrs.extend_from_slice(instrs);
            from
        } else if preds[to.index()].len() == 1 {
            let dst = &mut self.blocks[to.index()].instrs;
            dst.splice(0..0, instrs.iter().copied());
            to
        } else {
            let mid = self.split_edge(from, succ_index);
            self.blocks[mid.index()].instrs.extend_from_slice(instrs);
            mid
        }
    }

    /// Convenience: pushes `dst = rv` at the end of `b` (before the
    /// terminator).
    pub fn push_assign(&mut self, b: BlockId, dst: Var, rv: impl Into<Rvalue>) {
        self.blocks[b.index()]
            .instrs
            .push(Instr::Assign { dst, rv: rv.into() });
    }

    /// Convenience: pushes `obs op` at the end of `b`.
    pub fn push_observe(&mut self, b: BlockId, op: impl Into<Operand>) {
        self.blocks[b.index()]
            .instrs
            .push(Instr::Observe(op.into()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Function {
        // entry -> a, b; a -> join; b -> join; join -> exit
        let mut f = Function::new("d");
        let a = f.add_block(BlockData::new("a"));
        let b = f.add_block(BlockData::new("b"));
        let join = f.add_block(BlockData::new("join"));
        let c = f.var("c");
        let (entry, exit) = (f.entry(), f.exit());
        f.block_mut(entry).term = Terminator::Branch {
            cond: Operand::Var(c),
            then_to: a,
            else_to: b,
        };
        f.block_mut(a).term = Terminator::Jump(join);
        f.block_mut(b).term = Terminator::Jump(join);
        f.block_mut(join).term = Terminator::Jump(exit);
        f
    }

    #[test]
    fn preds_and_succs() {
        let f = diamond();
        let join = f.block_by_name("join").unwrap();
        let a = f.block_by_name("a").unwrap();
        let b = f.block_by_name("b").unwrap();
        let preds = f.preds();
        assert_eq!(preds[join.index()], vec![a, b]);
        assert_eq!(f.succs(f.entry()).collect::<Vec<_>>(), vec![a, b]);
        assert!(preds[f.entry().index()].is_empty());
    }

    #[test]
    fn edge_list_parallel_edges() {
        let mut f = Function::new("p");
        let (entry, exit) = (f.entry(), f.exit());
        let c = f.var("c");
        // Branch with both targets the same block: two parallel edges.
        f.block_mut(entry).term = Terminator::Branch {
            cond: Operand::Var(c),
            then_to: exit,
            else_to: exit,
        };
        let edges = EdgeList::new(&f);
        assert_eq!(edges.len(), 2);
        assert_eq!(edges.incoming(exit).len(), 2);
        assert_eq!(edges.outgoing(entry).len(), 2);
        let (id0, e0) = edges.iter().next().unwrap();
        assert_eq!(edges.edge(id0), e0);
        assert_eq!(e0.succ_index, 0);
    }

    #[test]
    fn split_edge_rewires() {
        let mut f = diamond();
        let a = f.block_by_name("a").unwrap();
        let mid = f.split_edge(f.entry(), 0);
        assert_eq!(f.succs(f.entry()).next(), Some(mid));
        assert_eq!(f.succs(mid).next(), Some(a));
        crate::verify(&f).unwrap();
    }

    #[test]
    fn insert_on_edge_prefers_endpoints() {
        let mut f = diamond();
        let a = f.block_by_name("a").unwrap();
        let x = f.var("x");
        let instr = Instr::Assign {
            dst: x,
            rv: Rvalue::Operand(Operand::Const(1)),
        };
        let preds = f.preds();
        // entry has two succs but `a` has a single pred: prepend to `a`.
        let placed = f.insert_on_edge(&preds, f.entry(), 0, &[instr]);
        assert_eq!(placed, a);
        assert_eq!(f.block(a).instrs.len(), 1);
        // a -> join: a has single successor: append to `a`.
        let preds = f.preds();
        let placed = f.insert_on_edge(&preds, a, 0, &[instr]);
        assert_eq!(placed, a);
        assert_eq!(f.block(a).instrs.len(), 2);
    }

    #[test]
    fn insert_on_edge_splits_critical() {
        // Build a critical edge: entry branches to {x, join}, and join also
        // has a second predecessor.
        let mut f = Function::new("crit");
        let xb = f.add_block(BlockData::new("x"));
        let join = f.add_block(BlockData::new("join"));
        let c = f.var("c");
        let (entry, exit) = (f.entry(), f.exit());
        f.block_mut(entry).term = Terminator::Branch {
            cond: Operand::Var(c),
            then_to: xb,
            else_to: join,
        };
        f.block_mut(xb).term = Terminator::Jump(join);
        f.block_mut(join).term = Terminator::Jump(exit);
        let v = f.var("v");
        let instr = Instr::Assign {
            dst: v,
            rv: Rvalue::Operand(Operand::Const(7)),
        };
        let preds = f.preds();
        let placed = f.insert_on_edge(&preds, entry, 1, &[instr]);
        assert_ne!(placed, entry);
        assert_ne!(placed, join);
        assert_eq!(f.succs(placed).collect::<Vec<_>>(), vec![join]);
        crate::verify(&f).unwrap();
    }

    #[test]
    fn expr_universe_dedups_in_order() {
        let mut f = Function::new("u");
        let a = f.var("a");
        let b = f.var("b");
        let x = f.var("x");
        let e1 = Expr::Bin(crate::BinOp::Add, Operand::Var(a), Operand::Var(b));
        let e2 = Expr::Bin(crate::BinOp::Mul, Operand::Var(a), Operand::Var(b));
        let entry = f.entry();
        f.push_assign(entry, x, e1);
        f.push_assign(entry, x, e2);
        f.push_assign(entry, x, e1);
        assert_eq!(f.expr_universe(), vec![e1, e2]);
        assert_eq!(f.expr_occurrences().count(), 3);
    }

    #[test]
    fn fresh_temp_avoids_collisions() {
        let mut f = Function::new("t");
        f.var("t2");
        let t = f.fresh_temp();
        assert_ne!(f.var_name(t), "t2");
    }

    #[test]
    fn add_block_uniquifies_names() {
        let mut f = Function::new("n");
        let b1 = f.add_block(BlockData::new("loop"));
        let b2 = f.add_block(BlockData::new("loop"));
        assert_ne!(f.block(b1).name, f.block(b2).name);
    }
}
