//! Graph algorithms over a function's CFG.
//!
//! All algorithms are iterative (no recursion, safe on huge graphs) and
//! deterministic: ties are broken by successor order and block index.

mod critical;
mod dom;
mod loops;
mod order;

pub use critical::{critical_edges, split_critical_edges, SplitOutcome};
pub use dom::{dominators, postdominators, DomTree};
pub use loops::{natural_loops, NaturalLoop};
pub use order::{postorder, reverse_postorder, rpo_index};

use crate::function::{BlockId, Function};

/// Returns, per block, whether it is reachable from the entry.
pub fn reachable_from_entry(f: &Function) -> Vec<bool> {
    let mut seen = vec![false; f.num_blocks()];
    let mut stack = vec![f.entry()];
    seen[f.entry().index()] = true;
    while let Some(b) = stack.pop() {
        for s in f.succs(b) {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// Returns, per block, whether the exit is reachable from it.
pub fn reaches_exit(f: &Function) -> Vec<bool> {
    reaches_exit_via(f, &FlatPreds::new(f))
}

/// [`reaches_exit`] over predecessors the caller already built.
pub(crate) fn reaches_exit_via(f: &Function, preds: &FlatPreds) -> Vec<bool> {
    let mut seen = vec![false; f.num_blocks()];
    let mut stack = vec![f.exit()];
    seen[f.exit().index()] = true;
    while let Some(b) = stack.pop() {
        for &p in preds.of(b) {
            if !seen[p.index()] {
                seen[p.index()] = true;
                stack.push(p);
            }
        }
    }
    seen
}

/// Every block's predecessors in one flat array, in the order
/// [`Function::preds`] lists them: two allocations instead of one per
/// block. Requires every terminator target to be a valid block id.
pub(crate) struct FlatPreds {
    /// The predecessors of block `b` are `preds[start[b]..start[b + 1]]`.
    start: Vec<usize>,
    preds: Vec<BlockId>,
}

impl FlatPreds {
    pub(crate) fn new(f: &Function) -> Self {
        let n = f.num_blocks();
        let mut start = vec![0usize; n + 1];
        for b in f.block_ids() {
            for s in f.succs(b) {
                start[s.index() + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut preds = vec![f.entry(); start[n]];
        // `start[s]` doubles as block `s`'s fill cursor, so after the fill
        // it holds `s + 1`'s start; shifting right restores it.
        for b in f.block_ids() {
            for s in f.succs(b) {
                preds[start[s.index()]] = b;
                start[s.index()] += 1;
            }
        }
        start.rotate_right(1);
        start[0] = 0;
        FlatPreds { start, preds }
    }

    /// The predecessors of `b`.
    pub(crate) fn of(&self, b: BlockId) -> &[BlockId] {
        &self.preds[self.start[b.index()]..self.start[b.index() + 1]]
    }
}

/// Enumerates every entry→exit path of an **acyclic** function, calling
/// `visit` with each path (a slice of block ids). Returns the number of
/// paths visited, or `None` if a cycle was encountered or more than
/// `max_paths` paths exist.
///
/// Used by the optimality checkers to validate the paper's theorems
/// exhaustively on small acyclic graphs.
pub fn for_each_path(
    f: &Function,
    max_paths: usize,
    mut visit: impl FnMut(&[BlockId]),
) -> Option<usize> {
    let mut path = vec![f.entry()];
    let mut on_path = vec![false; f.num_blocks()];
    on_path[f.entry().index()] = true;
    // Iterative DFS over path prefixes: `cursor[i]` is the next successor
    // slot of `path[i]` to explore.
    let mut cursor = vec![0usize];
    let mut count = 0usize;
    while let Some(&b) = path.last() {
        if b == f.exit() {
            count += 1;
            if count > max_paths {
                return None;
            }
            visit(&path);
            on_path[b.index()] = false;
            path.pop();
            cursor.pop();
            continue;
        }
        let slot = *cursor.last().expect("cursor parallels path");
        match f.succs(b).nth(slot) {
            Some(next) => {
                *cursor.last_mut().expect("cursor parallels path") += 1;
                if on_path[next.index()] {
                    return None; // cycle
                }
                on_path[next.index()] = true;
                path.push(next);
                cursor.push(0);
            }
            None => {
                on_path[b.index()] = false;
                path.pop();
                cursor.pop();
            }
        }
    }
    Some(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_function;

    #[test]
    fn path_enumeration_on_diamond() {
        let f = parse_function(
            "fn d {
             entry:
               br c, l, r
             l:
               jmp join
             r:
               jmp join
             join:
               ret
             }",
        )
        .unwrap();
        let mut paths = Vec::new();
        let n = for_each_path(&f, 100, |p| paths.push(p.to_vec())).unwrap();
        assert_eq!(n, 2);
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.len() == 3));
    }

    #[test]
    fn path_enumeration_detects_cycles() {
        let f = parse_function(
            "fn c {
             entry:
               jmp head
             head:
               br c, head, done
             done:
               ret
             }",
        )
        .unwrap();
        assert_eq!(for_each_path(&f, 100, |_| {}), None);
    }

    #[test]
    fn reachability() {
        let f = parse_function(
            "fn r {
             entry:
               br c, a, b
             a:
               jmp d
             b:
               jmp d
             d:
               ret
             }",
        )
        .unwrap();
        assert!(reachable_from_entry(&f).iter().all(|&r| r));
        assert!(reaches_exit(&f).iter().all(|&r| r));
    }

    #[test]
    fn flat_preds_match_the_nested_table() {
        // A loop, a parallel edge (`br c, j, j`) and a block with no preds.
        let f = parse_function(
            "fn p {
             entry:
               jmp head
             head:
               br c, body, done
             body:
               br c, j, j
             j:
               br c, head, done
             done:
               ret
             }",
        )
        .unwrap();
        let flat = FlatPreds::new(&f);
        for (b, nested) in f.block_ids().zip(f.preds()) {
            assert_eq!(flat.of(b), nested.as_slice(), "{b}");
        }
    }
}
