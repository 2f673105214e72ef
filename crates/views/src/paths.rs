//! Simple-path utilities used by the election-task verifiers and the exact
//! election-index computations.
//!
//! The three "strong" election tasks are all phrased in terms of *simple paths to the
//! leader*:
//!
//! * `PE` — a node's output port is correct iff it is the first port of **some** simple
//!   path from the node to the leader;
//! * `PPE` — the output port sequence, followed from the node, must trace a simple path
//!   ending at the leader;
//! * `CPPE` — ditto, and every traversed edge's far-end port must match the output.
//!
//! The first condition reduces to reachability of the leader in `G − v` from the chosen
//! neighbour; the other two are direct walks. The exact `ψ_PPE` / `ψ_CPPE` computations
//! additionally need to *enumerate* candidate simple paths, which is done here with an
//! explicit cap so it is only used on small graphs.
//!
//! **The lowpoint lemma behind the PE check.** Take a depth-first tree rooted at the
//! leader, with preorder numbers `disc` and, per node `x`, `low[x]` = the least `disc`
//! of a node in or adjacent to `x`'s subtree. For a non-leader `v` with neighbour `u`
//! (through port `p`), the leader is reachable from `u` in `G − v` iff
//!
//! * `u` lies outside `v`'s subtree — then `u`'s tree path to the root avoids `v`; or
//! * `u` lies in the subtree of the child `c` of `v`, and `low[c] < disc[v]` — an
//!   undirected DFS has no cross edges, so `c`'s subtree touches the rest of the graph
//!   only through `v` itself and back edges to proper ancestors of `v`, which are
//!   exactly the neighbours with `disc` below `disc[v]`.
//!
//! For the same reason a neighbour outside `v`'s subtree is an ancestor of `v`: the
//! first case is just `disc[u] < disc[v]`.
//!
//! [`LeaderCuts`] records `disc`, `low` and the last `disc` in each subtree with one
//! iterative `O(n + m)` DFS per leader, and then answers the PE predicate in
//! `O(deg v)`. [`pe_port_is_valid`] keeps the one-BFS-per-query definition as the
//! reference oracle.

use anet_graph::{NodeId, Port, PortGraph};

/// Is `target` reachable from `from` in the graph with node `avoid` deleted?
/// (`from == target` counts as reachable provided `from != avoid`.) The search
/// stops as soon as it sees `target`.
pub fn reaches_avoiding(g: &PortGraph, from: NodeId, target: NodeId, avoid: NodeId) -> bool {
    if from == avoid || target == avoid {
        return false;
    }
    if from == target {
        return true;
    }
    let mut seen = vec![false; g.num_nodes()];
    seen[from as usize] = true;
    seen[avoid as usize] = true;
    let mut stack = vec![from];
    while let Some(x) = stack.pop() {
        for (_, u, _) in g.ports(x) {
            if u == target {
                return true;
            }
            if !seen[u as usize] {
                seen[u as usize] = true;
                stack.push(u);
            }
        }
    }
    false
}

/// Is port `p` at node `v` the first port of some simple path from `v` to `leader`?
/// This is the per-node correctness condition of the Port Election task.
pub fn pe_port_is_valid(g: &PortGraph, v: NodeId, p: Port, leader: NodeId) -> bool {
    if v == leader {
        return false;
    }
    match g.neighbor(v, p) {
        None => false,
        Some((u, _)) => u == leader || reaches_avoiding(g, u, leader, v),
    }
}

/// `disc` of a node the DFS has not reached.
const UNSEEN: u32 = u32::MAX;

/// The lowpoint structure of a graph seen from one leader: one iterative DFS
/// rooted at the leader, after which the Port Election predicate costs `O(deg v)`
/// per query instead of one BFS (see the lowpoint lemma in the module docs).
/// Answers exactly as [`pe_port_is_valid`] for every `(v, p)`.
#[derive(Debug)]
pub struct LeaderCuts<'a> {
    g: &'a PortGraph,
    leader: NodeId,
    /// Preorder number per node ([`UNSEEN`] if unreachable from the leader).
    disc: Vec<u32>,
    /// Least `disc` of a node in or adjacent to the node's subtree.
    low: Vec<u32>,
    /// Last `disc` in the node's subtree: the subtree is `disc[x]..=end[x]`.
    end: Vec<u32>,
    /// Arena for the DFS stack: `(node, next port to scan)`.
    stack: Vec<(NodeId, Port)>,
}

impl<'a> LeaderCuts<'a> {
    /// Run the DFS on `g` from `leader`. `O(n + m)`.
    pub fn new(g: &'a PortGraph, leader: NodeId) -> Self {
        let n = g.num_nodes();
        let mut cuts = LeaderCuts {
            g,
            leader,
            disc: vec![UNSEEN; n],
            low: vec![0; n],
            end: vec![0; n],
            stack: vec![(0, 0); n],
        };
        cuts.rebuild(leader);
        cuts
    }

    /// Rerun the DFS from another leader, reusing the arrays.
    pub fn rebuild(&mut self, leader: NodeId) {
        self.leader = leader;
        lowpoint_dfs(
            self.g,
            leader,
            &mut self.disc,
            &mut self.low,
            &mut self.end,
            &mut self.stack,
        );
    }

    /// The leader the DFS is rooted at.
    pub fn leader(&self) -> NodeId {
        self.leader
    }

    /// Is port `p` at `v` the first port of some simple path from `v` to the
    /// leader? Same answer as [`pe_port_is_valid`], in `O(deg v)`.
    pub fn pe_port_is_valid(&self, v: NodeId, p: Port) -> bool {
        if v == self.leader {
            return false;
        }
        let Some((u, _)) = self.g.neighbor(v, p) else {
            return false;
        };
        let dv = self.disc[v as usize];
        if dv == UNSEEN {
            return false;
        }
        // A neighbour is an ancestor or a descendant of `v` (no cross edges).
        // An ancestor (the leader included): its tree path avoids `v`.
        let du = self.disc[u as usize];
        if du < dv {
            return true;
        }
        // A descendant: the subtree of the child `c` holding `u` must reach above
        // `v`. `c` is one of the descendant neighbours whose subtree holds `u`;
        // the others lie inside `c`'s subtree, so their `low` is no lower.
        self.g.ports(v).any(|(_, c, _)| {
            let dc = self.disc[c as usize];
            dv < dc && dc <= du && du <= self.end[c as usize] && self.low[c as usize] < dv
        })
    }
}

/// The lowpoint DFS: iterative (graphs reach 10⁵ nodes), over caller-owned
/// arenas of length `n`, filling `disc`/`low`/`end` for every node
/// reachable from `root`.
// anet-lint: hot-path
fn lowpoint_dfs(
    g: &PortGraph,
    root: NodeId,
    disc: &mut [u32],
    low: &mut [u32],
    end: &mut [u32],
    stack: &mut [(NodeId, Port)],
) {
    for d in disc.iter_mut() {
        *d = UNSEEN;
    }
    disc[root as usize] = 0;
    low[root as usize] = 0;
    stack[0] = (root, 0);
    let (mut top, mut next) = (1usize, 1u32);
    while top > 0 {
        let (x, p) = stack[top - 1];
        match g.neighbor(x, p) {
            Some((u, _)) => {
                stack[top - 1].1 = p + 1;
                if disc[u as usize] == UNSEEN {
                    disc[u as usize] = next;
                    low[u as usize] = next;
                    next += 1;
                    stack[top] = (u, 0);
                    top += 1;
                } else {
                    low[x as usize] = low[x as usize].min(disc[u as usize]);
                }
            }
            None => {
                end[x as usize] = next - 1;
                top -= 1;
                if top > 0 {
                    let up = stack[top - 1].0 as usize;
                    low[up] = low[up].min(low[x as usize]);
                }
            }
        }
    }
}

/// Does the outgoing-port sequence `ports`, followed from `v`, trace a *simple* path
/// that ends at `leader`? This is the per-node correctness condition of PPE.
pub fn ppe_sequence_is_valid(g: &PortGraph, v: NodeId, ports: &[Port], leader: NodeId) -> bool {
    if v == leader {
        return false;
    }
    match g.follow_outgoing_ports(v, ports) {
        None => false,
        Some(nodes) => PortGraph::is_simple_node_sequence(&nodes) && nodes.last() == Some(&leader),
    }
}

/// Does the `(outgoing, incoming)` port-pair sequence, followed from `v`, trace a
/// simple path ending at `leader` with every incoming port matching? This is the
/// per-node correctness condition of CPPE.
pub fn cppe_sequence_is_valid(
    g: &PortGraph,
    v: NodeId,
    ports: &[(Port, Port)],
    leader: NodeId,
) -> bool {
    if v == leader {
        return false;
    }
    match g.follow_full_ports(v, ports) {
        None => false,
        Some(nodes) => PortGraph::is_simple_node_sequence(&nodes) && nodes.last() == Some(&leader),
    }
}

/// Result of a capped enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Enumeration<T> {
    /// All objects were enumerated.
    Complete(Vec<T>),
    /// The cap was hit; the enumeration is incomplete.
    Truncated(Vec<T>),
}

impl<T> Enumeration<T> {
    /// The enumerated items, regardless of completeness.
    pub fn items(&self) -> &[T] {
        match self {
            Enumeration::Complete(v) | Enumeration::Truncated(v) => v,
        }
    }

    /// Was the enumeration complete?
    pub fn is_complete(&self) -> bool {
        matches!(self, Enumeration::Complete(_))
    }
}

/// DFS edge-extension steps allowed per enumerated path: the implicit step
/// budget of [`simple_paths`] is `max_paths · STEPS_PER_PATH`.
///
/// The path cap alone does not bound the running time: it only counts *completed*
/// paths, while on dense shuffled topologies (circulants and tori from ~256 nodes
/// up) the DFS can wander exponentially among dead-end prefixes that never reach
/// the target, completing no path and therefore never touching the cap. The step
/// budget charges every edge extension, completed or not, so the enumeration
/// always terminates — as `Truncated` when the budget runs out, which the
/// election-index ladder reports as its typed `PathBudgetExceeded` error. The
/// factor is generous enough that every enumeration the equivalence corpora
/// complete (n ≤ 16, and sparse random-regular up to the path cap) is unaffected.
const STEPS_PER_PATH: usize = 256;

/// Enumerate simple paths from `from` to `to` (as node sequences including both
/// endpoints), depth-first in increasing port order, up to `max_paths` paths and
/// at most `max_paths · STEPS_PER_PATH` DFS steps (see
/// [`simple_paths_bounded`] for an explicit step budget).
pub fn simple_paths(
    g: &PortGraph,
    from: NodeId,
    to: NodeId,
    max_paths: usize,
) -> Enumeration<Vec<NodeId>> {
    simple_paths_bounded(
        g,
        from,
        to,
        max_paths,
        max_paths.saturating_mul(STEPS_PER_PATH),
    )
}

/// [`simple_paths`] with an explicit DFS step budget: every edge extension costs
/// one step, and exhausting `max_steps` truncates the enumeration exactly like
/// hitting `max_paths` does. `Complete` is returned only when the search space
/// was genuinely exhausted, so the completeness signal stays sound.
pub fn simple_paths_bounded(
    g: &PortGraph,
    from: NodeId,
    to: NodeId,
    max_paths: usize,
    max_steps: usize,
) -> Enumeration<Vec<NodeId>> {
    let mut found = Vec::new();
    let mut on_path = vec![false; g.num_nodes()];
    let mut path = vec![from];
    let mut steps = max_steps;
    on_path[from as usize] = true;
    let truncated = dfs(
        g,
        from,
        to,
        max_paths,
        &mut steps,
        &mut on_path,
        &mut path,
        &mut found,
    );
    if truncated {
        Enumeration::Truncated(found)
    } else {
        Enumeration::Complete(found)
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    g: &PortGraph,
    cur: NodeId,
    to: NodeId,
    max_paths: usize,
    steps: &mut usize,
    on_path: &mut Vec<bool>,
    path: &mut Vec<NodeId>,
    found: &mut Vec<Vec<NodeId>>,
) -> bool {
    if cur == to {
        found.push(path.clone());
        return found.len() >= max_paths;
    }
    for (_, u, _) in g.ports(cur) {
        if on_path[u as usize] {
            continue;
        }
        if *steps == 0 {
            return true;
        }
        *steps -= 1;
        on_path[u as usize] = true;
        path.push(u);
        let full = dfs(g, u, to, max_paths, steps, on_path, path, found);
        path.pop();
        on_path[u as usize] = false;
        if full {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators;

    #[test]
    fn pe_validity_on_the_line() {
        let g = generators::paper_three_node_line();
        // Leader = node 2 (right end). Node 0 must use port 0; node 1 must use port 1.
        assert!(pe_port_is_valid(&g, 0, 0, 2));
        assert!(!pe_port_is_valid(&g, 0, 1, 2)); // port does not exist
        assert!(pe_port_is_valid(&g, 1, 1, 2));
        assert!(!pe_port_is_valid(&g, 1, 0, 2)); // leads away, dead end
        assert!(!pe_port_is_valid(&g, 2, 0, 2)); // the leader itself has no valid port
    }

    #[test]
    fn pe_validity_on_a_cycle_allows_both_directions() {
        let g = generators::symmetric_ring(5).unwrap();
        // On a cycle every non-leader node can go either way.
        for v in 1..5u32 {
            assert!(pe_port_is_valid(&g, v, 0, 0));
            assert!(pe_port_is_valid(&g, v, 1, 0));
        }
    }

    #[test]
    fn ppe_validity_checks_simplicity_and_endpoint() {
        let g = generators::symmetric_ring(4).unwrap();
        // Port 0 is "clockwise": 1 -> 2 -> 3 -> 0.
        assert!(ppe_sequence_is_valid(&g, 1, &[0, 0, 0], 0));
        // Counter-clockwise single step 1 -> 0.
        assert!(ppe_sequence_is_valid(&g, 1, &[1], 0));
        // Wrong endpoint.
        assert!(!ppe_sequence_is_valid(&g, 1, &[0], 0));
        // Non-simple walk (forward then back then forward …).
        assert!(!ppe_sequence_is_valid(&g, 1, &[0, 1, 0, 0, 0], 0));
        // Nonexistent port.
        assert!(!ppe_sequence_is_valid(&g, 1, &[7], 0));
        // The leader itself never outputs a path.
        assert!(!ppe_sequence_is_valid(&g, 0, &[], 0));
    }

    #[test]
    fn cppe_validity_checks_far_ports_too() {
        let g = generators::paper_three_node_line();
        // Path 0 -> 1 -> 2 has port pairs (0,0) then (1,0).
        assert!(cppe_sequence_is_valid(&g, 0, &[(0, 0), (1, 0)], 2));
        assert!(!cppe_sequence_is_valid(&g, 0, &[(0, 1), (1, 0)], 2));
        assert!(!cppe_sequence_is_valid(&g, 0, &[(0, 0)], 2));
    }

    #[test]
    fn simple_path_enumeration_on_cycle() {
        let g = generators::symmetric_ring(5).unwrap();
        let e = simple_paths(&g, 1, 3, 100);
        assert!(e.is_complete());
        // On a cycle there are exactly two simple paths between any two nodes.
        assert_eq!(e.items().len(), 2);
        for p in e.items() {
            assert!(PortGraph::is_simple_node_sequence(p));
            assert_eq!(*p.first().unwrap(), 1);
            assert_eq!(*p.last().unwrap(), 3);
        }
    }

    #[test]
    fn simple_path_enumeration_respects_cap() {
        let g = generators::complete(6).unwrap();
        let capped = simple_paths(&g, 0, 5, 3);
        assert!(!capped.is_complete());
        assert_eq!(capped.items().len(), 3);

        let full = simple_paths(&g, 0, 5, 10_000);
        assert!(full.is_complete());
        // Number of simple paths from a fixed source to a fixed target in K_6:
        // sum over subsets of the other 4 nodes ordered: 1 + 4 + 4·3 + 4·3·2 + 4! = 65.
        assert_eq!(full.items().len(), 65);
    }

    #[test]
    fn step_budget_truncates_before_the_path_cap() {
        let g = generators::complete(6).unwrap();
        // A tiny step budget ends the search long before the 65 paths exist,
        // and the result is honestly marked incomplete.
        let starved = simple_paths_bounded(&g, 0, 5, 10_000, 10);
        assert!(!starved.is_complete());
        assert!(starved.items().len() < 65);
        // With the budget out of the way the enumeration is complete again.
        let full = simple_paths_bounded(&g, 0, 5, 10_000, usize::MAX);
        assert!(full.is_complete());
        assert_eq!(full.items().len(), 65);
        // The implicit budget of `simple_paths` is far above what small graphs
        // need: same complete answer.
        assert_eq!(simple_paths(&g, 0, 5, 10_000), full);
    }

    #[test]
    fn path_from_node_to_itself_is_the_trivial_path() {
        let g = generators::star(3).unwrap();
        let e = simple_paths(&g, 2, 2, 10);
        assert!(e.is_complete());
        assert_eq!(e.items(), &[vec![2]]);
    }

    #[test]
    fn reaches_avoiding_blocks_cut_vertices() {
        let g = generators::star(3).unwrap();
        assert!(reaches_avoiding(&g, 1, 0, 2));
        assert!(!reaches_avoiding(&g, 1, 2, 0)); // centre removed: leaves separated
        assert!(!reaches_avoiding(&g, 1, 2, 1));
        assert!(!reaches_avoiding(&g, 1, 2, 2));
    }
}
