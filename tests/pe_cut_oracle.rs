//! The lowpoint Port Election check (`paths::LeaderCuts`) against the
//! one-BFS-per-query reference oracle (`paths::pe_port_is_valid`): identical
//! answers for every (leader, node, port) — out-of-range ports included — on
//! trees, rings, cliques, the paper's G/U/J constructions (full of cut vertices)
//! and seeded random connected graphs; plus a 10⁵-node path, deep enough that a
//! recursive DFS would overflow the test thread's stack.

use four_shades::constructions::{GClass, JClass, UClass};
use four_shades::graph::rng::Rng;
use four_shades::graph::{generators, NodeId, PortGraph};
use four_shades::views::paths::{pe_port_is_valid, LeaderCuts};

/// Query counts of one comparison run.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    /// Queries made (every port of every node, plus one out-of-range port).
    queries: usize,
    /// Existing ports that are *not* PE-valid: only the cut-vertex branch of
    /// the lowpoint check can reject those.
    cut_rejections: usize,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.queries += other.queries;
        self.cut_rejections += other.cut_rejections;
    }
}

/// Compare the two predicates on every `(v, p)` for each leader in `leaders`,
/// reusing one `LeaderCuts` across leaders (so `rebuild` is exercised too).
fn compare(name: &str, g: &PortGraph, leaders: &[NodeId]) -> Tally {
    let mut tally = Tally::default();
    let Some(&first) = leaders.first() else {
        return tally;
    };
    let mut cuts = LeaderCuts::new(g, first);
    for &leader in leaders {
        cuts.rebuild(leader);
        assert_eq!(cuts.leader(), leader);
        for v in g.nodes() {
            for p in 0..=g.degree(v) as u32 {
                let want = pe_port_is_valid(g, v, p, leader);
                assert_eq!(
                    cuts.pe_port_is_valid(v, p),
                    want,
                    "{name}: leader {leader}, node {v}, port {p}"
                );
                tally.queries += 1;
                if !want && v != leader && (p as usize) < g.degree(v) {
                    tally.cut_rejections += 1;
                }
            }
        }
    }
    tally
}

/// Every node as leader.
fn every_leader(g: &PortGraph) -> Vec<NodeId> {
    g.nodes().collect()
}

/// About `k` leaders spread over the node range (first and last included).
fn spread_leaders(g: &PortGraph, k: usize) -> Vec<NodeId> {
    let n = g.num_nodes();
    let step = n.div_ceil(k).max(1);
    let mut leaders: Vec<NodeId> = (0..n).step_by(step).map(|v| v as NodeId).collect();
    leaders.push(n as NodeId - 1);
    leaders.dedup();
    leaders
}

#[test]
fn trees_rings_and_cliques_agree_with_the_bfs_oracle() {
    let mut graphs: Vec<(String, PortGraph)> = Vec::new();
    for n in 1..=12 {
        graphs.push((format!("path {n}"), generators::path(n).unwrap()));
    }
    for leaves in 1..=8 {
        graphs.push((format!("star {leaves}"), generators::star(leaves).unwrap()));
    }
    for (arity, height) in [(1, 4), (2, 3), (3, 2), (2, 4)] {
        let (g, _) = generators::full_tree(arity, height).unwrap();
        graphs.push((format!("full_tree {arity},{height}"), g));
    }
    for n in 3..=9 {
        graphs.push((format!("ring {n}"), generators::symmetric_ring(n).unwrap()));
    }
    graphs.push((
        "oriented ring".into(),
        generators::oriented_ring(&[true, true, false, true, false, false]).unwrap(),
    ));
    for n in 2..=7 {
        graphs.push((format!("complete {n}"), generators::complete(n).unwrap()));
    }
    graphs.push(("hypercube 3".into(), generators::hypercube(3).unwrap()));
    graphs.push(("paper line".into(), generators::paper_three_node_line()));

    let mut trees = Tally::default();
    let mut total = Tally::default();
    for (name, g) in &graphs {
        let t = compare(name, g, &every_leader(g));
        if name.starts_with("path") || name.starts_with("star") || name.starts_with("full") {
            trees.add(t);
        }
        total.add(t);
    }
    // On a tree every port but the one towards the leader is rejected by the
    // cut-vertex branch: over a quarter of all queries here.
    assert!(trees.cut_rejections * 4 > trees.queries, "trees: {trees:?}");
    assert!(total.cut_rejections > 0, "{total:?}");
}

#[test]
fn paper_constructions_agree_with_the_bfs_oracle() {
    let mut total = Tally::default();
    let g_class = GClass::new(4, 1).unwrap();
    for i in 1..=g_class.size().unwrap() {
        let m = g_class.member(i).unwrap();
        let g = &m.labeled.graph;
        total.add(compare(&format!("G_4,1 member {i}"), g, &every_leader(g)));
    }
    let g_42 = GClass::new(4, 2).unwrap().member(5).unwrap();
    let g = &g_42.labeled.graph;
    total.add(compare("G_4,2 member 5", g, &spread_leaders(g, 6)));

    let u_class = UClass::new(4, 1).unwrap();
    for m in [
        u_class.template().unwrap(),
        u_class.member_by_index(2).unwrap(),
    ] {
        let g = &m.labeled.graph;
        total.add(compare("U_4,1", g, &spread_leaders(g, 5)));
    }

    let j = JClass::new(2, 4).unwrap().template(Some(2)).unwrap();
    let g = &j.labeled.graph;
    total.add(compare("J_2,4 (2 gadgets)", g, &spread_leaders(g, 6)));

    // The constructions hang trees off cycles: most existing ports lead into a
    // dead-end subtree, so the cut-vertex branch decides a large share.
    assert!(total.cut_rejections * 4 > total.queries, "{total:?}");
}

#[test]
fn seeded_random_connected_graphs_agree_with_the_bfs_oracle() {
    let mut seeds = Rng::seed(0x5EED_C075);
    let mut total = Tally::default();
    for round in 0..120 {
        let n = 2 + seeds.below(39);
        let max_degree = 3 + seeds.below(3);
        let extra = round % 6;
        let seed = seeds.next_u64();
        let g = generators::random_connected(n, max_degree, extra, seed).unwrap();
        total.add(compare(
            &format!("random_connected({n}, {max_degree}, {extra}, {seed:#x})"),
            &g,
            &every_leader(&g),
        ));
    }
    // Spanning trees plus at most five chords: cut vertices everywhere, and
    // over a sixth of all queries are cut-vertex rejections.
    assert!(total.cut_rejections * 6 > total.queries, "{total:?}");
}

#[test]
fn a_path_of_a_hundred_thousand_nodes_needs_no_recursion() {
    let n = 100_000;
    let g = generators::path(n).unwrap();
    let mut rng = Rng::seed(0xD0_0D1E);
    for leader in [0, n as NodeId / 2, n as NodeId - 1] {
        let cuts = LeaderCuts::new(&g, leader);
        for _ in 0..20 {
            let v = rng.below(n) as NodeId;
            for p in 0..=g.degree(v) as u32 {
                assert_eq!(
                    cuts.pe_port_is_valid(v, p),
                    pe_port_is_valid(&g, v, p, leader),
                    "leader {leader}, node {v}, port {p}"
                );
            }
        }
        // The two ends, where the DFS is deepest.
        for v in [0, n as NodeId - 1] {
            for p in 0..=g.degree(v) as u32 {
                assert_eq!(
                    cuts.pe_port_is_valid(v, p),
                    pe_port_is_valid(&g, v, p, leader)
                );
            }
        }
    }
}
