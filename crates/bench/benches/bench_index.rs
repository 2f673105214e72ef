//! Old-vs-new election-index solver timings: the class-quotient search
//! (`psi_ppe` / `psi_cppe`) against the retired per-node simple-path
//! enumeration (`psi_*_enumerated`) across the workload families, plus
//! `psi_pe` on every point and one whole map-solver PPE election on each
//! random-regular point (`solve_with_map_ppe_rr_n*`), which consumes the index
//! search's witness and so should cost about what `psi_ppe_new_rr_*` costs.
//!
//! The enumeration side only appears where it finishes in bench-able time:
//! n = 16 on every family and n = 256 on random-regular. On torus/circulant
//! topologies at n ≥ 256 the old DFS wanders exponentially among dead-end
//! prefixes that never complete into candidate paths; the path budget (which
//! counts completed paths only) never triggers, and only the step cap added
//! alongside the quotient search (`simple_paths_bounded`) makes it return at
//! all. The random-regular row at n = 256 is the honest head-to-head: both
//! sides get the same 50 000-path budget; the enumeration burns the whole
//! budget and still fails while the quotient search succeeds three orders of
//! magnitude faster (recorded as the `speedup_x_*` metrics).
//!
//! Every quotient-search point resolves its index inside the default budget
//! except PPE on the shuffled circulant at n = 4096, whose depth-1 classes are
//! genuinely hard: that point measures the typed fail-fast path (a few seconds
//! to `PathBudgetExceeded`, where the enumeration would never return) — hence
//! the `.ok()` on the timed calls. PE has no budget and no enumeration
//! baseline; ports the distance certificate cannot settle go to the lowpoint
//! cut check, one DFS per leader.
//!
//! The `verify_pe_*` rows check the `ψ_PE` witness's outputs: `verify_pe_cuts_*`
//! is `tasks::verify` (one lowpoint DFS, then `O(deg v)` per node) and
//! `verify_pe_bfs_*` the reference predicate `paths::pe_port_is_valid` (one BFS
//! per node, `O(n·m)`), which runs only up to n = 4096.
//!
//! Run with `cargo bench -p anet-bench --bench bench_index`.

use anet_bench::Harness;
use anet_constructions::GraphFamily;
use anet_election::map_algorithms::solve_with_map;
use anet_election::tasks::{verify, NodeOutput, Task};
use anet_graph::{NodeId, PortGraph};
use anet_views::election_index::{
    pe_witness_with, psi_cppe, psi_cppe_enumerated, psi_pe, psi_ppe, psi_ppe_enumerated,
};
use anet_views::paths::pe_port_is_valid;
use anet_views::{QuotientSearch, Refinement};
use anet_workloads::{CirculantFamily, RandomRegularFamily, TorusFamily};

/// The map solver's default path budget (both sides get the same allowance).
const MAX_PATHS: usize = 50_000;

fn mean_ns(h: &Harness, id: &str) -> i64 {
    h.results()
        .iter()
        .find(|m| m.id == id)
        .map(|m| m.mean.as_nanos() as i64)
        .unwrap_or(0)
}

/// The `ψ_PE` witness of `g` as per-node outputs.
fn pe_outputs(g: &PortGraph) -> Vec<NodeOutput> {
    let r = Refinement::compute(g, None);
    let mut search = QuotientSearch::new(g, &r);
    let w = pe_witness_with(&mut search).expect("every bench instance has a PE solution");
    w.assignment
        .into_iter()
        .map(|a| a.map_or(NodeOutput::Leader, NodeOutput::FirstPort))
        .collect()
}

/// The PE check with one reference BFS per node (the verifier before the
/// lowpoint DFS).
fn verify_pe_bfs(g: &PortGraph, outputs: &[NodeOutput]) -> bool {
    let Some(leader) = outputs.iter().position(|o| *o == NodeOutput::Leader) else {
        return false;
    };
    g.nodes().all(|v| match outputs[v as usize] {
        NodeOutput::Leader => v as usize == leader,
        NodeOutput::FirstPort(p) => pe_port_is_valid(g, v, p, leader as NodeId),
        _ => false,
    })
}

fn main() {
    let mut h = Harness::new("index");

    let rr = RandomRegularFamily::new(3, vec![16, 256, 4096, 10_000], 0xA5EED);
    let torus = TorusFamily::new(vec![(4, 4), (16, 16), (64, 64), (100, 100)]).shuffled(41);
    let circ = CirculantFamily::powers_of_two(vec![16, 256, 4096, 10_000], 3).shuffled(41);
    let families: [(&str, &dyn GraphFamily); 3] = [("rr", &rr), ("torus", &torus), ("circ", &circ)];

    for (name, family) in families {
        for instance in family.instances(4) {
            let g = &instance.graph;
            let n = g.num_nodes();
            eprintln!("[bench_index] {name} n={n}");
            let samples = if n >= 4096 { 3 } else { 5 };
            h.bench(&format!("psi_pe_new_{name}_n{n}"), samples, || psi_pe(g));
            if n >= 256 {
                let outputs = pe_outputs(g);
                h.bench(&format!("verify_pe_cuts_{name}_n{n}"), samples, || {
                    verify(Task::PortElection, g, &outputs).is_ok()
                });
                if n <= 4096 {
                    h.bench(&format!("verify_pe_bfs_{name}_n{n}"), samples, || {
                        verify_pe_bfs(g, &outputs)
                    });
                }
            }
            h.bench(&format!("psi_ppe_new_{name}_n{n}"), samples, || {
                psi_ppe(g, MAX_PATHS).ok()
            });
            if name == "rr" {
                h.bench(&format!("solve_with_map_ppe_rr_n{n}"), samples, || {
                    solve_with_map(g, Task::PortPathElection, MAX_PATHS).ok()
                });
            }
            h.bench(&format!("psi_cppe_new_{name}_n{n}"), samples, || {
                psi_cppe(g, MAX_PATHS).ok()
            });
            // The enumeration baseline, where it terminates: n = 16 everywhere;
            // n = 256 only on random-regular, whose sparse neighbourhoods keep
            // the DFS linear in the budget (~8 µs per completed path).
            if n == 16 || (n == 256 && name == "rr") {
                h.bench(&format!("psi_ppe_old_{name}_n{n}"), samples, || {
                    psi_ppe_enumerated(g, MAX_PATHS).ok()
                });
                h.bench(&format!("psi_cppe_old_{name}_n{n}"), samples, || {
                    psi_cppe_enumerated(g, MAX_PATHS).ok()
                });
            }
        }
    }

    // Headline speedups at the head-to-head point (old mean / new mean).
    for shade in ["ppe", "cppe"] {
        let old = mean_ns(&h, &format!("psi_{shade}_old_rr_n256"));
        let new = mean_ns(&h, &format!("psi_{shade}_new_rr_n256"));
        if new > 0 {
            h.metric(&format!("speedup_x_{shade}_rr_n256"), old / new);
        }
    }

    h.report();
}
