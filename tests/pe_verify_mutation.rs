//! Mutation fuzz of the Port Election verifier: on every standard-grid instance
//! (each has a PE solution), a SplitMix64 loop rewrites the `FirstPort` outputs of a
//! few sampled nodes, and `tasks::verify` must accept exactly when the
//! one-BFS-per-query reference oracle (`paths::pe_port_is_valid`) says every
//! rewritten port is valid — and otherwise name the first node the oracle
//! rejects. Removing the leader must give `NoLeader`, a second leader
//! `MultipleLeaders`. The 10⁴-node instances are included: the verifier and
//! the early-exit oracle keep the whole suite well under a second.

use four_shades::election::tasks::verify;
use four_shades::graph::rng::Rng;
use four_shades::graph::{NodeId, PortGraph};
use four_shades::prelude::*;
use four_shades::views::election_index::pe_witness_with;
use four_shades::views::paths::pe_port_is_valid;
use four_shades::views::{QuotientSearch, Refinement};

/// Mutated assignments checked per instance.
const TRIALS: usize = 60;

/// Every distinct instance of the standard grid (one per family size) passing `keep`.
fn standard_instances(keep: impl Fn(&PortGraph) -> bool) -> Vec<(String, PortGraph)> {
    let registry = ScenarioRegistry::standard();
    registry
        .iter()
        .filter(|s| {
            s.task == Task::Selection
                && s.solver == SolverSpec::Map
                && s.backend == Backend::Sequential
                && s.wire.is_none()
        })
        .flat_map(|s| s.materialize())
        .filter(|i| keep(&i.graph))
        .map(|i| (i.name, i.graph))
        .collect()
}

/// The `ψ_PE` witness as per-node outputs, if the instance has a PE solution.
fn pe_outputs(g: &PortGraph) -> Option<(NodeId, Vec<NodeOutput>)> {
    let r = Refinement::compute(g, None);
    let mut search = QuotientSearch::new(g, &r);
    let w = pe_witness_with(&mut search)?;
    let outputs = w
        .assignment
        .into_iter()
        .map(|a| a.map_or(NodeOutput::Leader, NodeOutput::FirstPort))
        .collect();
    Some((w.leader, outputs))
}

/// Fuzz one instance; returns (accepted, rejected) mutation counts.
fn fuzz(name: &str, g: &PortGraph, seed: u64) -> (usize, usize) {
    let (leader, base) = pe_outputs(g).unwrap_or_else(|| panic!("{name}: no PE solution"));
    assert_eq!(
        verify(Task::PortElection, g, &base),
        Ok(ElectionOutcome { leader }),
        "{name}: the witness"
    );
    let n = g.num_nodes();
    let mut rng = Rng::seed(seed);
    // The witness itself, checked against the oracle on a sample of nodes.
    for _ in 0..32 {
        let v = rng.below(n) as NodeId;
        if let NodeOutput::FirstPort(p) = base[v as usize] {
            assert!(pe_port_is_valid(g, v, p, leader), "{name}: node {v}");
        }
    }

    let (mut accepted, mut rejected) = (0, 0);
    let mut outputs = base.clone();
    for trial in 0..TRIALS {
        let k = 1 + trial % 3;
        let mut mutated: Vec<(NodeId, u32)> = Vec::with_capacity(k);
        while mutated.len() < k {
            let v = rng.below(n) as NodeId;
            if v == leader || mutated.iter().any(|&(w, _)| w == v) {
                continue;
            }
            // Any port, or one past the last.
            let p = rng.below(g.degree(v) + 1) as u32;
            outputs[v as usize] = NodeOutput::FirstPort(p);
            mutated.push((v, p));
        }
        mutated.sort_unstable();
        let first_invalid = mutated
            .iter()
            .find(|&&(v, p)| !pe_port_is_valid(g, v, p, leader))
            .map(|&(v, _)| v);
        let want = match first_invalid {
            None => Ok(ElectionOutcome { leader }),
            Some(node) => Err(TaskError::InvalidPath { node }),
        };
        assert_eq!(
            verify(Task::PortElection, g, &outputs),
            want,
            "{name}: trial {trial}, mutated {mutated:?}"
        );
        if want.is_ok() {
            accepted += 1;
        } else {
            rejected += 1;
        }
        for &(v, _) in &mutated {
            outputs[v as usize] = base[v as usize].clone();
        }
    }

    // No leader: the leader points somewhere instead.
    outputs[leader as usize] = NodeOutput::FirstPort(0);
    assert_eq!(
        verify(Task::PortElection, g, &outputs),
        Err(TaskError::NoLeader),
        "{name}"
    );
    outputs[leader as usize] = NodeOutput::Leader;
    // A second leader.
    let other = loop {
        let v = rng.below(n) as NodeId;
        if v != leader {
            break v;
        }
    };
    outputs[other as usize] = NodeOutput::Leader;
    let mut leaders = vec![leader, other];
    leaders.sort_unstable();
    assert_eq!(
        verify(Task::PortElection, g, &outputs),
        Err(TaskError::MultipleLeaders { leaders }),
        "{name}"
    );
    (accepted, rejected)
}

#[test]
fn verify_matches_the_bfs_oracle_on_mutated_pe_outputs() {
    let instances = standard_instances(|_| true);
    let mut rng = Rng::seed(0xF1_25_7E);
    let large = instances.iter().filter(|(_, g)| g.num_nodes() >= 10_000);
    assert_eq!(large.count(), 2, "both 10⁴-node instances");
    let (mut accepted, mut rejected) = (0, 0);
    for (name, g) in &instances {
        // Every standard instance has a PE solution (`fuzz` asserts it).
        let (a, rj) = fuzz(name, g, rng.next_u64());
        accepted += a;
        rejected += rj;
    }
    // Both verdicts are exercised.
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
}
