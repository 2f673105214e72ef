//! Map solver vs election index: the solver consumes the index search's witness
//! (least depth, first viable leader, per-node assignment) instead of running a
//! search of its own, so on every instance it must agree with `ψ` exactly — same
//! rounds, the witness's leader and outputs, the same search counters as `psi_*_with`
//! on a fresh `QuotientSearch`, and the same typed failure.
//!
//! The corpus is every standard-grid instance with n ≤ 128 plus the shuffled
//! torus 11×12 (whose PPE index is the grid's one typed failure); the 10⁴-node
//! instances run in an `#[ignore]`d test (`cargo test --release --test
//! solver_psi_agreement -- --ignored`).

use four_shades::election::map_algorithms::{solve_with_map, MapSolveError};
use four_shades::election::tasks::verify;
use four_shades::graph::{NodeId, PortGraph};
use four_shades::prelude::*;
use four_shades::views::election_index::{
    cppe_witness_with, pe_witness_with, ppe_witness_with, psi_cppe_with, psi_pe_with, psi_ppe_with,
    psi_s_with, IndexError, Witness,
};
use four_shades::views::{QuotientSearch, Refinement, SearchStats};

/// The map solver's default budget (the one the sweep runs with).
const MAX_PATHS: usize = 50_000;

/// Every distinct instance of the standard grid's map/seq Selection scenarios
/// (one per family, so each family's size ladder appears once) passing `keep`.
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

/// `ψ` of `task` with the counters of its search, on a fresh `QuotientSearch`.
fn psi(g: &PortGraph, task: Task) -> (Result<Option<usize>, IndexError>, SearchStats) {
    let r = Refinement::compute(g, None);
    let mut search = QuotientSearch::new(g, &r);
    let psi = match task {
        Task::Selection => Ok(psi_s_with(&r)),
        Task::PortElection => Ok(psi_pe_with(&mut search)),
        Task::PortPathElection => psi_ppe_with(&mut search, MAX_PATHS),
        Task::CompletePortPathElection => psi_cppe_with(&mut search, MAX_PATHS),
    };
    (psi, search.stats())
}

/// The witness's leader and per-node outputs, when `ψ` is finite.
fn witness(g: &PortGraph, task: Task) -> Option<(NodeId, Vec<NodeOutput>)> {
    fn outputs<T>(w: Witness<T>, f: fn(T) -> NodeOutput) -> (NodeId, Vec<NodeOutput>) {
        let per_node = w
            .assignment
            .into_iter()
            .map(|a| a.map_or(NodeOutput::Leader, f));
        (w.leader, per_node.collect())
    }
    let r = Refinement::compute(g, None);
    let mut search = QuotientSearch::new(g, &r);
    match task {
        // ψ_S's witness is the first node unique at depth ψ_S.
        Task::Selection => psi_s_with(&r).map(|h| {
            let leader = r.unique_nodes_at(h)[0];
            let assignment = g.nodes().map(|v| (v != leader).then_some(())).collect();
            let w = Witness {
                depth: h,
                leader,
                assignment,
            };
            outputs(w, |()| NodeOutput::NonLeader)
        }),
        Task::PortElection => {
            pe_witness_with(&mut search).map(|w| outputs(w, NodeOutput::FirstPort))
        }
        Task::PortPathElection => ppe_witness_with(&mut search, MAX_PATHS)
            .ok()?
            .map(|w| outputs(w, NodeOutput::PortPath)),
        Task::CompletePortPathElection => cppe_witness_with(&mut search, MAX_PATHS)
            .ok()?
            .map(|w| outputs(w, NodeOutput::FullPath)),
    }
}

/// Assert solver == ψ on one instance and task; returns the solver's outcome.
fn check(name: &str, g: &PortGraph, task: Task) -> Result<usize, MapSolveError> {
    let (psi, stats) = psi(g, task);
    let solved = solve_with_map(g, task, MAX_PATHS);
    match (&solved, &psi) {
        (Ok(run), Ok(Some(psi))) => {
            assert_eq!(run.rounds, *psi, "{name} {task}: rounds");
            assert_eq!(run.search, stats, "{name} {task}: search counters");
            let (leader, outputs) = witness(g, task).expect("a finite ψ has a witness");
            assert_eq!(
                run.outputs[leader as usize],
                NodeOutput::Leader,
                "{name} {task}: leader"
            );
            assert_eq!(run.outputs, outputs, "{name} {task}: witness outputs");
            verify(task, g, &run.outputs).unwrap_or_else(|e| panic!("{name} {task}: {e}"));
        }
        (Err(MapSolveError::Unsolvable(t)), Ok(None)) => assert_eq!(*t, task),
        (Err(MapSolveError::Budget(e)), Err(psi_err)) => {
            assert_eq!(e, psi_err, "{name} {task}: typed failure")
        }
        (solved, psi) => panic!(
            "{name} {task}: solver {:?} disagrees with ψ {psi:?}",
            solved.as_ref().map(|r| r.rounds)
        ),
    }
    solved.map(|run| run.rounds)
}

#[test]
fn solver_equals_psi_on_the_small_standard_grid() {
    let instances = standard_instances(|g| g.num_nodes() <= 132);
    // Four sizes ≤ 128 on random-regular, hypercube and circulant; three on the
    // torus, plus its 132-node 11×12 instance.
    let names: Vec<&str> = instances.iter().map(|i| i.0.as_str()).collect();
    assert_eq!(instances.len(), 16, "{names:?}");
    let mut failures = Vec::new();
    for (name, g) in &instances {
        for task in Task::ALL {
            if let Err(e) = check(name, g, task) {
                failures.push((name.clone(), task, e));
            }
        }
    }
    // The grid's one typed failure: PPE on the shuffled torus 11×12.
    let budget = MapSolveError::Budget(IndexError::PathBudgetExceeded {
        max_paths: MAX_PATHS,
    });
    assert!(
        matches!(failures.as_slice(), [(name, Task::PortPathElection, e)]
            if name.starts_with("torus 11x12") && *e == budget),
        "{failures:?}"
    );
}

#[test]
#[ignore = "10⁴-node instances; run in release mode"]
fn solver_equals_psi_on_the_large_standard_grid() {
    let instances = standard_instances(|g| g.num_nodes() >= 10_000);
    assert_eq!(instances.len(), 2);
    for (name, g) in &instances {
        for task in Task::ALL {
            check(name, g, task).unwrap_or_else(|e| panic!("{name} {task}: {e}"));
        }
    }
}
