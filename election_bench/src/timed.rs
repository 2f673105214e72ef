//! The untraced, end-to-end pass: set the workload up several times, then run its
//! elections back to back (a closed loop with one client) in whole passes over the
//! plan, and check every output.

use crate::cells::{Plan, Variant, MAX_PATHS};
use anet_election::engine::{Backend, ElectionBuilder, ElectionReport, EngineError};
use anet_election::map_algorithms::MapSolveError;
use anet_election::tasks::{NodeOutput, Task};
use anet_graph::PortGraph;
use anet_views::election_index::IndexError;
use std::collections::BTreeSet;
use std::time::Instant;

/// Set-ups come in two windows, one before the timed loop and one after it, each
/// of at least `MIN_SETUPS` set-ups and `SETUP_SECONDS`; `setup_s` is the median
/// of both, so that no single slow or fast spell of a shared host sets it.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 1.5;

/// Fewest elections a run measures, so that the printed tail percentile has at
/// least ten samples beyond it at p75 or higher.
const MIN_SAMPLES: usize = 40;

/// A typed failure the map solver may report instead of outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// `PathBudgetExceeded` at [`MAX_PATHS`].
    Budget,
    /// No leader can be elected in any number of rounds.
    Unsolvable,
}

/// Classify an engine error: a typed failure, or a message that aborts the run.
pub fn classify(err: &EngineError, task: Task) -> Result<Failure, String> {
    let budget = MapSolveError::Budget(IndexError::PathBudgetExceeded {
        max_paths: MAX_PATHS,
    });
    match err {
        EngineError::Solver { message, .. } if *message == budget.to_string() => {
            Ok(Failure::Budget)
        }
        EngineError::Solver { message, .. }
            if *message == MapSolveError::Unsolvable(task).to_string() =>
        {
            Ok(Failure::Unsolvable)
        }
        other => Err(format!("unexpected engine error: {other}")),
    }
}

/// The exact, deterministic part of one election's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Leader and logical message count, or the typed failure.
    pub result: Result<(u32, usize), Failure>,
    pub rounds: usize,
    pub advice_bits: usize,
    pub wire_bits: u64,
    pub wire_max_edge: u64,
}

/// Check one election: the verdict must be `Ok` or a typed failure, and a solved
/// election's outputs must equal the cell's reference outputs (every backend, codec
/// and cap elects the same leader with the same outputs). The first solved map
/// election of a cell sets that cell's reference; advice pairs, which may pick
/// another unique view, keep a reference of their own.
pub fn check(
    report: Result<ElectionReport, EngineError>,
    task: Task,
    variant: Variant,
    reference: &mut [Option<Vec<NodeOutput>>; 2],
) -> Result<Outcome, String> {
    let report = match report {
        Ok(report) => report,
        Err(err) => {
            let failure = classify(&err, task)?;
            return Ok(Outcome {
                result: Err(failure),
                rounds: 0,
                advice_bits: 0,
                wire_bits: 0,
                wire_max_edge: 0,
            });
        }
    };
    let outcome = report
        .verdict
        .as_ref()
        .map_err(|e| format!("{}: verifier rejected the outputs: {e}", variant.label()))?;
    let slot = &mut reference[matches!(variant, Variant::Advice(_)) as usize];
    match slot {
        Some(expected) if *expected != report.outputs => {
            return Err(format!(
                "{}: outputs differ from the cell's reference",
                variant.label()
            ))
        }
        Some(_) => {}
        None => *slot = Some(report.outputs.clone()),
    }
    let wire = report.wire.as_ref();
    Ok(Outcome {
        result: Ok((outcome.leader, report.messages_delivered)),
        rounds: report.rounds,
        advice_bits: report.advice_bits.unwrap_or(0),
        wire_bits: wire.map_or(0, |w| w.total_bits()),
        wire_max_edge: wire.map_or(0, |w| w.max_edge_bits()),
    })
}

/// Cross-variant agreement inside one cell: the same logical messages and rounds,
/// and the same leader. Advice pairs may choose another unique view, so their
/// leader may differ; a capped link inflates rounds to its physical count.
pub fn agree(outcomes: &[Outcome], variants: &[Variant]) -> Result<(), String> {
    let first = &outcomes[0];
    for (o, v) in outcomes.iter().zip(variants) {
        let same = match (&o.result, &first.result) {
            (Ok((l, m)), Ok((l0, m0))) => {
                m == m0
                    && (l == l0 || matches!(v, Variant::Advice(_)))
                    && (o.rounds == first.rounds
                        || matches!(v, Variant::Metered(Backend::Capped { .. }, _)))
            }
            (a, b) => a == b,
        };
        if !same {
            return Err(format!(
                "{} disagrees with {}: {:?} vs {:?}",
                v.label(),
                variants[0].label(),
                o,
                first
            ));
        }
    }
    Ok(())
}

/// What one timed run measured.
pub struct Timed {
    pub setup_s: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    /// Wall time of the timed loop: elections, output checks and bookkeeping.
    pub wall_s: f64,
    pub passes: usize,
    pub typed_failures: usize,
    pub failed_cells: BTreeSet<String>,
    /// One pass's outcomes, `[cell][variant]`; every pass repeats them exactly.
    pub outcomes: Vec<Vec<Outcome>>,
}

impl Timed {
    pub fn elections(&self) -> usize {
        self.latencies_ms.len()
    }
}

fn builders(plan: &Plan) -> Vec<Vec<ElectionBuilder>> {
    plan.cells
        .iter()
        .map(|&(_, task)| plan.variants.iter().map(|v| v.builder(task)).collect())
        .collect()
}

/// Set up (generate every graph, run one warm-up election) until the window has
/// `MIN_SETUPS` set-ups and `SETUP_SECONDS`, pushing each set-up's time; return
/// the last set-up's graphs and builders.
fn set_up(plan: &Plan, times: &mut Vec<f64>) -> Result<State, String> {
    let mut state: Option<State> = None;
    let (window, before) = (Instant::now(), times.len());
    while times.len() < before + MIN_SETUPS || window.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(state.take());
        let start = Instant::now();
        let graphs = plan.generate();
        let builders = builders(plan);
        let (g, task) = plan.cells[0];
        let warm = builders[0][0].run(&graphs[g]);
        times.push(start.elapsed().as_secs_f64());
        check(warm, task, plan.variants[0], &mut [None, None])?;
        state = Some((graphs, builders));
    }
    Ok(state.expect("a window has at least one set-up"))
}

type State = (Vec<PortGraph>, Vec<Vec<ElectionBuilder>>);

/// Set up, then run whole passes of the plan, so every run measures the same mix
/// of elections, then set up again. The loop stops once it has `MIN_SAMPLES`
/// elections and another pass would overshoot `seconds` by more than stopping
/// falls short of it.
pub fn run(plan: &Plan, seconds: f64) -> Result<Timed, String> {
    let mut setup_s = Vec::new();
    let (graphs, builders) = set_up(plan, &mut setup_s)?;

    let mut timed = Timed {
        setup_s,
        latencies_ms: Vec::new(),
        wall_s: 0.0,
        passes: 0,
        typed_failures: 0,
        failed_cells: BTreeSet::new(),
        outcomes: Vec::new(),
    };
    let mut references: Vec<[Option<Vec<NodeOutput>>; 2]> = vec![[None, None]; plan.cells.len()];
    let begin = Instant::now();
    loop {
        let mut pass = Vec::with_capacity(plan.cells.len());
        for (c, &(g, task)) in plan.cells.iter().enumerate() {
            let mut cell = Vec::with_capacity(plan.variants.len());
            for (b, &variant) in builders[c].iter().zip(&plan.variants) {
                let start = Instant::now();
                let report = b.run(&graphs[g]);
                timed.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                let outcome = check(report, task, variant, &mut references[c])
                    .map_err(|e| format!("{}: {e}", plan.cell_name(c)))?;
                if outcome.result.is_err() {
                    timed.typed_failures += 1;
                    timed.failed_cells.insert(plan.cell_name(c));
                }
                cell.push(outcome);
            }
            agree(&cell, &plan.variants).map_err(|e| format!("{}: {e}", plan.cell_name(c)))?;
            pass.push(cell);
        }
        if timed.passes == 0 {
            timed.outcomes = pass;
        } else if pass != timed.outcomes {
            return Err(format!(
                "pass {} repeated pass 1 inexactly",
                timed.passes + 1
            ));
        }
        timed.passes += 1;
        let wall = begin.elapsed().as_secs_f64();
        let per_pass = wall / timed.passes as f64;
        if timed.elections() >= MIN_SAMPLES && wall + per_pass / 2.0 >= seconds {
            timed.wall_s = wall;
            break;
        }
    }
    drop((graphs, builders));
    set_up(plan, &mut timed.setup_s)?;
    Ok(timed)
}
