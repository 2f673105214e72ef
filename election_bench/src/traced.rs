//! The traced decomposition: for every cell, call each layer's public entry point
//! in pipeline order from outside the program, time it, record its work counters,
//! and check its result independently of the election that uses it.
//!
//! Per cell: `Refinement::compute` → `psi_*_with` on a fresh `QuotientSearch` →
//! `solve_with_map_wired` (the whole solver) → for every variant, one untraced
//! engine election plus that election's layers: `ViewInterner::build_all`, the
//! collection (`run_full_information_traced` or `run_full_information_metered`),
//! `ViewInterner::intern` of every collected view, freeing the views, and
//! `tasks::verify` — or `run_with_advice_on` and `tasks::verify` for advice pairs.

use crate::cells::{Plan, Variant, MAX_PATHS};
use crate::metrics::{percentile, Exact, Metrics};
use crate::timed::{agree, check, Outcome};
use anet_election::advice::run_with_advice_on;
use anet_election::engine::{Backend, MessageCodec, NoopSink, Phase, Recorder, RoundProfile};
use anet_election::map_algorithms::{solve_with_map_wired, MapSolveError};
use anet_election::selection::{SelectionAlgorithm, SelectionOracle};
use anet_election::tasks::{self, NodeOutput, Task};
use anet_graph::PortGraph;
use anet_sim::{
    run_full_information_metered, run_full_information_on, run_full_information_traced,
};
use anet_views::election_index::{psi_cppe_with, psi_pe_with, psi_ppe_with, psi_s_with};
use anet_views::{QuotientSearch, Refinement, View, ViewCodec, ViewInterner};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Every per-layer metric with its unit; `true` marks an exact work counter that
/// must repeat bit for bit between passes and between runs with one seed.
pub const LAYERS: &[(&str, &str, bool)] = &[
    ("graph.generate_ms", "ms", false),
    ("refinement.ms", "ms", false),
    ("refinement.stable_depth", "rounds", true),
    ("search.psi_ms", "ms", false),
    ("search.classes_expanded", "count", true),
    ("search.paths_explored", "count", true),
    ("solver.map_ms", "ms", false),
    ("solver.excess_ms", "ms", false),
    ("views.build_all_ms", "ms", false),
    ("views.intern_ms", "ms", false),
    ("views.drop_ms", "ms", false),
    ("views.distinct", "count", true),
    ("sim.collect_ms", "ms", false),
    ("sim.send_ms", "ms", false),
    ("sim.route_ms", "ms", false),
    ("sim.receive_ms", "ms", false),
    ("sim.messages", "count", true),
    ("transport.metered_ms.tree", "ms", false),
    ("transport.metered_ms.dag", "ms", false),
    ("transport.metered_ms.delta", "ms", false),
    ("transport.metered_ms.cap64", "ms", false),
    ("transport.overhead_x", "x", false),
    ("transport.bits.tree", "bits", true),
    ("transport.bits.dag", "bits", true),
    ("transport.bits.delta", "bits", true),
    ("transport.physical_rounds", "rounds", true),
    ("advice.run_ms", "ms", false),
    ("advice.tree_bits", "bits", true),
    ("advice.dag_bits", "bits", true),
    ("verify.ms", "ms", false),
    ("engine.run_ms", "ms", false),
    ("engine.coverage", "ratio", false),
    ("trace.overhead_x", "x", false),
];

/// Named totals of one cell or one pass. Besides the [`LAYERS`] keys it carries
/// the inputs of the three ratios: `attributed_ms` (layer time the engine's
/// elections are accounted for by), `base_ms` (unmetered collection on metered
/// cells), and `plain_ms` / `profiled_ms` (the primary election without and with
/// the engine's round profile).
type Tally = BTreeMap<&'static str, f64>;

fn add(t: &mut Tally, key: &'static str, value: f64) {
    *t.entry(key).or_default() += value;
}

fn get(t: &Tally, key: &str) -> f64 {
    t.get(key).copied().unwrap_or(0.0)
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Fill in the three ratios from their inputs.
fn ratios(t: &mut Tally) {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let metered = ["tree", "dag", "delta"].map(|c| get(t, &format!("transport.metered_ms.{c}")));
    let coverage = ratio(get(t, "attributed_ms"), get(t, "engine.run_ms"));
    let overhead = ratio(metered.iter().sum::<f64>(), 3.0 * get(t, "base_ms"));
    let trace = ratio(get(t, "profiled_ms"), get(t, "plain_ms"));
    t.insert("engine.coverage", coverage);
    t.insert("transport.overhead_x", overhead);
    t.insert("trace.overhead_x", trace);
}

/// Build the views, collect them through the variant's backend or codec, intern
/// every collected view and check it is the map-built one, then free them all.
/// Returns the time these steps took.
fn collect_layers(
    graph: &PortGraph,
    rounds: usize,
    variant: Variant,
    t: &mut Tally,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut interner = ViewInterner::new();
    let views = interner.build_all(graph, rounds);
    let build_ms = ms(start);
    add(t, "views.build_all_ms", build_ms);
    add(t, "views.distinct", interner.len() as f64);

    let start = Instant::now();
    let collected = match variant {
        Variant::Map(backend) => {
            let recorder = Recorder::new();
            let (collected, report) =
                run_full_information_traced(graph, rounds, backend, &recorder, View::clone);
            add(t, "sim.collect_ms", ms(start));
            let profile = RoundProfile::from_events(&recorder.drain());
            add(t, "sim.send_ms", profile.phase_ns(Phase::Send) as f64 / 1e6);
            add(
                t,
                "sim.route_ms",
                profile.phase_ns(Phase::Route) as f64 / 1e6,
            );
            add(
                t,
                "sim.receive_ms",
                profile.phase_ns(Phase::Receive) as f64 / 1e6,
            );
            add(t, "sim.messages", report.messages_delivered as f64);
            collected
        }
        Variant::Metered(backend, codec) => {
            let (collected, report, stats) =
                run_full_information_metered(graph, rounds, backend, codec, &NoopSink, View::clone);
            if let Backend::Capped { .. } = backend {
                add(t, "transport.metered_ms.cap64", ms(start));
                add(t, "transport.physical_rounds", report.rounds as f64);
            } else {
                let (time, bits) = match codec {
                    MessageCodec::Tree => ("transport.metered_ms.tree", "transport.bits.tree"),
                    MessageCodec::Dag => ("transport.metered_ms.dag", "transport.bits.dag"),
                    MessageCodec::Delta => ("transport.metered_ms.delta", "transport.bits.delta"),
                };
                add(t, time, ms(start));
                add(t, bits, stats.total_bits() as f64);
            }
            collected
        }
        Variant::Advice(_) => unreachable!("advice pairs run no map-side collection"),
    };
    let collect_ms = ms(start);

    let start = Instant::now();
    let canonical: Vec<View> = collected.iter().map(|v| interner.intern(v)).collect();
    let intern_ms = ms(start);
    add(t, "views.intern_ms", intern_ms);
    if canonical != views {
        return Err(format!(
            "{}: collected views differ from the map-built views",
            variant.label()
        ));
    }

    let start = Instant::now();
    drop((collected, canonical, views, interner));
    let drop_ms = ms(start);
    add(t, "views.drop_ms", drop_ms);
    Ok(build_ms + collect_ms + intern_ms + drop_ms)
}

/// Time `tasks::verify` on outputs the election must accept.
fn verify(
    task: Task,
    graph: &PortGraph,
    outputs: &[NodeOutput],
    t: &mut Tally,
) -> Result<f64, String> {
    let start = Instant::now();
    let verdict = tasks::verify(task, graph, outputs);
    let verify_ms = ms(start);
    verdict.map_err(|e| format!("verifier rejected the outputs: {e}"))?;
    add(t, "verify.ms", verify_ms);
    Ok(verify_ms)
}

/// Decompose one cell; pushes one checked engine outcome per variant.
fn cell(
    plan: &Plan,
    c: usize,
    graph: &PortGraph,
    outcomes: &mut Vec<Outcome>,
) -> Result<Tally, String> {
    let (_, task) = plan.cells[c];
    let mut t = Tally::new();

    // ψ_S is read off the refinement, so it is timed with it.
    let start = Instant::now();
    let refinement = Refinement::compute(graph, None);
    let psi_s = (task == Task::Selection).then(|| psi_s_with(&refinement));
    add(&mut t, "refinement.ms", ms(start));
    add(
        &mut t,
        "refinement.stable_depth",
        refinement.stable_depth() as f64,
    );
    let psi = match psi_s {
        Some(psi) => Ok(psi),
        None => {
            let start = Instant::now();
            let mut search = QuotientSearch::new(graph, &refinement);
            let psi = match task {
                Task::PortElection => Ok(psi_pe_with(&mut search)),
                Task::PortPathElection => psi_ppe_with(&mut search, MAX_PATHS),
                _ => psi_cppe_with(&mut search, MAX_PATHS),
            };
            add(&mut t, "search.psi_ms", ms(start));
            add(
                &mut t,
                "search.classes_expanded",
                search.stats().classes_expanded as f64,
            );
            add(
                &mut t,
                "search.paths_explored",
                search.stats().paths_explored as f64,
            );
            psi
        }
    };

    // The whole solver of the primary variant; its rounds must equal ψ.
    let (backend, codec) = match plan.variants[0] {
        Variant::Map(b) => (b, None),
        Variant::Metered(b, c) => (b, Some(c)),
        Variant::Advice(_) => unreachable!("every plan starts with a map variant"),
    };
    let start = Instant::now();
    let solved = solve_with_map_wired(graph, task, MAX_PATHS, backend, None, &NoopSink, codec);
    let map_ms = ms(start);
    add(&mut t, "solver.map_ms", map_ms);
    let run = match (solved, &psi) {
        (Ok(run), Ok(Some(psi))) if run.rounds == *psi => Some(run),
        (Err(MapSolveError::Budget(e)), Err(psi_err)) if e == *psi_err => None,
        (Err(MapSolveError::Unsolvable(_)), Ok(None)) => None,
        (solved, psi) => {
            return Err(format!(
                "solver ({:?}) disagrees with ψ ({psi:?})",
                solved.map(|r| r.rounds)
            ));
        }
    };

    // The search is attributed ψ's time only when the election reached ψ's
    // answer; a typed failure stops on its own budget, so only the refinement
    // is attributed and the rest of its solver time is excess.
    let base_ms = get(&t, "refinement.ms")
        + if run.is_some() {
            get(&t, "search.psi_ms")
        } else {
            0.0
        };

    let metered = plan
        .variants
        .iter()
        .any(|v| matches!(v, Variant::Metered(..)));
    if let (Some(run), true) = (&run, metered) {
        let start = Instant::now();
        run_full_information_on(graph, run.rounds, Backend::Sequential, |_| ());
        add(&mut t, "base_ms", ms(start));
    }

    let mut reference = [None, None];
    for (i, &variant) in plan.variants.iter().enumerate() {
        let start = Instant::now();
        let report = variant.builder(task).run(graph);
        let engine_ms = ms(start);
        add(&mut t, "engine.run_ms", engine_ms);
        outcomes.push(check(report, task, variant, &mut reference)?);

        let mut attributed = 0.0;
        let mut verify_ms = 0.0;
        match (&run, variant) {
            (None, _) => attributed += base_ms,
            (Some(run), Variant::Advice(codec)) => {
                let start = Instant::now();
                let advice = match codec {
                    ViewCodec::Tree => run_with_advice_on(
                        graph,
                        &SelectionOracle::tree(),
                        &SelectionAlgorithm::tree(),
                        Backend::Sequential,
                    ),
                    ViewCodec::Dag => run_with_advice_on(
                        graph,
                        &SelectionOracle::dag(),
                        &SelectionAlgorithm::dag(),
                        Backend::Sequential,
                    ),
                };
                let advice_ms = ms(start);
                attributed += advice_ms;
                add(&mut t, "advice.run_ms", advice_ms);
                let key = if codec == ViewCodec::Tree {
                    "advice.tree_bits"
                } else {
                    "advice.dag_bits"
                };
                add(&mut t, key, advice.advice_bits() as f64);
                if advice.rounds != run.rounds {
                    return Err(format!(
                        "advice-{codec} ran {} rounds, ψ_S is {}",
                        advice.rounds, run.rounds
                    ));
                }
                verify_ms = verify(task, graph, &advice.outputs, &mut t)?;
            }
            (Some(run), _) => {
                attributed += base_ms + collect_layers(graph, run.rounds, variant, &mut t)?;
                verify_ms = verify(task, graph, &run.outputs, &mut t)?;
            }
        }
        add(&mut t, "attributed_ms", attributed + verify_ms);
        if i == 0 {
            add(&mut t, "solver.excess_ms", map_ms - attributed);
            let start = Instant::now();
            // Tracing never changes outputs; the timed pass checks that, so the
            // profiled twin is only timed.
            let _ = variant.builder(task).profiled().run(graph);
            add(&mut t, "profiled_ms", ms(start));
            add(&mut t, "plain_ms", engine_ms);
        }
    }
    agree(
        &outcomes[outcomes.len() - plan.variants.len()..],
        &plan.variants,
    )?;
    Ok(t)
}

/// Generate the graphs (timed), then decompose every cell in whole passes while
/// another pass fits in `seconds` (at least one pass). Times are medians over
/// passes; exact counters must repeat in every pass.
pub fn run(plan: &Plan, seconds: f64) -> Result<Metrics, String> {
    let start = Instant::now();
    let graphs = plan.generate();
    let generate_ms = ms(start);

    let begin = Instant::now();
    let mut passes: Vec<Tally> = Vec::new();
    let mut first: Option<(Vec<Outcome>, Vec<Tally>)> = None;
    // Another pass only if it fits: one traced pass costs several untraced ones.
    while passes.is_empty()
        || begin.elapsed().as_secs_f64() * (passes.len() + 1) as f64 / passes.len() as f64
            <= seconds
    {
        let mut outcomes = Vec::new();
        let mut cells = Vec::new();
        for (c, &(g, _)) in plan.cells.iter().enumerate() {
            let t = cell(plan, c, &graphs[g], &mut outcomes)
                .map_err(|e| format!("{}: {e}", plan.cell_name(c)))?;
            cells.push(t);
        }
        let mut pass = Tally::new();
        for t in &cells {
            for (k, v) in t {
                add(&mut pass, k, *v);
            }
        }
        pass.insert("graph.generate_ms", generate_ms);
        ratios(&mut pass);
        match &first {
            None => first = Some((outcomes, cells)),
            Some((o, _)) if *o != outcomes => {
                return Err("a traced pass repeated the first inexactly".into())
            }
            Some(_) => {}
        }
        if let Some(p) = passes.first() {
            for &(key, _, exact) in LAYERS {
                if exact && get(p, key) != get(&pass, key) {
                    return Err(format!("exact counter {key} changed between passes"));
                }
            }
        }
        passes.push(pass);
    }
    let (outcomes, cells) = first.expect("at least one pass");

    for (c, t) in cells.iter().enumerate() {
        let mut t = t.clone();
        ratios(&mut t);
        let line: Vec<String> = LAYERS
            .iter()
            .filter(|(k, _, _)| get(&t, k) != 0.0 && *k != "graph.generate_ms")
            .map(|(k, _, _)| format!("{k}={:.3}", get(&t, k)))
            .collect();
        println!("cell {}: {}", plan.cell_name(c), line.join(" "));
    }

    let failed_cells: BTreeSet<String> = outcomes
        .chunks(plan.variants.len())
        .enumerate()
        .filter(|(_, cell)| cell.iter().any(|o| o.result.is_err()))
        .map(|(c, _)| plan.cell_name(c))
        .collect();
    let typed_failures = outcomes.iter().filter(|o| o.result.is_err()).count();
    let mut m = Metrics::new(outcomes.len() * passes.len(), failed_cells);
    let mut median = Tally::new();
    for &(key, unit, _) in LAYERS {
        let values: Vec<f64> = passes.iter().map(|p| get(p, key)).collect();
        median.insert(key, percentile(&values, 50.0));
        m.put(key, median[key], unit);
    }
    let per_pass: Vec<Vec<Outcome>> = outcomes
        .chunks(plan.variants.len())
        .map(<[Outcome]>::to_vec)
        .collect();
    Exact::of(plan, &per_pass).report(&mut m, typed_failures as f64 / outcomes.len() as f64, true);
    m.note("passes", passes.len() as f64, "passes");
    let coverage = median["engine.coverage"];
    if coverage < 0.9 {
        let (name, excess) = cells
            .iter()
            .enumerate()
            .map(|(c, t)| (plan.cell_name(c), get(t, "solver.excess_ms")))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("a plan has cells");
        println!(
            "engine.coverage {coverage:.3} < 0.9: the remainder is solver.excess_ms, the map solver's own \
             depth x leader loop outside refinement, psi, views, collection and verification \
             (largest on {name}: {excess:.1} ms)"
        );
    }
    Ok(m)
}
