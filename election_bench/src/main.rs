//! The election benchmark.
//!
//! ```text
//! cargo run --release --manifest-path election_bench/Cargo.toml -- \
//!     --workload <strong|flood|wire> [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path election_bench/Cargo.toml -- --self-test
//! ```
//!
//! `--trace 0` runs the workload's closed loop untraced and reports the end-to-end
//! metrics; `--trace 1` runs the traced per-layer decomposition instead. The last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; every output check that fails
//! aborts with a non-zero exit before it is printed. See `README.md` beside this
//! file for the workloads and metrics.

mod cells;
mod metrics;
mod timed;
mod traced;

use cells::{Kind, Plan};
use metrics::Metrics;
use std::process::ExitCode;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, not {}",
                        args.seconds
                    ));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_none() && !args.self_test {
        return Err("--workload <strong|flood|wire> is required".into());
    }
    Ok(args)
}

/// Run one workload in one mode, at full size or at the self-test's tiny size.
fn run_workload(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
) -> Result<Metrics, String> {
    let plan = Plan::new(kind, seed, tiny);
    println!(
        "workload {} seed {seed} ({}): {} graphs, {} cells x {} variants",
        kind.name(),
        if tiny { "tiny" } else { "full size" },
        plan.graphs.len(),
        plan.cells.len(),
        plan.variants.len()
    );
    let metrics = if trace {
        traced::run(&plan, seconds)?
    } else {
        let timed = timed::run(&plan, seconds)?;
        metrics::end_to_end(&plan, &timed)?
    };
    if let Some(known) = plan.known_failures(seed, tiny) {
        let known: std::collections::BTreeSet<String> =
            known.iter().map(|s| s.to_string()).collect();
        if metrics.failed_cells != known {
            return Err(format!(
                "typed failures {:?} differ from the pinned list {:?} for seed {seed}",
                metrics.failed_cells, known
            ));
        }
    }
    Ok(metrics)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.self_test {
            return metrics::self_test(|kind, trace| {
                run_workload(kind, args.seed, 0.5, trace, true)
            });
        }
        let kind = args.workload.expect("checked by parse_args");
        let metrics = run_workload(kind, args.seed, args.seconds, args.trace, false)?;
        metrics.print();
        Ok(())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("election_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
