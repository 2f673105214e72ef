//! Metric values, the end-to-end summary of a timed run, the result line, and the
//! self-test that checks every registered metric name is emitted.

use crate::cells::{Kind, Plan, Variant};
use crate::timed::Timed;
use anet_workloads::json::Json;
use std::collections::BTreeSet;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Whether it belongs on the result line (the registered metrics of this
    /// mode) or is printed as a readable line only.
    pub registered: bool,
}

/// Everything one run reports.
pub struct Metrics {
    pub attempted: usize,
    pub failed_cells: BTreeSet<String>,
    pub metrics: Vec<Metric>,
}

impl Metrics {
    pub fn new(attempted: usize, failed_cells: BTreeSet<String>) -> Metrics {
        Metrics {
            attempted,
            failed_cells,
            metrics: Vec::new(),
        }
    }

    /// Add a metric that goes on the result line.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            registered: true,
        });
    }

    /// Add a metric printed for the reader only.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            registered: false,
        });
    }

    pub fn registered(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter().filter(|m| m.registered)
    }

    /// Print every metric by name and unit, then the result line.
    pub fn print(&self) {
        if !self.failed_cells.is_empty() {
            println!(
                "typed failures (counted in failed_frac): {:?}",
                self.failed_cells
            );
        }
        for m in &self.metrics {
            println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics = self
            .registered()
            .map(|m| {
                let value = Json::Object(vec![
                    ("value".into(), Json::Float(m.value)),
                    ("unit".into(), Json::str(m.unit)),
                ]);
                (m.name.clone(), value)
            })
            .collect();
        // Output checks abort the run, so a printed line is always a correct one;
        // typed failures are verified outcomes and counted in `failed_frac`.
        let line = Json::Object(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::count(self.attempted)),
            ("failed".into(), Json::count(0)),
            ("metrics".into(), Json::Object(metrics)),
        ]);
        println!("{}", line.render());
    }
}

/// The `p`-th percentile of unsorted samples by the nearest-rank method,
/// `sorted[round(p/100 · (n − 1))]`, as `anet-service` reports its latencies.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * (v.len() - 1) as f64).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The per-pass exact totals every workload reports (zero where it has none).
pub struct Exact {
    pub advice_bits: u64,
    pub wire_bits: u64,
    pub wire_max_edge: u64,
    pub capped_rounds: u64,
}

impl Exact {
    /// Totals of one pass's outcomes, `[cell][variant]`.
    pub fn of(plan: &Plan, outcomes: &[Vec<crate::timed::Outcome>]) -> Exact {
        let mut e = Exact {
            advice_bits: 0,
            wire_bits: 0,
            wire_max_edge: 0,
            capped_rounds: 0,
        };
        for cell in outcomes {
            for (o, v) in cell.iter().zip(&plan.variants) {
                e.advice_bits += o.advice_bits as u64;
                e.wire_bits += o.wire_bits;
                e.wire_max_edge = e.wire_max_edge.max(o.wire_max_edge);
                if let Variant::Metered(anet_election::engine::Backend::Capped { .. }, _) = v {
                    e.capped_rounds += o.rounds as u64;
                }
            }
        }
        e
    }

    /// Add the five exact end-to-end figures, on the result line or as notes.
    pub fn report(&self, m: &mut Metrics, failed_frac: f64, registered: bool) {
        let mut add = |name: &str, value: f64, unit| {
            if registered {
                m.put(name, value, unit)
            } else {
                m.note(name, value, unit)
            }
        };
        add("failed_frac", failed_frac, "ratio");
        add("advice_bits", self.advice_bits as f64, "bits");
        add("wire_bits", self.wire_bits as f64, "bits");
        add("wire_bits.max_edge", self.wire_max_edge as f64, "bits");
        add("capped_rounds", self.capped_rounds as f64, "rounds");
    }
}

/// The end-to-end metrics of a timed run. The latency percentiles are printed
/// but not registered: on a shared host they move by up to a third between runs
/// of one seed (see `README.md`), more than any bound the benchmark may set.
pub fn end_to_end(plan: &Plan, t: &Timed) -> Result<Metrics, String> {
    let mut m = Metrics::new(t.elections(), t.failed_cells.clone());
    m.put("setup_s", percentile(&t.setup_s, 50.0), "s");
    m.put("elections_per_s", t.elections() as f64 / t.wall_s, "1/s");
    m.put("peak_rss_mb", peak_rss_mb()?, "MiB");
    let n = t.elections();
    m.note("election_ms.p50", percentile(&t.latencies_ms, 50.0), "ms");
    // p90, or with fewer than 100 samples the highest whole percentile with at
    // least ten samples beyond it.
    let tail = (1..=90)
        .rev()
        .find(|&p| (n as f64) * (100 - p) as f64 / 100.0 >= 10.0);
    if let Some(p) = tail {
        m.note(
            format!("election_ms.p{p}"),
            percentile(&t.latencies_ms, p as f64),
            "ms",
        );
    }
    m.note("samples", n as f64, "elections");
    m.note("passes", t.passes as f64, "passes");
    m.note("setups", t.setup_s.len() as f64, "set-ups");
    Exact::of(plan, &t.outcomes).report(&mut m, t.typed_failures as f64 / n as f64, false);
    Ok(m)
}

/// Run every workload in both modes at tiny size and check each emits exactly the
/// metric names and units `BENCHMARK.json` registers for that mode.
pub fn self_test(mut run: impl FnMut(Kind, bool) -> Result<Metrics, String>) -> Result<(), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let registered = |key: &str| -> Result<Vec<(String, String)>, String> {
        let list = doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json lacks {key}"))?;
        Ok(list
            .iter()
            .filter_map(|e| {
                Some((
                    e.get("name")?.as_str()?.to_string(),
                    e.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect())
    };
    for kind in Kind::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut want = registered(key)?;
            let m = run(kind, trace)?;
            m.print();
            let mut got: Vec<(String, String)> = m
                .registered()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            want.sort();
            got.sort();
            if want != got {
                return Err(format!(
                    "{} --trace {}: emitted {got:?}, registered {want:?}",
                    kind.name(),
                    trace as u8
                ));
            }
        }
    }
    println!("self-test passed: every workload emits every registered metric in both modes");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_the_nearest_rank_sample() {
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        let v: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 90.0), 91.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
    }
}
