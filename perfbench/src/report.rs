//! Metric catalogue and the result line.
//!
//! The catalogue names every metric once, with its unit. Every workload
//! reports every end-to-end metric (tracing off) and every per-layer
//! metric (tracing on); per-layer metrics also name the end-to-end metric
//! they should move. A self-test keeps the catalogue equal to
//! `BENCHMARK.json`.

use nshard_cost::BundleReport;

use crate::stats::{beyond, mean, median, percentile};

/// An end-to-end metric: `(name, unit)`.
pub type EndToEnd = (&'static str, &'static str);

/// Every end-to-end metric. An operation is the unit of work a workload
/// measures: a task on `shard_offline`, a search request (novel plan or
/// replan) on `serve_mixed`, one whole pre-training on `pretrain`.
pub const END_TO_END: &[EndToEnd] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("slo_share", "share"),
    ("plan_cost_ms", "ms"),
    ("compute_mse", "ms2"),
    ("comm_fwd_mse", "ms2"),
    ("comm_bwd_mse", "ms2"),
];

/// A per-layer metric: `(name, unit, the e2e metric it should move)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

const WORK: &str = "work count; constant under a speed change";
const SEARCH: &str = "op_p50_ms on shard_offline and serve_mixed";
const COST: &str = "op_p50_ms on serve_mixed, then on shard_offline";
const ENGINE: &str = "op_p50_ms, op_p90_ms on serve_mixed";
const TRAIN: &str = "op_p50_ms on pretrain; setup_s on the others";

/// Every per-layer metric (traced run).
pub const PER_LAYER: &[PerLayer] = &[
    // nshard-core: beam search and greedy grid search.
    ("beam.evaluated_plans", "count", WORK),
    ("beam.candidate_lookups", "count", WORK),
    ("beam.candidate_hit_rate", "share", WORK),
    ("grid.inner_lookups", "count", WORK),
    ("grid.inner_hit_rate", "share", WORK),
    ("grid.probe_us", "us", SEARCH),
    ("grid.share", "share", SEARCH),
    // nshard-pool.
    (
        "pool.map_us",
        "us",
        "ops_per_s on shard_offline and pretrain",
    ),
    ("pool.speedup", "x", "ops_per_s on shard_offline"),
    // nshard-cost: prediction cache and model inference.
    ("cost.hit_rate", "share", COST),
    (
        "cost.cache_entries",
        "count",
        "peak_rss_mb on shard_offline and serve_mixed",
    ),
    ("cost.compute_infer_us", "us", COST),
    ("cost.comm_infer_us", "us", COST),
    ("cost.estimate_plan_cold_us", "us", COST),
    ("cost.estimate_plan_warm_us", "us", COST),
    // nshard-nn.
    ("nn.gemm_gflops_infer", "GFLOP/s", SEARCH),
    ("nn.gemm_gflops_train", "GFLOP/s", TRAIN),
    // nshard-serve, in process.
    ("engine.plan_ms", "ms", ENGINE),
    ("engine.chain_overhead_ms", "ms", ENGINE),
    ("engine.replan_ms", "ms", ENGINE),
    (
        "server.handle_hit_us",
        "us",
        "slo_share on serve_mixed (hits)",
    ),
    // nshard-cost::collect + nshard-sim, then training (nshard-nn).
    ("collect.compute_s", "s", TRAIN),
    ("collect.comm_s", "s", TRAIN),
    ("train.compute_s", "s", TRAIN),
    ("train.comm_fwd_s", "s", TRAIN),
    ("train.comm_bwd_s", "s", TRAIN),
    ("train.samples_per_s", "1/s", TRAIN),
    ("train.pool_speedup", "x", TRAIN),
    // The peel as a whole.
    (
        "peel.rest_share",
        "share",
        "op_p50_ms: the share of an operation outside the peeled parts",
    ),
];

/// Numbers only a live daemon under load gives: the `serve_mixed` traced
/// run prints them with the per-layer metrics, but they are not in the
/// result line, which carries the same metrics for every workload.
pub const SERVE_DIAGNOSTICS: &[PerLayer] = &[
    ("serve.hit_p50_ms", "ms", "slo_share on serve_mixed"),
    (
        "serve.hit_p99_ms",
        "ms",
        "slo_share on serve_mixed: hits waiting for CPU behind searches",
    ),
    ("net.overhead_us", "us", "slo_share on serve_mixed (hits)"),
    ("server.search_mean_ms", "ms", ENGINE),
    ("server.queue_wait_ms", "ms", ENGINE),
    (
        "serve.response_cache_hit_rate",
        "share",
        "slo_share on serve_mixed (hits)",
    ),
    ("serve.queue_depth_max", "count", ENGINE),
    ("serve.fallbacks", "count", "slo_share on serve_mixed"),
    ("serve.degraded", "count", "slo_share on serve_mixed"),
    ("serve.repairs", "count", ENGINE),
    ("serve.rejected_429", "count", "slo_share on serve_mixed"),
    ("serve.rejected_503", "count", "slo_share on serve_mixed"),
    (
        "net.keepalive_reuse",
        "count",
        "slo_share on serve_mixed (hits)",
    ),
    ("net.pipelined", "count", ENGINE),
    (
        "gen.late_p99_ms",
        "ms",
        "validity of every serve_mixed latency",
    ),
];

/// What one run measured for its end-to-end metrics.
pub struct Summary<'a> {
    /// Seconds of each set-up the run made.
    pub setup_s: &'a [f64],
    pub peak_rss_mb: f64,
    /// What one operation is, for the printed table.
    pub op: &'a str,
    /// Latency of each answered operation, ms.
    pub op_ms: &'a [f64],
    /// Operations completed per second of the timed phase.
    pub ops_per_s: f64,
    /// Attempted operations answered correctly within their limit.
    pub within_limit: u64,
    /// The latency limit, for the printed table.
    pub limit: &'a str,
    /// Ground-truth max-device cost of each plan the run checked, ms.
    pub plan_costs: &'a [f64],
    /// Test errors of the cost models the run searched with.
    pub models: &'a BundleReport,
}

impl Summary<'_> {
    /// Records every end-to-end metric.
    pub fn put(&self, out: &mut Outcome) {
        let n = self.op_ms.len();
        out.put(
            "setup_s",
            median(self.setup_s),
            format!("median of {}", self.setup_s.len()),
        );
        out.put("peak_rss_mb", self.peak_rss_mb, "");
        out.put(
            "op_p50_ms",
            median(self.op_ms),
            format!("n={n} ({})", self.op),
        );
        out.put(
            "op_p90_ms",
            percentile(self.op_ms, 0.9),
            format!("n={n}, {} beyond", beyond(n, 0.9)),
        );
        out.put("ops_per_s", self.ops_per_s, "");
        out.put(
            "slo_share",
            self.within_limit as f64 / out.attempted.max(1) as f64,
            self.limit,
        );
        out.put(
            "plan_cost_ms",
            mean(self.plan_costs),
            format!("mean of {} plans", self.plan_costs.len()),
        );
        let m = self.models;
        for (name, mse) in [
            ("compute_mse", m.compute_test_mse),
            ("comm_fwd_mse", m.fwd_comm_test_mse),
            ("comm_bwd_mse", m.bwd_comm_test_mse),
        ] {
            out.check(mse.is_finite() && mse > 0.0, &format!("{name} is positive"));
            out.put(name, f64::from(mse), "held-out test set");
        }
    }
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Sample count or other context printed next to it.
    pub note: String,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (tasks, requests or pre-trainings).
    pub attempted: u64,
    /// Operations that failed: errors, refusals and wrong outputs.
    pub failed: u64,
    /// Operations whose output was wrong (a subset of `failed`), plus
    /// failed self-checks of the benchmark.
    pub wrong: u64,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric; `name` must be in the catalogue.
    pub fn put(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.metrics.push(Metric {
            name,
            value,
            note: note.into(),
        });
    }

    /// Counts a failed operation; `wrong` marks a wrong output.
    pub fn fail(&mut self, wrong: bool, why: &str) {
        eprintln!("FAILED: {why}");
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
    }

    /// Records a failed self-check that is not an operation (a determinism
    /// or peel check).
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            eprintln!("check ok: {what}");
        } else {
            eprintln!("CHECK FAILED: {what}");
            self.wrong += 1;
        }
    }
}

/// The unit a catalogued metric is reported in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .or_else(|| layer(name).map(|m| m.1))
}

fn layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER
        .iter()
        .chain(SERVE_DIAGNOSTICS)
        .find(|m| m.0 == name)
}

/// Names the result line must carry: every end-to-end metric, or with
/// tracing every per-layer metric.
fn required(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    }
}

/// Prints the human-readable table and returns the result line.
pub fn render(workload: &str, traced: bool, out: &Outcome) -> String {
    println!(
        "== {workload} ({}) ==",
        if traced { "traced" } else { "end to end" }
    );
    for m in &out.metrics {
        let unit = unit_of(m.name).unwrap_or("?");
        let moves = match layer(m.name) {
            Some(p) if traced => format!("  -> {}", p.2),
            _ => String::new(),
        };
        println!(
            "{:<30} {:>16.6} {:<8} {}{moves}",
            m.name, m.value, unit, m.note
        );
    }
    println!(
        "{workload}: attempted {} failed {} wrong {}",
        out.attempted, out.failed, out.wrong
    );
    let required = required(traced);
    let reported: Vec<&Metric> = required
        .iter()
        .filter_map(|name| out.metrics.iter().find(|m| m.name == *name))
        .collect();
    for name in &required {
        if !reported.iter().any(|m| m.name == *name) {
            eprintln!("CHECK FAILED: metric {name} was not measured");
        }
    }
    let complete = reported.len() == required.len();
    let finite = reported.iter().all(|m| m.value.is_finite());
    let fields: Vec<String> = reported
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name,
                unit_of(m.name).unwrap_or("?")
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.wrong == 0 && complete && finite && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn listed(json: &str, section: &str) -> Vec<(String, String)> {
        let v = serde_json::parse_value(json).expect("BENCHMARK.json parses");
        let map = v.as_map().expect("object");
        let list = map
            .iter()
            .find(|(k, _)| k == section)
            .and_then(|(_, v)| v.as_seq())
            .expect("section present");
        list.iter()
            .map(|m| {
                let field = |key: &str| {
                    m.as_map()
                        .and_then(|f| f.iter().find(|(k, _)| k == key))
                        .and_then(|(_, v)| v.as_str())
                        .expect("named metric with a unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(listed(json, "end_to_end"), e2e);
        assert_eq!(listed(json, "per_layer"), layers);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.put(name, 1.25, "");
        }
        let line = render("t", false, &o);
        let v = serde_json::parse_value(&line).expect("result line is JSON");
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.starts_with("{\"correct\": true"));
    }

    #[test]
    fn result_line_carries_exactly_its_catalogue() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for (name, _, _) in PER_LAYER {
            o.put(name, 2.5, "");
        }
        o.put("serve.hit_p99_ms", 4.0, "");
        o.put("setup_s", 1.0, "");
        let line = render("t", true, &o);
        assert!(line.starts_with("{\"correct\": true"));
        assert!(!line.contains("serve.hit_p99_ms"), "diagnostics stay out");
        assert!(!line.contains("setup_s"), "end-to-end metrics stay out");
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());

        o.metrics.retain(|m| m.name != "pool.map_us");
        let line = render("t", true, &o);
        assert!(line.starts_with("{\"correct\": false"), "a missing metric");
    }
}
