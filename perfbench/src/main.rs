//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <shard_offline|serve_mixed|pretrain|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. Each workload drives the crates'
//! public API from outside the program; nothing inside the crates is
//! instrumented. With `--trace 0` a run prints every end-to-end metric,
//! with `--trace 1` every per-layer metric, measured on its workload. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--workload all` runs
//! the three workloads one after another, each in its own process.

mod gen;
mod host;
mod http;
mod layers;
mod offline;
mod pretrain;
mod report;
mod schedule;
mod serve;
mod stats;

use std::ops::RangeInclusive;
use std::time::{Duration, Instant};

use nshard_core::{evaluate_plan, NeuroShardConfig, ShardingPlan};
use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
use nshard_data::{ShardingTask, TablePool};
use nshard_serve::ServeConfig;
use nshard_sim::GpuSpec;

use crate::layers::{pretrain_from_parts, Parts};

/// Workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["shard_offline", "serve_mixed", "pretrain"];

/// The paper's 856-table pool; every workload draws its tasks from it.
const POOL_TABLES: usize = 856;
const POOL_SEED: u64 = 2023;
/// GPUs per task, as in Table 1.
const NUM_GPUS: usize = 4;
/// Seed of the search bundle: it is pre-trained once and searched per
/// task, so `--seed` varies the tasks, not the cost models.
const BUNDLE_SEED: u64 = 42;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {}", args.workload));
    }
    Ok(args)
}

/// The 856-table pool.
pub fn table_pool() -> TablePool {
    TablePool::synthetic_dlrm(POOL_TABLES, POOL_SEED)
}

/// Seed of the fixed task universe. Runs differ in the order and timing
/// of the tasks (`--seed`), not in the tasks themselves, so per-run medians
/// compare the same work across seeds.
const TASK_SEED: u64 = 2024;

/// Table counts of the paper's Table-1 tasks on 4 GPUs.
pub const TABLE1_TABLES: RangeInclusive<usize> = 10..=60;

/// Universe task `i`: a task on 4 GPUs with dims 4–128 at the bundle's
/// batch size. Table counts sweep `tables` in a fixed permutation, so every
/// `tables.len()` consecutive tasks cover each count once. A draw whose
/// tables exceed the GPUs' aggregate memory has no plan at all and is
/// drawn again.
pub fn task(pool: &TablePool, i: u64, tables: RangeInclusive<usize>) -> ShardingTask {
    let span = (tables.end() - tables.start() + 1) as u64;
    let count = tables.start() + ((i * 37) % span) as usize;
    (0u64..)
        .map(|attempt| {
            ShardingTask::sample(
                pool,
                NUM_GPUS,
                count..=count,
                128,
                nshard_pool::sample_seed(TASK_SEED ^ attempt, i),
            )
        })
        .find(ShardingTask::aggregate_memory_feasible)
        .expect("some draw fits")
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn order(seed: u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (nshard_pool::sample_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// The search bundle's pre-training: half the default samples and
/// epochs, so a run can afford several full set-ups; the `pretrain`
/// workload measures the default scale.
pub fn search_settings() -> (CollectConfig, TrainSettings) {
    let defaults = CollectConfig::default();
    let collect = CollectConfig {
        compute_samples: defaults.compute_samples / 2,
        comm_samples: defaults.comm_samples / 2,
        ..defaults
    };
    let train = TrainSettings {
        epochs: TrainSettings::default().epochs / 2,
        ..TrainSettings::default()
    };
    (collect, train)
}

/// The search bundle, built from its timed parts.
pub fn search_bundle(pool: &TablePool) -> (CostModelBundle, Parts) {
    let (collect, train) = search_settings();
    pretrain_from_parts(pool, &collect, &train, BUNDLE_SEED)
}

/// Search knobs: the defaults at `threads` threads.
pub fn search_config(threads: usize) -> NeuroShardConfig {
    NeuroShardConfig {
        threads,
        ..NeuroShardConfig::default()
    }
}

/// Response-cache entries of the serving daemon.
const RESPONSE_CACHE_ENTRIES: usize = 4096;

/// The daemon's configuration: default knobs, response cache on, and one
/// search thread per job, so the workers' searches share the cores
/// instead of oversubscribing them.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        response_cache_entries: RESPONSE_CACHE_ENTRIES,
        search: search_config(1),
        ..ServeConfig::default()
    }
}

/// Seed of the ground-truth measurement noise behind `plan_cost_ms`,
/// mixed with `--seed`: plans are deterministic, their measured cost
/// carries the simulated cluster's measurement noise.
const COST_NOISE_SEED: u64 = 0xC057;

/// Table 1's metric for one plan: its ground-truth max-device cost on the
/// simulated cluster, ms. `i` names the plan within the run.
pub fn ground_truth_ms(
    task: &ShardingTask,
    plan: &ShardingPlan,
    seed: u64,
    i: u64,
) -> Result<f64, String> {
    let noise = nshard_pool::sample_seed(COST_NOISE_SEED ^ seed, i);
    evaluate_plan(task, plan, &GpuSpec::rtx_2080_ti(), noise)
        .map(|c| c.max_total_ms())
        .map_err(|e| e.to_string())
}

/// Serializes a bundle; equal strings mean bit-equal weights.
pub fn bundle_bits(bundle: &CostModelBundle) -> String {
    serde_json::to_string(bundle).expect("bundles serialize")
}

/// Runs `f` until at least `min_reps` runs and `min_time` have passed and
/// returns the median time of one run, in seconds.
pub fn time_median(min_reps: usize, min_time: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed() < min_time {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    stats::median(&times)
}

/// Runs every workload in its own process and prints one summary whose
/// metrics are named `<workload>/<metric>`.
fn run_all(args: &Args) -> i32 {
    use serde_json::Value;
    let exe = std::env::current_exe().expect("own executable path");
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("workload process runs");
        let text = String::from_utf8_lossy(&out.stdout);
        let Some(last) = text.lines().last().filter(|_| out.status.success()) else {
            eprintln!("workload {w} failed");
            return 1;
        };
        text.lines()
            .filter(|l| !l.starts_with("host ") && *l != last)
            .for_each(|l| println!("{l}"));
        let v = serde_json::parse_value(last).expect("workload result is JSON");
        let field = |k: &str| {
            v.as_map()
                .and_then(|m| m.iter().find(|(n, _)| n == k))
                .map(|(_, v)| v)
        };
        let count = |k: &str| match field(k) {
            Some(Value::UInt(n)) => *n,
            _ => 0,
        };
        correct &= matches!(field("correct"), Some(Value::Bool(true)));
        attempted += count("attempted");
        failed += count("failed");
        for (name, m) in field("metrics").and_then(Value::as_map).unwrap_or_default() {
            let get = |k: &str| m.as_map().and_then(|f| f.iter().find(|(n, _)| n == k));
            let value = match get("value").map(|(_, v)| v) {
                Some(Value::Float(x)) => format!("{x:?}"),
                Some(Value::UInt(x)) => x.to_string(),
                Some(Value::Int(x)) => x.to_string(),
                _ => "0".into(),
            };
            let unit = get("unit").and_then(|(_, u)| u.as_str()).unwrap_or("?");
            metrics.push(format!(
                "\"{w}/{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    0
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("host {}", host::record());
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let seconds = Duration::from_secs(args.seconds.max(1));
    let outcome = match args.workload.as_str() {
        "shard_offline" => offline::run(args.seed, seconds, args.trace),
        "serve_mixed" => serve::run(args.seed, seconds, args.trace),
        _ => pretrain::run(args.seed, seconds, args.trace),
    };
    let line = report::render(&args.workload, args.trace, &outcome);
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_a_seeded_permutation() {
        let a = order(3, 50);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, order(3, 50));
        assert_ne!(a, order(4, 50));
    }

    #[test]
    fn universe_tasks_fit_and_repeat() {
        let pool = table_pool();
        for i in 0..60 {
            let t = task(&pool, i, TABLE1_TABLES);
            assert!(t.aggregate_memory_feasible());
            assert_eq!(t.num_tables(), 10 + ((i * 37) % 51) as usize);
            assert_eq!(t, task(&pool, i, TABLE1_TABLES));
        }
    }
}
