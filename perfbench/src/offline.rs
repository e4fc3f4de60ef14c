//! `shard_offline`: one caller shards Table-1 tasks back to back with
//! `NeuroShard::shard_with_stats` at the default search knobs and
//! `threads = nproc`, with no HTTP. The paper's main use; it bypasses the
//! net, admission and store layers.

use std::time::{Duration, Instant};

use nshard_core::NeuroShard;
use nshard_cost::CostModelBundle;
use nshard_data::{ShardingTask, TablePool};
use nshard_pool::sample_seed;

use crate::layers::{peel_engine, peel_search, peel_training, Parts, Searched};
use crate::report::{Outcome, Summary};
use crate::{
    bundle_bits, ground_truth_ms, host, order, search_bundle, search_config, search_settings,
    table_pool, task, BUNDLE_SEED, TABLE1_TABLES,
};

/// Tasks per run: one seeded pass over a fixed universe of
/// `max(MIN_TASKS, TASKS_PER_SECOND · seconds)` tasks. The work is fixed by
/// `--seconds`, not by host speed, so every run and every commit shards
/// the same tasks; more than ten lie beyond the p90.
const MIN_TASKS: usize = 160;
const TASKS_PER_SECOND: usize = 8;
/// A task answered later than this misses its limit (`slo_share`); it is
/// the serving daemon's limit for a search request.
const TASK_LIMIT_MS: f64 = 1000.0;
/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Warm-up tasks sharded in set-up, drawn from outside the universe.
const WARMUP_TASKS: u64 = 4;
const WARMUP_BASE: u64 = 10_000;
/// The grid probes may exceed the measured task time by this share
/// before the offline peel counts as failed.
const PEEL_TOLERANCE: f64 = 0.10;

struct Setup {
    pool: TablePool,
    bundle: CostModelBundle,
    parts: Parts,
    sharder: NeuroShard,
}

/// Pool generation, bundle pre-training and a warm-up.
fn setup(threads: usize) -> Setup {
    let pool = table_pool();
    let (bundle, parts) = search_bundle(&pool);
    let sharder = NeuroShard::new(bundle.clone(), search_config(threads));
    for i in 0..WARMUP_TASKS {
        let _ = sharder.shard_with_stats(&task(&pool, WARMUP_BASE + i, TABLE1_TABLES));
    }
    Setup {
        pool,
        bundle,
        parts,
        sharder,
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: Duration, trace: bool) -> Outcome {
    let threads = host::nproc();
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut first_bits = None;
    let mut s = None;
    let mut parts = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(s.take());
        let t = Instant::now();
        let fresh = setup(threads);
        setup_times.push(t.elapsed().as_secs_f64());
        parts.push(fresh.parts);
        let bits = bundle_bits(&fresh.bundle);
        let same = first_bits.get_or_insert_with(|| bits.clone()) == &bits;
        out.check(same, "every set-up pre-trains the same bundle");
        s = Some(fresh);
    }
    let s = s.expect("at least one set-up");

    let n = MIN_TASKS.max(TASKS_PER_SECOND * seconds.as_secs() as usize);
    let universe: Vec<ShardingTask> = (0..n as u64)
        .map(|i| task(&s.pool, i, TABLE1_TABLES))
        .collect();
    let mut tasks = Vec::new();
    let mut times = Vec::new();
    let mut outcomes = Vec::new();
    let start = Instant::now();
    for idx in order(sample_seed(seed, 0), n) {
        let t = &universe[idx];
        let t0 = Instant::now();
        let r = s.sharder.shard_with_stats(t);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        tasks.push((idx, t.clone()));
        outcomes.push(r);
    }
    let wall = start.elapsed().as_secs_f64();

    let mut costs = vec![None; n];
    let mut within = 0u64;
    for (((idx, t), r), ms) in tasks.iter().zip(&outcomes).zip(&times) {
        out.attempted += 1;
        let o = match r {
            Ok(o) => o,
            Err(e) => {
                out.fail(false, &format!("task {idx}: {e}"));
                continue;
            }
        };
        if let Err(e) = o.plan.validate(t) {
            out.fail(true, &format!("task {idx}: invalid plan: {e}"));
            continue;
        }
        match ground_truth_ms(t, &o.plan, seed, *idx as u64) {
            Ok(c) => {
                costs[*idx] = Some(c);
                within += u64::from(*ms <= TASK_LIMIT_MS);
            }
            Err(e) => out.fail(true, &format!("task {idx}: plan fails on the cluster: {e}")),
        }
    }
    // Summed in universe order, so the mean does not depend on run order.
    let costs: Vec<f64> = costs.into_iter().flatten().collect();
    let tasks: Vec<ShardingTask> = tasks.into_iter().map(|(_, t)| t).collect();

    if trace {
        let searched = Searched {
            sharder: &s.sharder,
            bundle: &s.bundle,
            tasks: &tasks,
            outcomes: &outcomes,
            shard_ms: &times,
        };
        let grid_share = peel_search(&mut out, &searched);
        peel_engine(&mut out, &s.bundle, &tasks);
        let (collect, train) = search_settings();
        peel_training(&mut out, &s.pool, &collect, &train, BUNDLE_SEED, &parts);
        out.put(
            "peel.rest_share",
            1.0 - grid_share,
            "task time not in grid probes",
        );
        out.check(
            grid_share <= 1.0 + PEEL_TOLERANCE,
            &format!(
                "grid probes ({grid_share:.3} of task time) fit in the task within {PEEL_TOLERANCE}"
            ),
        );
        return out;
    }
    Summary {
        setup_s: &setup_times,
        peak_rss_mb: host::peak_rss_mb(),
        op: &format!("tasks at {threads} threads"),
        op_ms: &times,
        ops_per_s: times.len() as f64 / wall,
        within_limit: within,
        limit: &format!("tasks <= {TASK_LIMIT_MS} ms"),
        plan_costs: &costs,
        models: s.bundle.report(),
    }
    .put(&mut out);
    out
}
