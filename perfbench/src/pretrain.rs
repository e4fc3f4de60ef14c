//! `pretrain`: the offline path for 4 GPUs at the default
//! `CollectConfig`/`TrainSettings`: label collection, then training of the
//! computation model and both communication models. It runs `nshard-nn`
//! GEMM at training shapes with backward passes and Adam, which search
//! runs forward-only on small batches. The pre-trained models then search
//! a few Table-1 tasks, which is what they are for.

use std::time::{Duration, Instant};

use nshard_core::NeuroShard;
use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
use nshard_data::ShardingTask;

use crate::layers::{peel_engine, peel_search, peel_training, pretrain_from_parts, Searched};
use crate::report::{Outcome, Summary};
use crate::stats::median;
use crate::{
    bundle_bits, ground_truth_ms, host, search_config, table_pool, task, BUNDLE_SEED, NUM_GPUS,
    TABLE1_TABLES,
};

/// Pre-trainings per run: `max(MIN_ITERATIONS, ⌈seconds / SECONDS_PER_ITERATION⌉)`,
/// alternating between the public parts and `CostModelBundle::pretrain`,
/// compared bit for bit. The count is fixed by `--seconds`, not by host
/// speed. The traced run makes more, so the medians its peel compares are
/// steadier.
const MIN_ITERATIONS: usize = 2;
const MIN_TRACED_ITERATIONS: usize = 4;
const SECONDS_PER_ITERATION: u64 = 8;
/// Set-ups per run; `setup_s` is their median. A set-up generates the
/// pool and warms the collectors, trainers and worker threads with a
/// smoke-scale pre-training, so the timed pre-trainings start warm. Each
/// takes a fraction of a second, so more of them keep the median steady.
const SETUP_REPEATS: usize = 15;
/// A pre-training that takes longer than this misses its limit.
const PRETRAIN_LIMIT_S: f64 = 60.0;
/// Table-1 tasks the pre-trained models search, the first of the
/// `shard_offline` universe; `plan_cost_ms` is their mean ground truth.
const PROBE_TASKS: u64 = 8;
/// The median of the timed parts may differ from the median whole
/// pre-training by this share before the pre-train peel counts as failed.
const PEEL_TOLERANCE: f64 = 0.10;

/// Runs the workload.
///
/// Pre-training uses the search bundle's fixed seed: the paper pre-trains
/// once, and the test MSEs of one pre-training are the numbers compared
/// across runs. `--seed` picks which construction goes first and seeds
/// the measurement noise of the probe plans' ground truth.
pub fn run(seed: u64, seconds: Duration, trace: bool) -> Outcome {
    let first_parts = seed.is_multiple_of(2);
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut pool = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let fresh = table_pool();
        let warm = CostModelBundle::pretrain(
            &fresh,
            NUM_GPUS,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            BUNDLE_SEED,
        );
        std::hint::black_box(warm);
        setup_times.push(t.elapsed().as_secs_f64());
        pool = Some(fresh);
    }
    let pool = pool.expect("at least one set-up");
    let start = Instant::now();

    let collect = CollectConfig::default();
    let train = TrainSettings::default();
    let mut times = Vec::new();
    let mut parts = Vec::new();
    let mut bundles = Vec::new();
    let min_iterations = if trace {
        MIN_TRACED_ITERATIONS
    } else {
        MIN_ITERATIONS
    };
    let iterations = min_iterations.max(seconds.as_secs().div_ceil(SECONDS_PER_ITERATION) as usize);
    for _ in 0..iterations {
        let t = Instant::now();
        let bundle = if (times.len() % 2 == 0) == first_parts {
            let (b, p) = pretrain_from_parts(&pool, &collect, &train, BUNDLE_SEED);
            parts.push(p);
            b
        } else {
            CostModelBundle::pretrain(&pool, NUM_GPUS, &collect, &train, BUNDLE_SEED)
        };
        times.push(t.elapsed().as_secs_f64());
        bundles.push(bundle);
    }

    let wall = start.elapsed().as_secs_f64();

    let reference = bundle_bits(&bundles[usize::from(first_parts)]);
    let mut within = 0u64;
    for (i, (b, secs)) in bundles.iter().zip(&times).enumerate() {
        out.attempted += 1;
        if bundle_bits(b) != reference {
            out.fail(
                true,
                &format!("pre-training {i} differs from CostModelBundle::pretrain"),
            );
            continue;
        }
        within += u64::from(*secs <= PRETRAIN_LIMIT_S);
    }
    let whole_times: Vec<f64> = times
        .iter()
        .skip(usize::from(first_parts))
        .step_by(2)
        .copied()
        .collect();

    // What the pre-trained models are for: search Table-1 tasks with them.
    let bundle = &bundles[0];
    let sharder = NeuroShard::new(bundle.clone(), search_config(host::nproc()));
    let tasks: Vec<ShardingTask> = (0..PROBE_TASKS)
        .map(|i| task(&pool, i, TABLE1_TABLES))
        .collect();
    let (mut outcomes, mut shard_ms, mut costs) = (Vec::new(), Vec::new(), Vec::new());
    for (i, t) in tasks.iter().enumerate() {
        let t0 = Instant::now();
        let r = sharder.shard_with_stats(t);
        shard_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match &r {
            Ok(o) => match o
                .plan
                .validate(t)
                .map_err(|e| e.to_string())
                .and_then(|()| ground_truth_ms(t, &o.plan, seed, i as u64))
            {
                Ok(c) => {
                    costs.push(c);
                    within += 1;
                }
                Err(e) => out.fail(true, &format!("probe task {i}: {e}")),
            },
            Err(e) => out.fail(false, &format!("probe task {i}: {e}")),
        }
        outcomes.push(r);
    }

    if trace {
        let searched = Searched {
            sharder: &sharder,
            bundle,
            tasks: &tasks,
            outcomes: &outcomes,
            shard_ms: &shard_ms,
        };
        peel_search(&mut out, &searched);
        peel_engine(&mut out, bundle, &tasks);
        peel_training(&mut out, &pool, &collect, &train, BUNDLE_SEED, &parts);
        let whole = median(&whole_times);
        let summed = median(&parts.iter().map(|p| p.total()).collect::<Vec<_>>());
        let gap = (whole - summed) / whole;
        out.put(
            "peel.rest_share",
            gap,
            "(whole - sum of parts) / whole, medians",
        );
        out.check(
            gap.abs() <= PEEL_TOLERANCE,
            &format!("parts add up to the pre-training within {PEEL_TOLERANCE} (gap {gap:.4})"),
        );
        return out;
    }
    let op_ms: Vec<f64> = times.iter().map(|s| s * 1e3).collect();
    Summary {
        setup_s: &setup_times,
        peak_rss_mb: host::peak_rss_mb(),
        op: "whole pre-trainings",
        op_ms: &op_ms,
        ops_per_s: times.len() as f64 / wall,
        within_limit: within,
        limit: &format!(
            "pre-trainings <= {PRETRAIN_LIMIT_S} s; {PROBE_TASKS} probe searches valid"
        ),
        plan_costs: &costs,
        models: bundle.report(),
    }
    .put(&mut out);
    out
}
