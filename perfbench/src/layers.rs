//! The per-layer peel every traced run makes, whatever its workload.
//!
//! Each workload hands over the cost models it searched with, tasks it
//! sharded and the parts its pre-training took; the functions here time
//! calls into each layer's public API around them. The metrics are the
//! same on every workload, so each workload's traced run reports all of
//! them.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nshard_core::{GreedyGridSearch, NeuroShard, PlanError, ShardOutcome};
use nshard_cost::{
    collect_comm_data, collect_compute_data, table_features, BundleReport, CacheStats,
    CollectConfig, CommCostModel, ComputeCostModel, CostModelBundle, CostSimulator, TrainSettings,
};
use nshard_data::{ShardingTask, TablePool};
use nshard_online::{IncrementalConfig, WorkloadDrift};
use nshard_pool::WorkPool;
use nshard_serve::{HttpRequest, HttpResponse, PlanningEngine, Routed, Service};
use nshard_sim::GpuSpec;

use crate::report::Outcome;
use crate::stats::{mean, median};
use crate::{host, serve_config, time_median, NUM_GPUS};

/// Tasks re-sharded at 1 and nproc threads for `pool.speedup`.
const SPEEDUP_TASKS: usize = 12;
/// Tasks planned through `PlanningEngine` for the engine split.
const ENGINE_TASKS: usize = 8;
/// Seed of the drift behind `engine.replan_ms`.
const DRIFT_SEED: u64 = 0xD81F7;
/// Epochs of the 1-thread vs nproc-thread training comparison.
const SPEEDUP_EPOCHS: usize = 3;

/// Seconds spent in each part of one pre-training.
#[derive(Debug, Default, Clone, Copy)]
pub struct Parts {
    pub collect_compute: f64,
    pub collect_comm: f64,
    pub train_compute: f64,
    pub train_fwd: f64,
    pub train_bwd: f64,
}

impl Parts {
    pub fn total(&self) -> f64 {
        self.collect_compute
            + self.collect_comm
            + self.train_compute
            + self.train_fwd
            + self.train_bwd
    }
}

/// `CostModelBundle::pretrain`, rebuilt from the public parts it is made
/// of, each part timed. The `pretrain` workload checks that both give the
/// same bundle bit for bit.
pub fn pretrain_from_parts(
    pool: &TablePool,
    collect: &CollectConfig,
    train: &TrainSettings,
    seed: u64,
) -> (CostModelBundle, Parts) {
    let spec = GpuSpec::rtx_2080_ti();
    let mut parts = Parts::default();
    let mut lap = {
        let mut t = Instant::now();
        move || {
            let s = t.elapsed().as_secs_f64();
            t = Instant::now();
            s
        }
    };
    let compute_data = collect_compute_data(pool, spec.kernel(), collect, seed);
    parts.collect_compute = lap();
    let comm_data = collect_comm_data(pool, spec.comm(), NUM_GPUS, collect, seed ^ 0x1234);
    parts.collect_comm = lap();
    let mut compute = ComputeCostModel::new(seed);
    let compute_report = compute.train(&compute_data, train, seed ^ 0x1);
    parts.train_compute = lap();
    let mut fwd = CommCostModel::new(NUM_GPUS, seed ^ 0x2);
    let fwd_report = fwd.train(&comm_data.forward, train, seed ^ 0x3);
    parts.train_fwd = lap();
    let mut bwd = CommCostModel::new(NUM_GPUS, seed ^ 0x4);
    let bwd_report = bwd.train(&comm_data.backward, train, seed ^ 0x5);
    parts.train_bwd = lap();
    let bundle = CostModelBundle::from_parts(
        compute,
        fwd,
        bwd,
        collect.batch_size,
        BundleReport {
            compute_test_mse: compute_report.test_mse,
            fwd_comm_test_mse: fwd_report.test_mse,
            bwd_comm_test_mse: bwd_report.test_mse,
            compute_samples: collect.compute_samples,
            comm_samples: collect.comm_samples,
        },
    );
    (bundle, parts)
}

/// The answer `Service::handle_blocking` gives, with the calling thread
/// as the worker (the reference service runs without worker threads).
pub fn answer(service: &Service, req: &HttpRequest) -> HttpResponse {
    match service.route(req) {
        Routed::Inline(r) => r,
        Routed::Queued(slot) => {
            while service.drain_one() {}
            slot.wait()
        }
    }
}

/// A `POST` request.
pub fn post(path: &str, body: &str) -> HttpRequest {
    HttpRequest {
        method: "POST".into(),
        path: path.into(),
        body: body.as_bytes().to_vec(),
    }
}

/// A `/v1/plan` body for `task`.
pub fn plan_body(task: &ShardingTask, adopt: bool) -> String {
    let task = serde_json::to_string(task).expect("tasks serialize");
    format!("{{\"task\":{task},\"adopt\":{adopt}}}")
}

/// GEMM throughput of `gemm_into` at one shape, GFLOP/s. FLOPs are
/// computed from the shape (`2·m·k·n` per call), not counted.
fn gemm_gflops(m: usize, k: usize, n: usize) -> f64 {
    let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.125 - 0.25).collect();
    let mut c = vec![0.0f32; m * n];
    let secs = time_median(20, Duration::from_millis(200), || {
        nshard_nn::gemm::gemm_into(black_box(&a), black_box(&b), m, k, n, &mut c);
        black_box(&c);
    });
    2.0 * (m * k * n) as f64 / secs / 1e9
}

/// `WorkPool::map` over nproc trivial items, µs per call.
fn pool_map_us(threads: usize) -> f64 {
    let pool = WorkPool::new(threads);
    let items: Vec<u64> = (0..threads as u64).collect();
    time_median(200, Duration::from_millis(200), || {
        black_box(pool.map(black_box(&items), |&x| x + 1));
    }) * 1e6
}

/// Shards `tasks` on a fresh sharder, returning the wall time and plans.
fn shard_fresh(
    bundle: &CostModelBundle,
    threads: usize,
    tasks: &[ShardingTask],
) -> (f64, Vec<Option<ShardOutcome>>) {
    let sharder = NeuroShard::new(bundle.clone(), crate::search_config(threads));
    let t = Instant::now();
    let plans = tasks
        .iter()
        .map(|t| sharder.shard_with_stats(t).ok())
        .collect();
    (t.elapsed().as_secs_f64(), plans)
}

fn same_plans(a: &[Option<ShardOutcome>], b: &[Option<&ShardOutcome>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => {
                x.plan == y.plan && x.estimated_cost_ms.to_bits() == y.estimated_cost_ms.to_bits()
            }
            (None, None) => true,
            _ => false,
        })
}

/// Searches a workload made with `sharder` (at nproc threads): the tasks,
/// their outcomes in the same order, and each search's wall time.
pub struct Searched<'a> {
    pub sharder: &'a NeuroShard,
    pub bundle: &'a CostModelBundle,
    pub tasks: &'a [ShardingTask],
    pub outcomes: &'a [Result<ShardOutcome, PlanError>],
    pub shard_ms: &'a [f64],
}

/// Beam and greedy-grid work counts, grid probes, `WorkPool`, the
/// prediction cache, model inference and the inference GEMM. Returns
/// `grid.share`, the share of a search spent in greedy-grid probes.
pub fn peel_search(out: &mut Outcome, s: &Searched) -> f64 {
    let threads = host::nproc();
    let done: Vec<&ShardOutcome> = s.outcomes.iter().filter_map(|r| r.as_ref().ok()).collect();
    let n = done.len().max(1) as f64;
    let evaluated = done.iter().map(|o| o.evaluated_plans as f64).sum::<f64>() / n;
    let (mut cand, mut inner) = (CacheStats::default(), CacheStats::default());
    for o in &done {
        cand.absorb(&o.phase_stats.candidate);
        inner.absorb(&o.phase_stats.inner);
    }
    out.put("beam.evaluated_plans", evaluated, "mean per task");
    out.put(
        "beam.candidate_lookups",
        cand.total() as f64 / n,
        "mean per task",
    );
    out.put("beam.candidate_hit_rate", cand.hit_rate(), "");
    out.put(
        "grid.inner_lookups",
        inner.total() as f64 / n,
        "mean per task",
    );
    out.put("grid.inner_hit_rate", inner.hit_rate(), "");

    // One warm inner search on each of the first plans' sharded tables.
    let sim = s.sharder.simulator();
    let grid = GreedyGridSearch::new(sim, s.sharder.config().m).with_threads(threads);
    let probes: Vec<f64> = s
        .tasks
        .iter()
        .zip(s.outcomes)
        .filter_map(|(t, r)| Some((t, r.as_ref().ok()?)))
        .take(10)
        .map(|(t, o)| {
            let tables = o.plan.sharded_tables();
            let probe = || {
                black_box(grid.search(
                    tables,
                    t.num_devices(),
                    t.mem_budget_bytes(),
                    t.batch_size(),
                ))
                .ok();
            };
            probe();
            time_median(5, Duration::ZERO, probe) * 1e6
        })
        .collect();
    let probe_us = median(&probes);
    let grid_share = evaluated * probe_us / (mean(s.shard_ms) * 1e3);
    out.put("grid.probe_us", probe_us, format!("threads={threads}"));
    out.put(
        "grid.share",
        grid_share,
        "evaluated x probe / mean search time",
    );

    out.put(
        "pool.map_us",
        pool_map_us(threads),
        format!("{threads} items"),
    );
    let sample = &s.tasks[..SPEEDUP_TASKS.min(s.tasks.len())];
    let (t1, plans1) = shard_fresh(s.bundle, 1, sample);
    let (tn, plansn) = shard_fresh(s.bundle, threads, sample);
    out.put(
        "pool.speedup",
        t1 / tn,
        format!("{} searches, 1 vs {threads} threads", sample.len()),
    );
    let measured: Vec<Option<&ShardOutcome>> = s.outcomes[..sample.len()]
        .iter()
        .map(|r| r.as_ref().ok())
        .collect();
    let plansn_ref: Vec<Option<&ShardOutcome>> = plansn.iter().map(Option::as_ref).collect();
    out.check(
        same_plans(&plans1, &plansn_ref),
        "plans are bit-identical at 1 and nproc threads",
    );
    out.check(
        same_plans(&plans1, &measured),
        "a fresh sharder reproduces the measured plans",
    );

    let cache = sim.cache();
    out.put("cost.hit_rate", cache.hit_rate(), "whole run");
    out.put("cost.cache_entries", cache.len() as f64, "");

    let batch = s.tasks[0].batch_size();
    let sets: Vec<Vec<Vec<f32>>> = done
        .iter()
        .flat_map(|o| o.plan.device_profiles(batch))
        .filter(|d| !d.is_empty())
        .take(32)
        .map(|d| d.iter().map(|p| table_features(p, batch)).collect())
        .collect();
    let compute_us = time_median(50, Duration::from_millis(100), || {
        black_box(s.bundle.compute_model().predict_batch(black_box(&sets)));
    }) * 1e6;
    out.put(
        "cost.compute_infer_us",
        compute_us,
        format!("{} sets per call", sets.len()),
    );
    let dims: Vec<Vec<f64>> = done.iter().take(32).map(|o| o.plan.device_dims()).collect();
    let starts = vec![0.0f64; s.bundle.num_devices()];
    let placements: Vec<(&[f64], &[f64])> = dims
        .iter()
        .map(|d| (d.as_slice(), starts.as_slice()))
        .collect();
    let comm_us = time_median(50, Duration::from_millis(100), || {
        black_box(
            s.bundle
                .comm_fwd_model()
                .predict_batch(black_box(&placements), batch),
        );
    }) * 1e6;
    out.put(
        "cost.comm_infer_us",
        comm_us,
        format!("{} placements per call", placements.len()),
    );

    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for o in done.iter().take(20) {
        let profiles = o.plan.device_profiles(batch);
        let fresh = CostSimulator::new(s.bundle.clone());
        let t0 = Instant::now();
        black_box(fresh.estimate_plan(&profiles));
        cold.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        black_box(fresh.estimate_plan(&profiles));
        warm.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    out.put(
        "cost.estimate_plan_cold_us",
        median(&cold),
        format!("n={}", cold.len()),
    );
    out.put(
        "cost.estimate_plan_warm_us",
        median(&warm),
        format!("n={}", warm.len()),
    );

    // The compute model's head at search batch sizes: 32 pooled sets
    // through its 32 -> 64 layer.
    out.put(
        "nn.gemm_gflops_infer",
        gemm_gflops(32, 32, 64),
        "m=32 k=32 n=64, 2mkn FLOPs",
    );
    grid_share
}

/// The serving layer in process: `PlanningEngine::plan` against bare
/// `shard_with_stats` on the same tasks, `PlanningEngine::replan` on
/// drifted copies of them, and a response-cache hit in `Service`.
pub fn peel_engine(out: &mut Outcome, bundle: &CostModelBundle, tasks: &[ShardingTask]) {
    let cfg = serve_config();
    let engine = PlanningEngine::new(
        bundle.clone(),
        cfg.search,
        IncrementalConfig::default(),
        cfg.seed,
    );
    let sharder = NeuroShard::new(bundle.clone(), cfg.search);
    let tasks = &tasks[..ENGINE_TASKS.min(tasks.len())];
    // Alternate the two per task so both see the same host state.
    let (mut plan_ms, mut shard_ms, mut incumbents) = (Vec::new(), Vec::new(), Vec::new());
    for t in tasks {
        let t0 = Instant::now();
        let planned = engine.plan(t, false);
        plan_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        sharder.shard_with_stats(t).ok();
        shard_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match planned {
            Ok(p) => incumbents.push((t, p.plan)),
            Err(e) => out.check(false, &format!("the engine plans every task ({e})")),
        }
    }
    out.put(
        "engine.plan_ms",
        median(&plan_ms),
        format!("n={}", plan_ms.len()),
    );
    out.put(
        "engine.chain_overhead_ms",
        mean(&plan_ms) - mean(&shard_ms),
        "mean engine.plan - mean shard_with_stats",
    );
    let replan_ms: Vec<f64> = incumbents
        .iter()
        .map(|(t, incumbent)| {
            let drifted = WorkloadDrift::standard((*t).clone(), DRIFT_SEED).task_at(1);
            let t0 = Instant::now();
            engine.replan(&drifted, incumbent, false).ok();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.put(
        "engine.replan_ms",
        median(&replan_ms),
        format!("n={}, drifted one epoch", replan_ms.len()),
    );

    let service = Service::new(bundle.clone(), cfg).expect("daemon config is valid");
    let hot = post("/v1/plan", &plan_body(&tasks[0], false));
    let first = answer(&service, &hot);
    out.check(first.status == 200, "the in-process service plans a task");
    let handle_us = time_median(300, Duration::from_millis(100), || {
        black_box(answer(&service, &hot));
    }) * 1e6;
    out.put(
        "server.handle_hit_us",
        handle_us,
        "in-process Service answer from the response cache",
    );
}

/// Label collection and training, from the parts of the workload's
/// pre-trainings; then the compute model trained at 1 and nproc threads,
/// and the training GEMM.
pub fn peel_training(
    out: &mut Outcome,
    pool: &TablePool,
    collect: &CollectConfig,
    train: &TrainSettings,
    seed: u64,
    parts: &[Parts],
) {
    let part = |f: fn(&Parts) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    let train_s = part(|p| p.train_compute) + part(|p| p.train_fwd) + part(|p| p.train_bwd);
    out.put(
        "collect.compute_s",
        part(|p| p.collect_compute),
        format!("{} samples", collect.compute_samples),
    );
    out.put(
        "collect.comm_s",
        part(|p| p.collect_comm),
        format!("{} samples", collect.comm_samples),
    );
    out.put(
        "train.compute_s",
        part(|p| p.train_compute),
        format!("{} epochs", train.epochs),
    );
    out.put(
        "train.comm_fwd_s",
        part(|p| p.train_fwd),
        format!("{} epochs", train.epochs),
    );
    out.put(
        "train.comm_bwd_s",
        part(|p| p.train_bwd),
        format!("{} epochs", train.epochs),
    );
    let sample_epochs =
        (train.epochs * (collect.compute_samples + 2 * collect.comm_samples)) as f64;
    out.put(
        "train.samples_per_s",
        sample_epochs / train_s,
        "sample-epochs of the 3 models / training s",
    );

    let threads = host::nproc();
    let data = collect_compute_data(pool, GpuSpec::rtx_2080_ti().kernel(), collect, seed);
    let timed_train = |threads: usize| {
        let settings = TrainSettings {
            epochs: SPEEDUP_EPOCHS,
            threads,
            ..*train
        };
        let mut model = ComputeCostModel::new(seed);
        let t = Instant::now();
        model.train(&data, &settings, seed ^ 0x1);
        (
            t.elapsed().as_secs_f64(),
            serde_json::to_string(&model).expect("models serialize"),
        )
    };
    let (t1, m1) = timed_train(1);
    let (tn, mn) = timed_train(threads);
    out.put(
        "train.pool_speedup",
        t1 / tn,
        format!("compute model, {SPEEDUP_EPOCHS} epochs, 1 vs {threads} threads"),
    );
    out.check(
        m1 == mn,
        "trained weights are bit-identical at 1 and nproc threads",
    );
    // The computation model's encoder at training batch sizes: 128 samples
    // of about 8 tables through its 128 -> 32 layer.
    out.put(
        "nn.gemm_gflops_train",
        gemm_gflops(1024, 128, 32),
        "m=1024 k=128 n=32, 2mkn FLOPs",
    );
}
