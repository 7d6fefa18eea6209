//! Eviction-policy behavior at the tile-budget boundary, and the
//! cache-thrash vs weight-stationary serving scenario it creates.

use oxbar_nn::synthetic;
use oxbar_serve::{catalog, BatchPolicy, ModelId, ServeConfig, ServeEngine};
use oxbar_sim::SimConfig;

fn engine_with(budget: usize, policy: BatchPolicy) -> (ServeEngine, ModelId, ModelId) {
    let device = SimConfig::ideal(64, 64).with_threads(1);
    let mut engine = ServeEngine::new(
        ServeConfig::new(device)
            .with_cache_budget(budget)
            .with_policy(policy),
    );
    let a = engine.admit(catalog::vgg16_conv_sample()).unwrap();
    let b = engine.admit(catalog::mobilenet_sample()).unwrap();
    (engine, a, b)
}

/// Serves one request of the model and returns its cache footprint.
fn footprint_of(engine: &mut ServeEngine, model: ModelId) -> usize {
    let input = synthetic::activations(engine.input_shape(model), 6, 0);
    engine.submit_simple(model, input);
    engine.drain();
    engine.stats().models[model.0].cache.cells
}

/// Submits one request for each of `a` then `b` and drains, three times.
fn serve_three_rounds(engine: &mut ServeEngine, a: ModelId, b: ModelId) {
    for seed in 0..3u64 {
        for model in [a, b] {
            let input = synthetic::activations(engine.input_shape(model), 6, seed);
            engine.submit_simple(model, input);
        }
        engine.drain();
    }
}

#[test]
fn budget_exactly_at_joint_footprint_keeps_both_models_resident() {
    let (mut probe, a, b) = engine_with(usize::MAX, BatchPolicy::SINGLE);
    let fa = footprint_of(&mut probe, a);
    let fb = footprint_of(&mut probe, b);
    assert!(fa > 0 && fb > 0);

    // Exactly the joint footprint: occupancy == budget must NOT evict.
    let (mut engine, a, b) = engine_with(fa + fb, BatchPolicy::SINGLE);
    serve_three_rounds(&mut engine, a, b);
    let stats = engine.stats();
    assert_eq!(stats.evictions, 0, "occupancy == budget is within budget");
    assert_eq!(stats.occupancy_cells, fa + fb);
    assert!(stats.models[a.0].cache.hits > 0, "model A stayed resident");
    assert!(stats.models[b.0].cache.hits > 0, "model B stayed resident");

    // One cell short: the models can no longer coexist. Round 1 evicts A
    // when B lands; every later round recompiles each model and evicts
    // the other — two evictions per round. The pipelined prewarm stage
    // must not change that eviction sequence: under the tight budget its
    // guard refuses every prewarm except the very first fill (nothing
    // else is resident yet), so only the *attribution* of A's first
    // compile moves (off-path fill → A's first round hits instead of
    // missing). Work and evictions are identical.
    for prewarm in [false, true] {
        let device = SimConfig::ideal(64, 64).with_threads(1);
        let mut engine = ServeEngine::new(
            ServeConfig::new(device)
                .with_cache_budget(fa + fb - 1)
                .with_policy(BatchPolicy::SINGLE)
                .with_prewarm(prewarm),
        );
        let a = engine.admit(catalog::vgg16_conv_sample()).unwrap();
        let b = engine.admit(catalog::mobilenet_sample()).unwrap();
        serve_three_rounds(&mut engine, a, b);
        let stats = engine.stats();
        assert_eq!(
            stats.evictions, 5,
            "prewarm={prewarm}: 1 eviction in round 1, then 2 per round"
        );
        assert!(stats.occupancy_cells < fa + fb);
        if prewarm {
            assert!(
                stats.models[a.0].cache.hits > 0,
                "the fill stage programs A off-path, so its first round hits"
            );
            assert_eq!(stats.prewarms, 1, "the budget guard blocks later stages");
        } else {
            assert_eq!(stats.models[a.0].cache.hits, 0, "A never survives to hit");
            assert_eq!(stats.prewarms, 0);
        }
        assert_eq!(stats.models[b.0].cache.hits, 0, "B never survives to hit");
    }
}

#[test]
fn batching_amortizes_reprogramming_under_a_tight_budget() {
    // A budget that holds either model alone but not both: round-robin
    // traffic with single-request dispatch thrashes (every model switch
    // evicts the other model), while same-model batching reprograms once
    // per batch. Same requests, same results, very different work.
    let (mut probe, a, b) = engine_with(usize::MAX, BatchPolicy::SINGLE);
    let fa = footprint_of(&mut probe, a);
    let fb = footprint_of(&mut probe, b);
    let budget = fa.max(fb) + 1_000;
    assert!(budget < fa + fb, "budget must not hold both models");

    let trace: Vec<(ModelId, u64)> = (0..12u64).map(|i| ([a, b][(i % 2) as usize], i)).collect();

    let run = |policy: BatchPolicy| {
        let (mut engine, a2, b2) = engine_with(budget, policy);
        assert_eq!((a2, b2), (a, b));
        for &(model, seed) in &trace {
            let input = synthetic::activations(engine.input_shape(model), 6, seed);
            engine.submit_simple(model, input);
        }
        let mut done = engine.drain();
        done.sort_by_key(|c| c.id);
        let outputs: Vec<Vec<i64>> = done.iter().map(|c| c.output.data().to_vec()).collect();
        (outputs, engine.stats())
    };

    let (thrash_out, thrash) = run(BatchPolicy::SINGLE);
    let (batched_out, batched) = run(BatchPolicy::new(6, u64::MAX));
    assert_eq!(batched_out, thrash_out, "policy must never change results");

    assert!(
        thrash.evictions >= 10,
        "round-robin single dispatch thrashes: {} evictions",
        thrash.evictions
    );
    assert!(
        batched.evictions <= 2,
        "batched dispatch amortizes: {} evictions",
        batched.evictions
    );
    assert!(batched.hit_rate() > thrash.hit_rate());
    let thrash_misses: u64 = thrash.models.iter().map(|m| m.cache.misses).sum();
    let batched_misses: u64 = batched.models.iter().map(|m| m.cache.misses).sum();
    assert!(
        batched_misses * 3 <= thrash_misses,
        "batching must cut reprogramming ≥3×: {batched_misses} vs {thrash_misses}"
    );
}

#[test]
fn batch_programs_each_out_of_budget_tile_once() {
    // A budget holding only half of the dense head: the tiles that do
    // not fit are never resident, yet a batch programs each of them once
    // and streams every member through it (weight-stationary batch
    // dataflow), where single dispatch reprograms them per request.
    let device = SimConfig::noisy(64, 64).with_threads(1);
    let big = catalog::alexnet_fc_sample();
    let small = catalog::mobilenet_sample();
    let probe = oxbar_sim::DeviceExecutor::new(device.clone());
    let footprint = probe.model_footprint_cells(&big.network);
    let tiles: u64 = probe
        .forward(
            &big.network,
            &synthetic::activations(big.network.input(), 6, 0),
            &big.filters,
        )
        .unwrap()
        .layers
        .iter()
        .filter_map(|l| l.stats.as_ref())
        .map(|s| s.tiles as u64)
        .sum();
    let budget = footprint / 2;
    assert!(probe.model_footprint_cells(&small.network) < budget);

    let run = |policy: BatchPolicy, workers: usize| {
        let mut engine = ServeEngine::new(
            ServeConfig::new(device.clone())
                .with_cache_budget(budget)
                .with_policy(policy)
                .with_workers(workers),
        );
        let a = engine.admit(big.clone()).unwrap();
        let b = engine.admit(small.clone()).unwrap();
        // The dense head's batches, then one batch of the small model
        // whose arrival pushes the chip over budget: one eviction under
        // every worker count.
        for i in 0..16u64 {
            let model = if i < 12 { a } else { b };
            let input = synthetic::activations(engine.input_shape(model), 6, i);
            engine.submit_simple(model, input);
        }
        let mut done = engine.drain();
        done.sort_by_key(|c| c.id);
        let big_batches = {
            let mut seqs: Vec<usize> = done
                .iter()
                .filter(|c| c.model == a)
                .map(|c| c.batch_seq)
                .collect();
            seqs.dedup();
            seqs.len() as u64
        };
        let outputs: Vec<Vec<i64>> = done.iter().map(|c| c.output.data().to_vec()).collect();
        (outputs, engine.stats(), a, big_batches)
    };

    let (single_out, single, a, single_batches) = run(BatchPolicy::SINGLE, 1);
    let (batched_out, batched, _, big_batches) = run(BatchPolicy::new(4, 64), 1);
    assert_eq!(
        batched_out, single_out,
        "batching must never change results"
    );
    assert!(big_batches < single_batches);
    let misses = batched.models[a.0].cache.misses;
    assert!(
        misses <= big_batches * tiles,
        "each tile programmed at most once per batch: {misses} misses, \
         {big_batches} batches × {tiles} tiles"
    );
    assert!(misses < single.models[a.0].cache.misses);
    assert_eq!(batched.evictions, 1, "the small model's arrival evicts");

    let counters = |stats: &oxbar_serve::EngineStats| {
        let models: Vec<(u64, u64)> = stats
            .models
            .iter()
            .map(|m| (m.cache.hits, m.cache.misses))
            .collect();
        (models, stats.evictions)
    };
    for workers in [2, 4] {
        let (out, stats, _, _) = run(BatchPolicy::new(4, 64), workers);
        assert_eq!(out, batched_out, "workers={workers}");
        assert_eq!(counters(&stats), counters(&batched), "workers={workers}");
    }
}
