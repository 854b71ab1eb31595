//! Allocation-regression lockdown for the pooled training tape: after a
//! short warmup, the training loop's step must be served entirely from
//! recycled buffers — the pool's miss counter (its allocations-per-step
//! meter) must stop moving.

use nofis::autograd::{Graph, ParamStore};
use nofis::flows::RealNvp;
use nofis::nn::Adam;
use nofis::parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic batch filler (no per-step RNG allocation).
fn lcg_fill(buf: &mut [f64], seed: u64) {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    for v in buf.iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
    }
}

#[test]
fn steady_state_training_step_has_zero_pool_misses() {
    // A representative NOFIS stage-3 step, shaped like the training loop's:
    // dim 4, 6 coupling layers, batch 32. Layers 0..4 run through the
    // tape-free kernel and enter the tape as constants, the live block 4..6
    // is taped, the oracle term runs chunk-parallel, then fused Adam.
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let flow = RealNvp::new(&mut store, 4, 6, 8, 2.0, &mut rng);
    let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
    for id in ids {
        for v in store.get_mut(id).as_mut_slice() {
            *v += rng.gen_range(-0.2..0.2);
        }
    }

    let pool = ThreadPool::new(2);
    let mut g = Graph::new();
    let mut opt = Adam::new(1e-3).with_max_grad_norm(Some(100.0));
    let mut rows = vec![0.0; 32 * 4];
    let mut prefix_ld = vec![0.0; 32];

    let mut step = |g: &mut Graph, store: &mut ParamStore, seed: u64| {
        g.reset();
        lcg_fill(&mut rows, seed);
        flow.forward_rows(store, 0..4, &mut rows, &mut prefix_ld, &pool);
        let x = g.constant_from_slice(32, 4, &rows);
        let ld = g.constant_from_slice(32, 1, &prefix_ld);
        let (z, logdet) = flow.forward_graph_layers(store, g, x, Some(ld), 4..6);
        // The oracle term of the real loop: a black-box rowwise function
        // with externally supplied gradients, evaluated across the pool.
        let gvals =
            g.external_rowwise_par(z, &pool, |row| (1.0 - row[0], vec![-1.0, 0.0, 0.0, 0.0]));
        let tempered = g.min_scalar(gvals, 0.0);
        let sq = g.square(z);
        let ssq = g.sum_cols(sq);
        let half = g.scale(ssq, -0.5);
        let a = g.add(logdet, tempered);
        let per_sample = g.add(a, half);
        let mean = g.mean_all(per_sample);
        let loss = g.neg(mean);
        g.backward(loss);
        opt.step_fused(store, g);
        g.value(loss).item()
    };

    // Warmup: the first step allocates every live slot, the second covers
    // buffers whose lifetime straddles a step boundary (e.g. grads freed
    // into different size classes).
    for s in 0..2 {
        let loss = step(&mut g, &mut store, s);
        assert!(loss.is_finite());
    }
    let warm = g.pool_stats();
    assert!(warm.misses > 0, "warmup must have allocated something");

    for s in 2..8 {
        let loss = step(&mut g, &mut store, s);
        assert!(loss.is_finite());
    }
    let steady = g.pool_stats();
    assert_eq!(
        steady.misses,
        warm.misses,
        "steady-state training steps must perform zero pool allocations \
         ({} new misses over 6 steps)",
        steady.misses - warm.misses
    );
    // And the steps were actually served by the pool, not bypassing it.
    assert!(steady.hits > warm.hits);
}
