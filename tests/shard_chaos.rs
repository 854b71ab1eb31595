//! Kill-a-shard chaos acceptance test for DESIGN.md §16, driven through
//! the estimator entry points the trained pipeline uses
//! ([`importance_sampling_detailed_with_exec`]).
//!
//! * A worker killed at **every** dispatch index — i.e. whichever shard is
//!   in flight, including one whose budget lease was just granted — heals
//!   by respawn + deterministic re-dispatch, and the estimate stays
//!   bitwise identical to the unsharded golden.
//! * Budget accounting is exact through every death: the dead worker's
//!   lease is refunded (the unspent remainder reclaimed), the re-dispatch
//!   re-leases, and the final spend equals the sample count — never more
//!   than `max_calls`.
//! * A request write that fails is a re-dispatch in the counters, like a
//!   death, and leaves the estimate and the spend exact.
//! * Persistent spawn failure degrades with a typed error and a typed
//!   in-process fallback that still produces the bitwise-identical
//!   estimate — never a panic, never a hang.
//!
//! `harness = false`: this binary doubles as its own shard worker.

use nofis::faults::{self, FaultPlan};
use nofis::prob::{
    importance_sampling_detailed_with_exec, BatchEval, BudgetSource, BudgetedOracle, IsResult,
    LimitState, StandardGaussian,
};
use nofis::shard::{ShardConfig, ShardError, ShardPool, ShardedEval, SHARD_CHUNK};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const ORACLE: &str = "shard-chaos-tail";
const DIM: usize = 2;
/// Spans four shards, the last one ragged.
const N_IS: usize = 3 * SHARD_CHUNK + 50;

struct Tail;

impl LimitState for Tail {
    fn dim(&self) -> usize {
        DIM
    }
    fn value(&self, x: &[f64]) -> f64 {
        2.1 - (x[0] * 1.3 + x[1] * 0.9) / (DIM as f64).sqrt() + 0.01 * (x[0] * 2.0).sin()
    }
    fn name(&self) -> &str {
        ORACLE
    }
}

fn pool() -> Arc<ShardPool> {
    Arc::new(ShardPool::new(
        ORACLE,
        ShardConfig {
            workers: 2,
            timeout: Duration::from_secs(30),
            max_respawns: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
        },
    ))
}

/// One seeded estimation pass; `exec` is the only variable.
fn estimate(exec: Option<&dyn BatchEval>, budgeted: &BudgetedOracle<'_, Tail>) -> IsResult {
    let p = StandardGaussian::new(DIM);
    let mut rng = StdRng::seed_from_u64(7);
    let n = budgeted.grant(N_IS);
    assert_eq!(n, N_IS, "budget must cover the batch");
    let (result, _) = importance_sampling_detailed_with_exec(
        budgeted,
        0.0,
        &p,
        &p,
        n,
        &mut rng,
        nofis::parallel::global(),
        exec,
    );
    result
}

fn assert_bitwise(label: &str, got: &IsResult, want: &IsResult) {
    assert_eq!(
        got.estimate.to_bits(),
        want.estimate.to_bits(),
        "{label}: estimate bits differ ({} vs {})",
        got.estimate,
        want.estimate
    );
    assert_eq!(got.hits, want.hits, "{label}: hit counts differ");
    assert_eq!(
        got.effective_sample_size.to_bits(),
        want.effective_sample_size.to_bits(),
        "{label}: ESS bits differ"
    );
}

fn main() {
    nofis::shard::register_oracle(ORACLE, || Box::new(Tail));
    nofis::shard::maybe_worker_main();

    // Unsharded in-process golden, and its exact spend.
    let budget = N_IS as u64;
    let oracle = Tail;
    let golden_oracle = BudgetedOracle::new(&oracle, budget);
    let golden = estimate(None, &golden_oracle);
    assert_eq!(golden_oracle.spent(), budget);
    assert!(golden.hits > 0, "the event must be observable");

    // Healthy sharded pass: bitwise identical, and it tells us how many
    // dispatches the batch takes — the index space the killer sweeps.
    let healthy_pool = pool();
    let healthy_oracle = BudgetedOracle::new(&oracle, budget);
    let exec = ShardedEval::new(
        Arc::clone(&healthy_pool),
        Some(&healthy_oracle as &dyn BudgetSource),
    );
    let healthy = estimate(Some(&exec as &dyn BatchEval), &healthy_oracle);
    assert_bitwise("healthy sharded", &healthy, &golden);
    assert_eq!(healthy_oracle.spent(), budget, "leases must commit exactly");
    assert_eq!(healthy_oracle.overruns(), 0);
    let dispatches = healthy_pool.stats().dispatched();
    healthy_pool.shutdown();
    assert_eq!(dispatches, 4, "{N_IS} samples must take 4 shard dispatches");
    println!("test healthy_sharded_pass_is_bitwise_identical ... ok");

    // Kill the worker at every dispatch index. The fault fires after the
    // shard's budget lease is granted, so every iteration is a mid-grant
    // death: the lease must refund and the re-dispatch must re-lease.
    for i in 0..dispatches {
        let plan = format!("shard_death@{i}");
        faults::install(FaultPlan::parse(&plan).expect("plan parses"));
        let p = pool();
        let budgeted = BudgetedOracle::new(&oracle, budget);
        let exec = ShardedEval::new(Arc::clone(&p), Some(&budgeted as &dyn BudgetSource));
        let result = estimate(Some(&exec as &dyn BatchEval), &budgeted);
        faults::clear();
        assert_bitwise(&format!("death at dispatch {i}"), &result, &golden);
        assert!(
            p.stats().redispatched() >= 1,
            "death at dispatch {i} must re-dispatch the lost shard"
        );
        assert!(
            budgeted.spent() <= budget,
            "death at dispatch {i}: spend {} overran max_calls {budget}",
            budgeted.spent()
        );
        assert_eq!(
            budgeted.spent(),
            budget,
            "death at dispatch {i}: the dead worker's lease remainder must be \
             reclaimed and the re-dispatch re-leased — spend counts completions exactly"
        );
        assert_eq!(budgeted.overruns(), 0);
        p.shutdown();
        println!("test kill_shard_at_dispatch_{i}_is_bitwise_identical ... ok");
    }

    // A request write that fails — the worker's stdin already closed —
    // sends the shard back to the queue: that is a re-dispatch, not a
    // dispatch, and the estimate and the spend stay exact.
    faults::install(FaultPlan::parse("shard_write_fail@0").expect("plan parses"));
    let p = pool();
    let budgeted = BudgetedOracle::new(&oracle, budget);
    let exec = ShardedEval::new(Arc::clone(&p), Some(&budgeted as &dyn BudgetSource));
    let result = estimate(Some(&exec as &dyn BatchEval), &budgeted);
    faults::clear();
    assert_bitwise("write failure at dispatch 0", &result, &golden);
    assert_eq!(
        p.stats().redispatched(),
        1,
        "a failed request write must count as one re-dispatch"
    );
    assert_eq!(
        p.stats().dispatched(),
        dispatches,
        "a failed request write is not a dispatch"
    );
    assert_eq!(budgeted.spent(), budget, "the failed write's lease refunds");
    assert_eq!(budgeted.overruns(), 0);
    p.shutdown();
    println!("test request_write_failure_counts_one_redispatch ... ok");

    // Persistent spawn failure: the pool degrades with a typed error...
    faults::install(FaultPlan::parse("shard_spawn_fail@0x1000").expect("plan parses"));
    let p = pool();
    let xs = vec![vec![0.0; DIM]; SHARD_CHUNK];
    let direct = p.eval_values(&xs, None);
    assert_eq!(
        direct.expect_err("no worker can spawn"),
        ShardError::Degraded,
        "degradation must be a typed error, not a panic or a hang"
    );
    assert!(p.is_degraded());
    assert_eq!(p.workers_alive(), 0);
    // ...and the estimator-facing adapter falls back in-process, still
    // bitwise identical, with the spend charged by the fallback path.
    let budgeted = BudgetedOracle::new(&oracle, budget);
    let exec = ShardedEval::new(Arc::clone(&p), Some(&budgeted as &dyn BudgetSource));
    let degraded = estimate(Some(&exec as &dyn BatchEval), &budgeted);
    faults::clear();
    assert_bitwise("degraded fallback", &degraded, &golden);
    assert_eq!(
        budgeted.spent(),
        budget,
        "the in-process fallback pays for every sample exactly once"
    );
    assert_eq!(budgeted.overruns(), 0);
    println!("test persistent_spawn_failure_degrades_and_falls_back ... ok");

    println!("shard_chaos: all tests passed");
}
