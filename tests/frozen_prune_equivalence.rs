//! Pins the frozen-stage gradient-pruning contract: pruning removes
//! backward *work*, never backward *results*. The loss and every
//! trainable-parameter gradient of a frozen-prefix step must be bitwise
//! identical with pruning on or off. The training loop always prunes, and
//! it runs the frozen prefix tape-free: that step must match too.

use nofis::autograd::{Graph, ParamId, ParamStore, Tensor, Var};
use nofis::flows::RealNvp;
use nofis::parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fixed-seed dim-4, 6-layer flow with the first 4 layers frozen —
/// exactly the frozen-prefix shape of NOFIS stage-3 training.
fn frozen_prefix_flow(seed: u64) -> (ParamStore, RealNvp) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let flow = RealNvp::new(&mut store, 4, 6, 8, 2.0, &mut rng);
    let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
    let mut prng = StdRng::seed_from_u64(seed + 1);
    for id in ids {
        for v in store.get_mut(id).as_mut_slice() {
            *v += prng.gen_range(-0.3..0.3);
        }
    }
    for id in flow.param_ids_for_layers(0..4) {
        store.set_frozen(id, true);
    }
    (store, flow)
}

fn x_data() -> Tensor {
    Tensor::from_vec(
        8,
        4,
        (0..32).map(|i| ((i as f64) * 0.73).sin() * 1.2).collect(),
    )
}

/// A NOFIS-shaped loss (flow output norm plus log-det), backward, and the
/// loss value with every parameter gradient on the tape.
fn loss_and_grads(g: &mut Graph, z: Var, logdet: Var) -> (f64, Vec<(ParamId, Tensor)>) {
    let sq = g.square(z);
    let ssq = g.sum_cols(sq);
    let a = g.mean_all(ssq);
    let b = g.mean_all(logdet);
    let sum = g.add(a, b);
    let loss = g.neg(sum);
    g.backward(loss);
    (g.value(loss).item(), g.param_grads())
}

/// One step over the full-depth tape, with pruning on or off.
fn full_tape_step(prune: bool) -> (f64, Vec<(ParamId, Tensor)>, ParamStore, RealNvp) {
    let (store, flow) = frozen_prefix_flow(99);
    let mut g = Graph::new();
    g.set_pruning(prune);
    let x = g.constant(x_data());
    let (z, logdet) = flow.forward_graph(&store, &mut g, x, 6);
    let (loss, grads) = loss_and_grads(&mut g, z, logdet);
    (loss, grads, store, flow)
}

/// Every trainable gradient of `a` equals `b`'s bit for bit, and `a` holds
/// no frozen gradient.
fn assert_same_trainable_grads(
    a: &[(ParamId, Tensor)],
    b: &[(ParamId, Tensor)],
    store: &ParamStore,
    flow: &RealNvp,
) {
    let frozen: Vec<_> = flow.param_ids_for_layers(0..4);
    assert!(
        a.iter().all(|(id, _)| !frozen.contains(id)),
        "a frozen gradient was materialized"
    );
    let trainable: Vec<_> = flow.param_ids_for_layers(4..6);
    assert!(!trainable.is_empty());
    for id in &trainable {
        assert!(!store.is_frozen(*id));
        let ga = &a.iter().find(|(i, _)| i == id).expect("missing").1;
        let gb = &b.iter().find(|(i, _)| i == id).expect("reference").1;
        for (x, y) in ga.as_slice().iter().zip(gb.as_slice()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "gradient of trainable param {} drifted",
                id.index()
            );
        }
    }
}

#[test]
fn single_step_gradients_are_bitwise_identical() {
    let (loss_p, grads_p, store, flow) = full_tape_step(true);
    let (loss_u, grads_u, _, _) = full_tape_step(false);
    assert_eq!(loss_p.to_bits(), loss_u.to_bits(), "loss drifted");

    // With pruning on, frozen parameters must not appear at all, and every
    // trainable gradient must match the unpruned run bit for bit.
    assert_same_trainable_grads(&grads_p, &grads_u, &store, &flow);
}

#[test]
fn prefix_off_the_tape_matches_the_pruned_full_tape() {
    let (loss_full, grads_full, _, _) = full_tape_step(true);
    // The training loop's shape: layers 0..4 through the tape-free kernel,
    // entering the tape as constants; only the live block 4..6 is taped.
    let (store, flow) = frozen_prefix_flow(99);
    let mut rows = x_data().as_slice().to_vec();
    let mut prefix_ld = vec![0.0; 8];
    flow.forward_rows(&store, 0..4, &mut rows, &mut prefix_ld, &ThreadPool::new(2));
    let mut g = Graph::new();
    g.set_pruning(true);
    let x = g.constant_from_slice(8, 4, &rows);
    let ld = g.constant_from_slice(8, 1, &prefix_ld);
    let (z, logdet) = flow.forward_graph_layers(&store, &mut g, x, Some(ld), 4..6);
    let (loss, grads) = loss_and_grads(&mut g, z, logdet);
    assert_eq!(loss.to_bits(), loss_full.to_bits(), "loss drifted");
    assert_eq!(grads.len(), grads_full.len(), "gradient set differs");
    assert_same_trainable_grads(&grads, &grads_full, &store, &flow);
}
