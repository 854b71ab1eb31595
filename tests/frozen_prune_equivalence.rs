//! Pins the frozen-stage gradient-pruning contract: pruning removes
//! backward *work*, never backward *results*. The loss and every
//! trainable-parameter gradient of a frozen-prefix step must be bitwise
//! identical with pruning on or off. The training loop always prunes.

use nofis::autograd::{Graph, ParamStore, Tensor};
use nofis::flows::RealNvp;
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

#[test]
fn single_step_gradients_are_bitwise_identical() {
    let x_data = Tensor::from_vec(
        8,
        4,
        (0..32).map(|i| ((i as f64) * 0.73).sin() * 1.2).collect(),
    );
    let run = |prune: bool| {
        let (store, flow) = frozen_prefix_flow(99);
        let mut g = Graph::new();
        g.set_pruning(prune);
        let x = g.constant(x_data.clone());
        let (z, logdet) = flow.forward_graph(&store, &mut g, x, 6);
        // A NOFIS-shaped loss: flow output norm plus log-det.
        let sq = g.square(z);
        let ssq = g.sum_cols(sq);
        let a = g.mean_all(ssq);
        let b = g.mean_all(logdet);
        let sum = g.add(a, b);
        let loss = g.neg(sum);
        g.backward(loss);
        (g.value(loss).item(), g.param_grads(), store, flow)
    };
    let (loss_p, grads_p, store, flow) = run(true);
    let (loss_u, grads_u, _, _) = run(false);
    assert_eq!(loss_p.to_bits(), loss_u.to_bits(), "loss drifted");

    // With pruning on, frozen parameters must not appear at all.
    let frozen: Vec<_> = flow.param_ids_for_layers(0..4);
    assert!(
        grads_p.iter().all(|(id, _)| !frozen.contains(id)),
        "pruned run materialized a frozen gradient"
    );
    // Every trainable gradient must match the unpruned run bit for bit.
    let trainable: Vec<_> = flow.param_ids_for_layers(4..6);
    assert!(!trainable.is_empty());
    for id in &trainable {
        assert!(!store.is_frozen(*id));
        let gp = &grads_p.iter().find(|(i, _)| i == id).expect("pruned").1;
        let gu = &grads_u.iter().find(|(i, _)| i == id).expect("full").1;
        for (a, b) in gp.as_slice().iter().zip(gu.as_slice()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "gradient of trainable param {} drifted",
                id.index()
            );
        }
    }
}
