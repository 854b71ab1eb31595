//! Pins the frozen-stage gradient contract. A layer is frozen by entering
//! the tape as a constant, and a constant removes backward *work*, never
//! backward *results*: the loss and every parameter gradient of a step are
//! bitwise identical whether the input is a constant or a parameter leaf.
//! The training loop runs the frozen prefix tape-free: that step must
//! match the full-depth tape too.

use nofis::autograd::{Graph, ParamId, ParamStore, Tensor, Var};
use nofis::flows::RealNvp;
use nofis::parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fixed-seed dim-4, 6-layer flow; layers 0..4 form the frozen prefix
/// of NOFIS stage-3 training and 4..6 the live block.
fn stage3_flow(seed: u64) -> (ParamStore, RealNvp) {
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

/// Every gradient of `a` equals `b`'s for the same parameter, bit for bit.
fn assert_same_grads(a: &[(ParamId, Tensor)], b: &[(ParamId, Tensor)]) {
    for (id, ga) in a {
        let gb = &b.iter().find(|(i, _)| i == id).expect("reference").1;
        for (x, y) in ga.as_slice().iter().zip(gb.as_slice()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "gradient of param {} drifted",
                id.index()
            );
        }
    }
}

/// One step over the full-depth tape with the input as a constant.
fn full_tape_step() -> (f64, Vec<(ParamId, Tensor)>) {
    let (store, flow) = stage3_flow(99);
    let mut g = Graph::new();
    let x = g.constant(x_data());
    let (z, logdet) = flow.forward_graph(&store, &mut g, x, 6);
    loss_and_grads(&mut g, z, logdet)
}

#[test]
fn single_step_gradients_are_bitwise_identical() {
    let (store, flow) = stage3_flow(99);
    let run = |x_is_param: bool| {
        let mut store = store.clone();
        let x_id = store.add(x_data());
        let mut g = Graph::new();
        let x = if x_is_param {
            store.inject(&mut g, x_id)
        } else {
            g.constant(x_data())
        };
        let (z, logdet) = flow.forward_graph(&store, &mut g, x, 6);
        let (loss, grads) = loss_and_grads(&mut g, z, logdet);
        let x_grad = g.grad(x).is_some();
        let flow_grads: Vec<_> = grads.into_iter().filter(|(id, _)| *id != x_id).collect();
        (loss, flow_grads, x_grad)
    };
    let (loss_c, grads_c, x_grad_c) = run(false);
    let (loss_p, grads_p, x_grad_p) = run(true);
    assert_eq!(loss_c.to_bits(), loss_p.to_bits(), "loss drifted");
    assert!(!x_grad_c, "a constant input must carry no gradient");
    assert!(x_grad_p, "a parameter input carries its gradient");

    // Every flow parameter has a gradient either way, bit for bit equal.
    assert_eq!(grads_c.len(), flow.param_ids().len());
    assert_eq!(grads_p.len(), grads_c.len());
    assert_same_grads(&grads_c, &grads_p);
}

#[test]
fn prefix_off_the_tape_matches_the_pruned_full_tape() {
    let (loss_full, grads_full) = full_tape_step();
    // The training loop's shape: layers 0..4 through the tape-free kernel,
    // entering the tape as constants; only the live block 4..6 is taped.
    let (store, flow) = stage3_flow(99);
    let mut rows = x_data().as_slice().to_vec();
    let mut prefix_ld = vec![0.0; 8];
    flow.forward_rows(&store, 0..4, &mut rows, &mut prefix_ld, &ThreadPool::new(2));
    let mut g = Graph::new();
    let x = g.constant_from_slice(8, 4, &rows);
    let ld = g.constant_from_slice(8, 1, &prefix_ld);
    let (z, logdet) = flow.forward_graph_layers(&store, &mut g, x, Some(ld), 4..6);
    let (loss, grads) = loss_and_grads(&mut g, z, logdet);
    assert_eq!(loss.to_bits(), loss_full.to_bits(), "loss drifted");

    // Exactly the live block's parameters get a gradient, each equal to
    // the full tape's.
    let mut ids: Vec<_> = grads.iter().map(|(id, _)| *id).collect();
    ids.sort();
    let mut live = flow.param_ids_for_layers(4..6);
    live.sort();
    assert!(!live.is_empty());
    assert_eq!(ids, live, "gradient set differs from the live block");
    assert_same_grads(&grads, &grads_full);
}
