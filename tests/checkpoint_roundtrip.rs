//! Property tests for the checkpoint binary codec (DESIGN.md §11).
//!
//! Two properties:
//!
//! 1. **Exact round-trip**: for randomly shaped checkpoints — including
//!    NaN, ±∞, and −0.0 payloads, mid-stage cursors, and sparse Adam
//!    moments — `encode → decode → encode` reproduces the original byte
//!    stream exactly. Byte-level comparison sidesteps `NaN != NaN` while
//!    proving every bit (floats are stored as raw IEEE-754 bits) survives.
//! 2. **Adversarial decode safety**: `decode` of arbitrary bytes — random
//!    garbage, or a valid encoding after truncation/corruption — returns
//!    `Err`, never panics and never over-allocates on implausible counts.

use nofis::autograd::Tensor;
use nofis::core::checkpoint::{self, Checkpoint, StagePartial};
use nofis::core::StageReport;
use nofis::nn::AdamState;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One float drawn from a pool that includes every bit-pattern class the
/// codec must preserve exactly.
fn weird_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => f64::MIN_POSITIVE / 2.0, // subnormal
        _ => rng.gen_range(-1e12..1e12),
    }
}

fn random_tensor(rng: &mut StdRng) -> Tensor {
    let rows = rng.gen_range(1..4usize);
    let cols = rng.gen_range(1..5usize);
    let data = (0..rows * cols).map(|_| weird_f64(rng)).collect();
    Tensor::from_vec(rows, cols, data)
}

fn random_checkpoint(seed: u64) -> Checkpoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_params = rng.gen_range(0..6usize);
    let params: Vec<Tensor> = (0..n_params).map(|_| random_tensor(&mut rng)).collect();
    let n_stages = rng.gen_range(0..3usize);
    let partial = if rng.gen_bool(0.5) {
        let adam = AdamState {
            moments: (0..n_params)
                .map(|_| {
                    rng.gen_bool(0.5)
                        .then(|| (random_tensor(&mut rng), random_tensor(&mut rng)))
                })
                .collect(),
            steps: (0..n_params).map(|_| rng.gen()).collect(),
        };
        Some(StagePartial {
            stage: rng.gen_range(0..4),
            epoch: rng.gen_range(0..10),
            consumed: rng.gen_range(0..1000),
            epoch_loss: weird_f64(&mut rng),
            stage_losses: (0..rng.gen_range(0..5usize))
                .map(|_| weird_f64(&mut rng))
                .collect(),
            best_loss: weird_f64(&mut rng),
            retries: rng.gen_range(0..3),
            learning_rate: rng.gen_range(1e-6..1.0),
            stage_steps: rng.gen(),
            best_params: (0..n_params).map(|_| random_tensor(&mut rng)).collect(),
            epoch_start_params: (0..n_params).map(|_| random_tensor(&mut rng)).collect(),
            adam,
        })
    } else {
        None
    };
    let final_adam = if rng.gen_bool(0.5) {
        Some(AdamState {
            moments: (0..n_params)
                .map(|_| {
                    rng.gen_bool(0.5)
                        .then(|| (random_tensor(&mut rng), random_tensor(&mut rng)))
                })
                .collect(),
            steps: (0..n_params).map(|_| rng.gen()).collect(),
        })
    } else {
        None
    };
    Checkpoint {
        config_fingerprint: rng.gen(),
        warm_fingerprint: rng.gen(),
        dim: rng.gen_range(2..64),
        global_step: rng.gen(),
        rng_state: [rng.gen(), rng.gen(), rng.gen(), rng.gen()],
        oracle_spent: rng.gen(),
        done: rng.gen_bool(0.5),
        levels: (0..n_stages + 1).map(|_| weird_f64(&mut rng)).collect(),
        loss_history: (0..n_stages)
            .map(|_| {
                (0..rng.gen_range(0..4usize))
                    .map(|_| weird_f64(&mut rng))
                    .collect()
            })
            .collect(),
        stage_reports: (0..n_stages)
            .map(|s| StageReport {
                stage: s + 1,
                level: weird_f64(&mut rng),
                epochs_run: rng.gen_range(0..20),
                retries: rng.gen_range(0..4),
                rolled_back: rng.gen_bool(0.3),
                best_loss: weird_f64(&mut rng),
                final_loss: weird_f64(&mut rng),
                learning_rate: rng.gen_range(1e-6..1.0),
                truncated: rng.gen_bool(0.1),
            })
            .collect(),
        params,
        partial,
        final_adam,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_encode_is_the_identity(seed in 0u64..1_000_000) {
        let original = random_checkpoint(seed);
        let bytes = checkpoint::encode(&original);
        let decoded = checkpoint::decode(&bytes).expect("valid encoding must decode");
        let re_encoded = checkpoint::encode(&decoded);
        prop_assert_eq!(&bytes, &re_encoded);
        // Spot-check structure on top of the byte identity.
        prop_assert_eq!(decoded.params.len(), original.params.len());
        prop_assert_eq!(decoded.partial.is_some(), original.partial.is_some());
        prop_assert_eq!(decoded.rng_state, original.rng_state);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(words in prop::collection::vec(0u32..256, 1..256)) {
        // Pure garbage: must be a clean Err (the magic/CRC almost surely
        // fail) and must never panic or abort on an implausible count.
        let bytes: Vec<u8> = words.iter().map(|&b| b as u8).collect();
        let _ = checkpoint::decode(&bytes);
        // Empty input is the degenerate prefix.
        let _ = checkpoint::decode(&[]);
    }

    #[test]
    fn corrupted_valid_encodings_never_panic(seed in 0u64..10_000, flip in 0usize..4096, cut in 0usize..4096) {
        let mut bytes = checkpoint::encode(&random_checkpoint(seed));
        let n = bytes.len();
        bytes[flip % n] ^= 0x55;
        bytes.truncate(cut % (n + 1));
        // Always an error: an untruncated buffer carries the flipped byte
        // (CRC/magic/length catches it), and any strict prefix fails the
        // length check before the payload is even touched.
        prop_assert!(checkpoint::decode(&bytes).is_err());
    }
}
