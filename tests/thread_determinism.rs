//! The full NOFIS pipeline — adaptive pilot, training, and the estimation
//! ladder, under an exact `max_calls` cap — produces **bitwise identical**
//! estimates at every thread count (`NOFIS_THREADS` ∈ {1, 4}).
//!
//! `harness = false`: the thread matrix needs child processes because the
//! parallel pool is sized once per process.
//!
//! Each child runs the identical seeded pipeline and prints the estimate's
//! raw bits plus its hit count; the parent asserts all configurations
//! agree bit for bit.

use nofis::core::{Levels, Nofis, NofisConfig};
use nofis::prob::LimitState;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;

const DIM: usize = 3;

/// Linear tail event with enough floating-point texture that any
/// reduction-order slip shows up as a bit difference.
struct Tail;

impl LimitState for Tail {
    fn dim(&self) -> usize {
        DIM
    }
    fn value(&self, x: &[f64]) -> f64 {
        let s: f64 = x
            .iter()
            .enumerate()
            .map(|(i, v)| v * (1.1 + i as f64))
            .sum();
        2.4 - s / (DIM as f64).sqrt() + 0.01 * (x[0] * 3.0).sin()
    }
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let norm = (DIM as f64).sqrt();
        let mut grad: Vec<f64> = (0..DIM).map(|i| -(1.1 + i as f64) / norm).collect();
        grad[0] += 0.03 * (x[0] * 3.0).cos();
        (self.value(x), grad)
    }
}

/// Small but representative: adaptive levels (so the pilot batches run),
/// batches spanning several oracle chunks, and an exact `max_calls` cap so
/// any budget mis-charge surfaces as a truncated (and therefore
/// bit-different) estimate.
fn config() -> NofisConfig {
    let mut cfg = NofisConfig {
        levels: Levels::AdaptiveQuantile {
            max_stages: 2,
            p0: 0.15,
            pilot: 150,
        },
        layers_per_stage: 2,
        hidden: 8,
        epochs: 4,
        batch_size: 60,
        n_is: 300,
        ..Default::default()
    };
    cfg.max_calls = Some(cfg.training_budget() + cfg.n_is as u64);
    cfg
}

fn child_main() -> ! {
    let cfg = config();
    let mut rng = StdRng::seed_from_u64(1234);
    let (_, result) = Nofis::new(cfg)
        .expect("valid config")
        .run(&Tail, &mut rng)
        .expect("pipeline succeeds");
    // Raw bits: the parent compares exactly, not approximately.
    println!("bits={:016x}", result.estimate.to_bits());
    println!("hits={}", result.hits);
    std::process::exit(0);
}

fn run_config(threads: usize) -> (String, String) {
    let exe = std::env::current_exe().expect("current exe");
    let out = Command::new(exe)
        .arg("--child")
        .env("NOFIS_THREADS", threads.to_string())
        .env_remove("NOFIS_FAULT_PLAN")
        .env_remove("NOFIS_TRACE_FILE")
        .env_remove("NOFIS_LOG")
        .output()
        .expect("child spawns");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        out.status.success(),
        "child (threads={threads}) failed: {stdout}\n{stderr}"
    );
    let field = |key: &str| -> String {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("child printed no {key}: {stdout}"))
            .to_string()
    };
    (field("bits"), field("hits"))
}

fn main() {
    if std::env::args().any(|a| a == "--child") {
        child_main();
    }

    let golden = run_config(1); // serial: the reference
    let got = run_config(4);
    assert_eq!(
        got, golden,
        "threads=4: estimate must be bitwise identical to the serial golden"
    );
    println!("test threads=4 ... ok");
    println!("thread_determinism: threads 1 and 4 bitwise identical ({golden:?})");
}
