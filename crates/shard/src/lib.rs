//! Multi-process sharded oracle execution for NOFIS.
//!
//! NOFIS wall clock is dominated by oracle evaluation — minibatch `g(x)`
//! calls during flow training and the final IS/MC estimation pass — and
//! real deployments pair it with expensive external simulators where one
//! crashed or wedged process must not take down the run. This crate scales
//! that evaluation past one process while keeping two hard promises:
//!
//! * **Bitwise determinism.** Fixed shard boundaries ([`SHARD_CHUNK`]) and
//!   shard-ordered reassembly make the value vector — and therefore every
//!   downstream estimate — bitwise identical at any worker count and
//!   bitwise identical to the in-process path, even across worker deaths
//!   and re-dispatches (DESIGN.md §16).
//! * **Robustness.** Workers are supervised: per-request deadlines,
//!   heartbeat handshakes, death/garbage/wedge detection, respawn with
//!   capped exponential backoff, deterministic re-dispatch of the failed
//!   worker's shard, budget leases with unspent-remainder reclamation
//!   ([`nofis_prob::Lease`]), and graceful degradation to the in-process
//!   pool — a typed fallback, never a panic or a hang.
//!
//! # Wiring a binary for sharding
//!
//! Workers are re-execs of the current binary, so the host `main` must
//! cooperate:
//!
//! ```no_run
//! use nofis_prob::LimitState;
//!
//! struct MyCircuit;
//! impl LimitState for MyCircuit {
//!     fn dim(&self) -> usize { 8 }
//!     fn value(&self, x: &[f64]) -> f64 { x.iter().sum::<f64>() - 4.0 }
//!     fn name(&self) -> &str { "my-circuit" }
//! }
//!
//! fn main() {
//!     nofis_shard::register_oracle("my-circuit", || Box::new(MyCircuit));
//!     nofis_shard::maybe_worker_main(); // exits here in worker processes
//!     // ... normal run; NOFIS_SHARDS=4 shards evaluation of "my-circuit"
//! }
//! ```

#![deny(missing_docs)]

mod fleet;
mod frame;
mod proto;
mod registry;
mod supervisor;
mod worker;

pub use fleet::{
    apply_env, pool_for, set_shard_timeout, set_shards, shards, shutdown_fleet, ShardedEval,
};
pub use frame::{read_frame, write_frame, FrameError, MAGIC, MAX_FRAME};
pub use proto::{ChaosDirective, ProtocolError, Request, Response};
pub use registry::{is_registered, register_oracle, OracleFactory};
pub use supervisor::{shardable, ShardConfig, ShardError, ShardPool, ShardStats, SHARD_CHUNK};
pub use worker::{maybe_worker_main, WORKER_ENV, WORKER_FLAG, WORKER_PROTO_EXIT};
