//! The repository's benchmark: three workloads over the whole pipeline
//! (interpreter, IR, optimizer, region formation, lowering, the simulated
//! machine, the code publisher and the coherence directory), with an
//! untraced run for end-to-end metrics and a traced run that times each
//! layer at its public entry points.
//!
//! ```bash
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm-exec --seed 1 --seconds 20 --trace 0
//! ```

#![warn(missing_docs)]

pub mod cold_jit;
pub mod digest;
pub mod harness;
pub mod measure;
pub mod replay;
pub mod report;
pub mod serve;
pub mod trace;
pub mod warm_exec;
