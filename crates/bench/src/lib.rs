//! Experiment harness regenerating every figure in the paper's evaluation.
//!
//! Each module is one experiment from DESIGN.md's index, runnable both as a
//! library call and as a `cargo bench` target (`benches/` wrap these with
//! table printing and CSV output to `results/`):
//!
//! | Module | Paper artifact | Bench target |
//! |---|---|---|
//! | [`figure8`] | Figure 8: A vs T, Ergo vs baselines | `figure8` |
//! | [`figure9`] | Figure 9: GoodJEst estimate accuracy | `figure9` |
//! | [`figure10`] | Figure 10: heuristic variants | `figure10` |
//! | [`lower_bound_exp`] | Theorem 3 (Section 11) | `lower_bound` |
//! | [`committee_exp`] | Theorem 4 / Lemma 18 (Section 12) | `committee` |
//! | [`invariants_exp`] | Lemma 9 invariant + scaling fits | `invariants` |
//! | [`dht_exp`] | Section 13.2 extension: Sybil-resistant DHT | `dht` |
//! | [`ablation_exp`] | constants ablations (Sections 9.3, 13.3) + failure injection | `ablation` |
//!
//! The figure experiments execute through the `sybil-exp` orchestration
//! subsystem (see [`grid`] and `crates/exp/README.md`): multi-trial cells
//! (5 trials, 2 in FAST mode) fed by a content-addressed disk-streamed
//! workload cache, aggregated into `mean, ci95_lo, ci95_hi` columns, and
//! recorded in resumable per-experiment results stores under `results/`.
//! The `exp_millions` bin runs the Figure-8-shaped grid at 10⁶ initial
//! IDs; `exp_smoke` is the CI cold/warm-cache resume check.
//!
//! Set `SYBIL_BENCH_FAST=1` for a ~1-minute smoke run of the full suite;
//! the default is paper scale (10 000 s horizons, `T` up to `2²⁰`).
//! `SYBIL_BENCH_WORKERS=n` bounds parallelism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation_exp;
pub mod committee_exp;
pub mod dht_exp;
pub mod figure10;
pub mod figure8;
pub mod figure9;
pub mod grid;
pub mod invariants_exp;
pub mod lower_bound_exp;
pub mod sweep;
pub mod table;

pub use sweep::{run_point, t_grid, Algo, RunParams, SpendPoint};
pub use table::Table;
