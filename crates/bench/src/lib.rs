//! # ppd-bench — the PPD evaluation harness
//!
//! Reproduces every measurable claim and worked figure of the paper's
//! evaluation (see EXPERIMENTS.md at the repository root for the
//! experiment index):
//!
//! - **E2** — log volume vs full-trace volume (§3.1 need-to-generate);
//! - **E3** — the e-block granularity trade-off (§5.4);
//! - **E4** — event ordering & all-pairs race detection cost (§7);
//! - **E5** — bit-mask vs list variable sets (§7): a dataflow kernel
//!   and the raw `union_with`/`intersects` calls;
//! - **E6** — incremental tracing vs full re-execution (§5.1/§5.3);
//! - **E7** — parallel debugging-backend scaling: replay fan-out over
//!   one shared task cursor, the one-lock trace cache, parallel race
//!   scan (1/2/4/8 threads);
//! - **E8** — whole-array snapshots vs element-granular logging (§7);
//! - **E9** — the §7 execution-time overhead ("less than 15%"): baseline,
//!   +logs and +logs+pgraph runs in interleaved rounds, each row's
//!   median overhead with its quartiles, judged against the paper's
//!   claim, plus per-e-block prelog/postlog attribution from the
//!   runtime's [`LogMeter`](ppd_runtime::LogMeter) (machine-readable as
//!   `BENCH_overhead.json`);
//! - **E10** — the segmented log store: open and first query vs store
//!   size, raw vs compressed blocks (`BENCH_logstream.json`);
//! - **E11** — the telemetry layer's own overhead (journal, flight ring);
//! - **F4.1 / F5.3 / F6.1** — the worked figures, regenerated.
//!
//! `cargo run -p ppd-bench --bin experiments --release` prints every
//! table (`--only e4,e6,e7` selects a subset, `--jobs N` caps the E7
//! thread sweep, `--json FILE` additionally writes the E4/E6/E7 tables
//! as machine-readable JSON).

pub mod experiments;
pub mod table;
pub mod timing;
pub mod workloads;

pub use table::Table;
