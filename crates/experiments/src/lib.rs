//! Experiment harness regenerating every table and figure of the Matrix
//! paper, plus the later experiments E12–E16; the index is the
//! subcommand list below.
//!
//! The [`harness`] module wires the `matrix-core` state machines to the
//! `matrix-sim` kernel; each experiment module scripts a workload, runs
//! the cluster, and renders paper-style output (ASCII charts + tables +
//! CSV). The `matrix-experiments` binary exposes them as subcommands:
//!
//! ```text
//! matrix-experiments fig2        # E1/E2  Figure 2a + 2b
//! matrix-experiments versus      # E3     Matrix vs static, 3 games
//! matrix-experiments micro-switch# E4     switching latency
//! matrix-experiments micro-mc    # E5     coordinator overhead
//! matrix-experiments micro-traffic # E6   traffic vs overlap size
//! matrix-experiments userstudy   # E7     latency-perception proxy
//! matrix-experiments scale       # E8     asymptotic analysis
//! matrix-experiments ablation-split      # A1
//! matrix-experiments ablation-hysteresis # A2
//! matrix-experiments dense       # E12    dense-crowd interest management
//! matrix-experiments failover    # E13    warm-standby failover
//! matrix-experiments rings       # E14    multi-ring AOI + grid auto-tuning
//! matrix-experiments predict     # E15    dead-reckoning suppression
//! matrix-experiments trace       # E16    causal tracing + freshness SLOs
//! matrix-experiments all         # everything, in order
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod densecrowd;
pub mod failover;
pub mod fig2;
pub mod harness;
pub mod micro;
pub mod predict;
pub mod rings;
pub mod scale;
pub mod sweep;
pub mod trace;
pub mod userstudy;
pub mod versus;

pub use harness::{Cluster, ClusterConfig, ClusterReport, NetConfig};
