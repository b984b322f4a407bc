//! Experiment harnesses regenerating every table and figure of the paper's
//! evaluation.
//!
//! One binary per artefact (`cargo run --release -p valkyrie-experiments
//! --bin fig4a` …); each binary delegates to a `run_*` function here that
//! returns the formatted result, so integration tests and benches can run
//! scaled-down versions of the same code.
//!
//! | Artefact | Function | Binary |
//! |---|---|---|
//! | Fig. 1 (efficacy vs. measurements) | [`fig1::run`] | `fig1` |
//! | Table I (response-strategy survey) | [`table1::run`] | `table1` |
//! | Table II (resource vs. progress) | [`table2::run`] | `table2` |
//! | Table III (case-study configs) | [`table3::run`] | `table3` |
//! | Fig. 4a-f (micro-architectural attacks) | [`fig4`] | `fig4a` … `fig4f` |
//! | Fig. 5a/5b (FP slowdowns, migration) | [`fig5`] | `fig5a`, `fig5b` |
//! | Table IV (per-platform slowdowns) | [`table4::run`] | `table4` |
//! | Fig. 6a-c (rowhammer/ransomware/miner) | [`fig6`] | `fig6a` … `fig6c` |
//! | §V-C worked example | [`analytic::run`] | `analytic` |
//! | Design-choice ablations | [`ablations::run`] | `ablations` |
//! | Table I, quantified (ours) | [`responses::run`] | `responses` |
//! | Evasion study (ours) | [`evasion::run`] | `evasion` |
//! | Two-level detection (ours) | [`ensemble::run`] | `ensemble` |
//! | Multi-tenant machine (ours) | [`multi_tenant::run`] | `multi_tenant` |
//! | Fleet-scale cluster (ours) | [`fleet_scale::run`] | `fleet_scale` |
//! | Noise-flood sweep (ours) | [`flood::run`] | `flood` |
//! | Adaptive best-response ranking (ours) | [`adaptive::run`] | `adaptive` |
//!
//! Three modules hold the evaluation apparatus the studies share rather
//! than an artefact of their own:
//!
//! | Model | Module | Used by |
//! |---|---|---|
//! | Duty-cycling and best-response attackers | [`attacker`] | [`evasion`], [`adaptive`] |
//! | Table I non-throttling baselines | [`baselines`] | [`responses`], [`fig5`] |
//! | Fig. 5b migration baselines | [`migration`] | [`responses`], [`fig5`] |

pub mod ablations;
pub mod adaptive;
pub mod analytic;
pub mod attacker;
pub mod baselines;
pub mod cache;
pub mod ensemble;
pub mod evasion;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fleet_scale;
pub mod flood;
pub mod harness;
pub mod migration;
pub mod multi_tenant;
pub mod responses;
pub mod scenario;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

pub use harness::TextTable;
pub use scenario::{AugmentedRun, CpuLever, ScenarioConfig};
