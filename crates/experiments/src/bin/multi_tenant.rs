//! Multi-tenant machine: concurrent attacks in a fleet of benign services.
//!
//! `--async-ingest` makes the detector tier slow and jittery: verdicts
//! are published into the engine's bounded per-shard ingest rings 3–5
//! epochs after their measurements, and the epoch driver drains whatever
//! has arrived with `drain_tick` — demonstrating that detector latency
//! costs detection lag (compare the "mean epochs to kill" row against a
//! synchronous run), never a stalled response tick.
//!
//! `--fused` swaps the detector tier for the heterogeneous fused
//! ensemble: a weakened fast member (TPR 0.70) publishing every epoch
//! plus a slow-strong member publishing every 4th epoch with dropout,
//! combined by the engine's weighted-evidence fusion under the
//! graduated escalation ladder. Mutually exclusive with
//! `--async-ingest`.
//!
//! `--flood` (implies `--async-ingest`) runs a noise-floor DoS against
//! the ingest rings while the attacks run underneath: a second publisher
//! handle spams benign-looking decoys at exactly the shards that own the
//! attack pids. Add `--defend` to harden the rings with priority lanes +
//! per-publisher fair queueing and watch the kills come back.
use valkyrie_core::IngestDefense;
use valkyrie_experiments::multi_tenant;

fn main() {
    let flood = if std::env::args().any(|a| a == "--flood") {
        let defense = if std::env::args().any(|a| a == "--defend") {
            IngestDefense::full()
        } else {
            IngestDefense::default()
        };
        Some(multi_tenant::FloodTier {
            defense,
            ..multi_tenant::FloodTier::default()
        })
    } else {
        None
    };
    let ingest = if flood.is_some() || std::env::args().any(|a| a == "--async-ingest") {
        Some(multi_tenant::AsyncIngest::default())
    } else {
        None
    };
    let fusion = if std::env::args().any(|a| a == "--fused") {
        Some(multi_tenant::FusionTier::default())
    } else {
        None
    };
    let tpr = if fusion.is_some() {
        0.70
    } else {
        multi_tenant::MultiTenantConfig::default().tpr
    };
    let result = multi_tenant::run(&multi_tenant::MultiTenantConfig {
        ingest,
        fusion,
        flood,
        tpr,
        ..multi_tenant::MultiTenantConfig::default()
    });
    println!("{}", result.report);
}
