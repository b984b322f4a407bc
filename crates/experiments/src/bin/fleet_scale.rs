//! Fleet scale: 100k+ machines with churn under one sharded engine.
//!
//! `--quick` runs the scaled-down configuration used by the golden-output
//! pins (200 machines); the default drives the full 100k-machine cluster —
//! a million live services — through `FleetEngine::tick` every epoch and
//! reports kill latency, wrongful-termination rate and engine throughput
//! at that scale.
//!
//! `--async-ingest` routes every detector batch through the fleet's
//! bounded ingest rings (Block policy, overload defense armed) and drains
//! them with `drain_tick` — same security outcome, plus the per-lane and
//! per-publisher ingest counters in the summary.
use valkyrie_experiments::fleet_scale;

fn main() {
    let base = if std::env::args().any(|a| a == "--quick") {
        fleet_scale::FleetScaleConfig::quick()
    } else {
        fleet_scale::FleetScaleConfig::default()
    };
    let result = fleet_scale::run(&fleet_scale::FleetScaleConfig {
        async_ingest: std::env::args().any(|a| a == "--async-ingest"),
        ..base
    });
    println!("{}", result.report);
}
