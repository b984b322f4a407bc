//! The benchmark drives the same program the experiments do: at their
//! quick configurations, its workloads report exactly the security and
//! bookkeeping counters `fleet_scale::run` and `multi_tenant::run` report,
//! traced or not.

use perfbench::fleet_churn::{self, FleetChurnConfig};
use perfbench::tenant::{self, Flooded, Fused, TenantConfig, Tier};
use perfbench::trace::Tracer;
use perfbench::Outcome;
use valkyrie_core::IngestDefense;
use valkyrie_experiments::fleet_scale::{self, FleetScaleConfig};
use valkyrie_experiments::multi_tenant::{self, MultiTenantConfig};

fn fleet_config(c: &FleetScaleConfig) -> FleetChurnConfig {
    FleetChurnConfig {
        machines: c.machines,
        services_per_machine: c.services_per_machine,
        attacks: c.attacks,
        epochs: c.epochs,
        n_star: c.n_star,
        groups: c.groups,
        shards_per_group: c.shards_per_group,
        tpr: c.tpr,
        verdict_tpr: c.verdict_tpr,
        verdict_fpr: c.verdict_fpr,
        lifetime_scale: c.lifetime_scale,
        seed: c.seed,
        churn: c.churn,
        single_thread: false,
    }
}

fn tenant_config(c: &MultiTenantConfig) -> TenantConfig {
    let tier = match (c.fusion, c.ingest, c.flood) {
        (Some(f), None, None) => Tier::Fused(Fused {
            fast_weight: f.fast_weight,
            slow_weight: f.slow_weight,
            slow_cadence: f.slow_cadence,
            slow_tpr: f.slow_tpr,
            slow_fpr: f.slow_fpr,
            slow_dropout: f.slow_dropout,
            stale_decay: f.stale_decay,
            capacity: f.capacity,
        }),
        (None, Some(ai), Some(fl)) => Tier::Flooded(Flooded {
            delay: ai.delay,
            jitter: ai.jitter,
            capacity: ai.capacity,
            policy: ai.policy,
            rate: fl.rate,
            burst: fl.burst,
            burst_period: fl.burst_period,
            churn: fl.churn,
            defense: fl.defense,
        }),
        _ => panic!("the benchmark runs the fused and the flooded tiers only"),
    };
    TenantConfig {
        benign_procs: c.benign_procs,
        attacks: c.attacks,
        epochs: c.epochs,
        n_star: c.n_star,
        shards: c.shards,
        tpr: c.tpr,
        verdict_tpr: c.verdict_tpr,
        verdict_fpr: c.verdict_fpr,
        seed: c.seed,
        tier,
    }
}

fn mean_lag(o: &Outcome) -> f64 {
    o.kill_lag_sum as f64 / o.attacks_killed() as f64
}

fn live(o: &Outcome) -> usize {
    o.census.iter().sum::<u64>() as usize
}

#[test]
fn fleet_churn_matches_fleet_scale_quick() {
    let quick = FleetScaleConfig::quick();
    let reference = fleet_scale::run(&quick);
    let mut digests = Vec::new();
    for traced in [false, true] {
        let o = fleet_churn::run(&fleet_config(&quick), &mut Tracer::new(traced));
        assert_eq!(o.violations, 0);
        assert_eq!(o.checked, o.observations);
        assert_eq!(o.attacks_killed() as usize, reference.attacks_terminated);
        assert_eq!(
            mean_lag(&o).to_bits(),
            reference.mean_epochs_to_kill.to_bits()
        );
        assert_eq!(o.benign_killed, reference.benign_killed);
        assert_eq!(o.benign_spawned, reference.services_spawned);
        assert_eq!(o.observations, reference.observations);
        assert_eq!(o.peak_tracked, reference.peak_tracked);
        assert_eq!(o.counter("fleet.purged") as u64, reference.purged);
        assert_eq!(live(&o), reference.final_tracked_live);
        assert_eq!(
            o.counter("fusion.escalations") as u64,
            reference.fusion_stats.escalations
        );
        digests.push(o.digest());
    }
    assert_eq!(digests[0], digests[1], "tracing changed the outcome");
}

fn assert_tenant_matches(quick: MultiTenantConfig) {
    let reference = multi_tenant::run(&quick);
    let mut digests = Vec::new();
    for traced in [false, true] {
        let o = tenant::run(&tenant_config(&quick), &mut Tracer::new(traced));
        assert_eq!(o.violations, 0);
        assert_eq!(o.checked, o.observations);
        assert_eq!(o.attacks_killed() as usize, reference.attacks_terminated);
        assert_eq!(
            mean_lag(&o).to_bits(),
            reference.mean_epochs_to_kill.to_bits()
        );
        let killed_pct = 100.0 * o.benign_killed as f64 / quick.benign_procs as f64;
        assert_eq!(killed_pct.to_bits(), reference.benign_killed_pct.to_bits());
        assert_eq!(o.observations, reference.observations);
        assert_eq!(o.peak_tracked, reference.peak_tracked);
        assert_eq!(o.counter("sharded.purged") as u64, reference.purged);
        assert_eq!(live(&o), reference.final_tracked_live);
        let fusion = &reference.fusion_stats;
        assert_eq!(o.counter("fusion.verdicts") as u64, fusion.verdicts);
        assert_eq!(
            o.counter("fusion.stale_decayed") as u64,
            fusion.stale_decayed
        );
        assert_eq!(o.counter("fusion.escalations") as u64, fusion.escalations);
        if let Some(ingest) = &reference.ingest {
            assert_eq!(o.counter("ingest.published") as u64, ingest.published);
            assert_eq!(o.counter("ingest.drained") as u64, ingest.drained);
            assert_eq!(o.counter("ingest.dropped") as u64, ingest.dropped);
            assert_eq!(
                o.counter("ingest.priority_queued") as u64,
                ingest.priority_queued
            );
            assert_eq!(
                o.counter("ingest.evictions_deflected") as u64,
                ingest.evictions_deflected
            );
            assert_eq!(
                o.counter("ingest.decoys_published") as u64,
                reference.flood_decoys
            );
        }
        digests.push(o.digest());
    }
    assert_eq!(digests[0], digests[1], "tracing changed the outcome");
}

#[test]
fn tenant_fused_matches_multi_tenant_quick_fused() {
    assert_tenant_matches(MultiTenantConfig::quick_fused());
}

#[test]
fn tenant_flood_matches_multi_tenant_quick_flood() {
    assert_tenant_matches(MultiTenantConfig::quick_flood(IngestDefense::full()));
}
