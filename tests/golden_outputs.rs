//! Golden outputs: the substrate refactor (SoA filesystem, dense process
//! table, allocation-free epoch loop) must not change a single experiment
//! result. These tests pin the exact (bit-identical) values the pre-refactor
//! seed produced for Table II, Fig. 6b and the multi-tenant machine.
//!
//! To regenerate after an *intentional* behaviour change, run
//! `cargo test --release --test golden_outputs -- --ignored --nocapture`
//! and paste the printed literals below.

use valkyrie::experiments as x;

fn capture_table2() -> Vec<(String, String, f64, f64)> {
    x::table2::run(&x::table2::Table2Config::quick())
        .rows
        .into_iter()
        .map(|r| {
            (
                r.resource.to_string(),
                r.setting,
                r.kb_per_s,
                r.slowdown_pct,
            )
        })
        .collect()
}

fn capture_fig6b() -> (f64, f64, f64) {
    let r = x::fig6::run_b(&x::fig6::Fig6Config::quick());
    (r.mb_without, r.mb_with_cpu, r.mb_with_fs)
}

fn capture_multi_tenant() -> (usize, f64, f64, f64, usize, u64) {
    let r = x::multi_tenant::run(&x::multi_tenant::MultiTenantConfig::quick());
    (
        r.attacks_terminated,
        r.mean_epochs_to_kill,
        r.benign_killed_pct,
        r.benign_slowdown_pct,
        r.benign_completed,
        r.purged,
    )
}

fn capture_multi_tenant_async() -> (usize, f64, f64, f64, usize, u64, u64, u64) {
    let r = x::multi_tenant::run(&x::multi_tenant::MultiTenantConfig::quick_async());
    let stats = r.ingest.expect("async runs expose ingest stats");
    (
        r.attacks_terminated,
        r.mean_epochs_to_kill,
        r.benign_killed_pct,
        r.benign_slowdown_pct,
        r.benign_completed,
        r.purged,
        stats.published,
        stats.dropped,
    )
}

/// One noise-flood run's counters: `(attacks_terminated,
/// mean_epochs_to_kill, benign_killed_pct, flood_decoys, published,
/// dropped, priority_queued, evictions_deflected, dropped_by_publisher)`.
/// Publisher 0 is the driver-side slot (unused here), 1 the legit
/// detector handle, 2 the flooder.
#[allow(clippy::type_complexity)]
fn capture_multi_tenant_flood(
    defense: valkyrie_core::IngestDefense,
) -> (usize, f64, f64, u64, u64, u64, u64, u64, Vec<u64>) {
    let r = x::multi_tenant::run(&x::multi_tenant::MultiTenantConfig::quick_flood(defense));
    let stats = r.ingest.expect("flood runs expose ingest stats");
    (
        r.attacks_terminated,
        r.mean_epochs_to_kill,
        r.benign_killed_pct,
        r.flood_decoys,
        stats.published,
        stats.dropped,
        stats.priority_queued,
        stats.evictions_deflected,
        stats.dropped_by_publisher,
    )
}

#[allow(clippy::type_complexity)]
fn capture_fleet_scale() -> (usize, f64, u64, u64, u64, u64, u64, u64, u64, u64) {
    let r = x::fleet_scale::run(&x::fleet_scale::FleetScaleConfig::quick());
    (
        r.attacks_terminated,
        r.mean_epochs_to_kill,
        r.benign_killed,
        r.services_completed,
        r.services_drained,
        r.services_evicted,
        r.machines_booted,
        r.machines_decommissioned,
        r.purged,
        r.observations,
    )
}

/// The fusion sweep flattened to one row per point (baseline first):
/// `(slow_weight, attacks_terminated, mean_epochs_to_kill,
/// benign_killed_pct, benign_completed, verdicts, stale_decayed,
/// escalations)`.
#[allow(clippy::type_complexity)]
fn capture_fusion_sweep() -> Vec<(Option<f64>, usize, f64, f64, usize, u64, u64, u64)> {
    let r = x::ensemble::run_fusion(&x::ensemble::FusionSweepConfig::quick());
    std::iter::once(&r.baseline)
        .chain(r.points.iter())
        .map(|p| {
            (
                p.slow_weight,
                p.attacks_terminated,
                p.mean_epochs_to_kill,
                p.benign_killed_pct,
                p.benign_completed,
                p.fusion.verdicts,
                p.fusion.stale_decayed,
                p.fusion.escalations,
            )
        })
        .collect()
}

/// The adaptive best-response ranking (quick config), one row per defense:
/// `(label, worst_floor_pct, adaptive_progress, killed_pct,
/// mean_kill_epoch, fixed_best_floor_pct, gap_pts)`. A never-killed best
/// response reports `mean_kill_epoch = -1.0` (the NaN sentinel), so the
/// pins stay comparable via `to_bits`.
#[allow(clippy::type_complexity)]
fn capture_adaptive() -> Vec<(String, f64, f64, f64, f64, f64, f64)> {
    x::adaptive::run(&x::adaptive::AdaptiveConfig::quick())
        .rows
        .into_iter()
        .map(|r| {
            (
                r.label,
                r.worst_floor_pct,
                r.adaptive_progress,
                r.killed_pct,
                if r.mean_kill_epoch.is_nan() {
                    -1.0
                } else {
                    r.mean_kill_epoch
                },
                r.fixed_best_floor_pct,
                r.gap_pts,
            )
        })
        .collect()
}

/// The law-probe table (quick config):
/// `(label, estimated_family, estimated_param, hit, closed_loop_floor_pct)`.
fn capture_adaptive_probe() -> Vec<(String, String, f64, bool, f64)> {
    x::adaptive::run(&x::adaptive::AdaptiveConfig::quick())
        .probe
        .into_iter()
        .map(|r| {
            (
                r.label,
                r.family,
                r.estimated,
                r.hit,
                r.closed_loop_floor_pct,
            )
        })
        .collect()
}

/// One efficacy curve flattened to `(measurements, f1, fpr)` triples.
fn curve_rows(curve: &valkyrie_core::EfficacyCurve) -> Vec<(u32, f64, f64)> {
    curve
        .points()
        .iter()
        .map(|p| (p.measurements, p.f1, p.fpr))
        .collect()
}

#[allow(clippy::type_complexity)]
fn capture_fig1() -> Vec<(&'static str, Vec<(u32, f64, f64)>)> {
    let r = x::fig1::run(&x::fig1::Fig1Config::quick());
    vec![
        ("small_ann", curve_rows(&r.small_ann)),
        ("large_ann", curve_rows(&r.large_ann)),
        ("svm", curve_rows(&r.svm)),
        ("xgboost", curve_rows(&r.xgboost)),
    ]
}

fn capture_fig5a() -> Vec<(String, u64, u64, bool)> {
    let r = x::fig5::run_5a(&x::fig5::Fig5Config::quick());
    assert!(r.mt_rows.is_empty(), "quick config is single-threaded only");
    r.rows
        .into_iter()
        .map(|row| {
            (
                row.name,
                row.baseline_epochs,
                row.valkyrie_epochs,
                row.terminated,
            )
        })
        .collect()
}

/// The Section V-C worked example, one row per actuator interpretation:
/// `(interpretation, attack_pct, false_positive_pct)`.
fn capture_analytic() -> Vec<(&'static str, f64, f64)> {
    x::analytic::run()
        .rows
        .into_iter()
        .map(|r| (r.interpretation, r.attack_pct, r.false_positive_pct))
        .collect()
}

/// The four design-choice sweeps, one `(config, attack_slowdown_pct,
/// fp_slowdown_pct)` row per data point, keyed by sweep name.
#[allow(clippy::type_complexity)]
fn capture_ablations() -> Vec<(&'static str, Vec<(String, f64, f64)>)> {
    use x::ablations as a;
    [
        a::assessment_functions(),
        a::actuator_laws(),
        a::n_star_sensitivity(),
        a::resource_floor(),
    ]
    .into_iter()
    .map(|r| {
        let rows = r
            .rows
            .into_iter()
            .map(|row| (row.config, row.attack_slowdown_pct, row.fp_slowdown_pct))
            .collect();
        (r.name, rows)
    })
    .collect()
}

/// The evasion study at the smoke config (`trials: 3, horizon: 50`).
fn capture_evasion() -> x::evasion::EvasionResult {
    x::evasion::run(&x::evasion::EvasionConfig {
        trials: 3,
        horizon: 50,
        ..x::evasion::EvasionConfig::default()
    })
}

/// The quantified Table I at the smoke config (`benign_trials: 5,
/// benign_epochs: 80`).
fn capture_responses() -> x::responses::ResponsesResult {
    x::responses::run(&x::responses::ResponsesConfig {
        benign_trials: 5,
        benign_epochs: 80,
        ..x::responses::ResponsesConfig::default()
    })
}

/// Fig. 5b on the quick Fig. 5a rows.
fn capture_fig5b() -> x::fig5::Fig5bResult {
    let cfg = x::fig5::Fig5Config::quick();
    x::fig5::run_5b(&cfg, &x::fig5::run_5a(&cfg))
}

/// Prints the current values as Rust literals (for regeneration).
#[test]
#[ignore]
fn print_golden_values() {
    println!("// --- fig1 quick curves ---");
    for (name, rows) in capture_fig1() {
        println!("    // {name}");
        for (n, f1, fpr) in rows {
            println!("    ({n}, {f1:?}, {fpr:?}),");
        }
    }
    println!("// --- fig5a quick rows ---");
    for (name, base, valk, term) in capture_fig5a() {
        println!("    (\"{name}\", {base}, {valk}, {term}),");
    }
    println!("// --- table2 quick rows ---");
    for (res, set, kb, sd) in capture_table2() {
        println!("    (\"{res}\", \"{set}\", {kb:?}, {sd:?}),");
    }
    let (a, b, c) = capture_fig6b();
    println!("// --- fig6b quick ---");
    println!("    ({a:?}, {b:?}, {c:?})");
    let mt = capture_multi_tenant();
    println!("// --- multi_tenant quick ---");
    println!("    {mt:?}");
    let mta = capture_multi_tenant_async();
    println!("// --- multi_tenant quick_async ---");
    println!("    {mta:?}");
    let undefended = capture_multi_tenant_flood(valkyrie_core::IngestDefense::default());
    println!("// --- multi_tenant quick_flood (undefended) ---");
    println!("    {undefended:?}");
    let defended = capture_multi_tenant_flood(valkyrie_core::IngestDefense::full());
    println!("// --- multi_tenant quick_flood (defended) ---");
    println!("    {defended:?}");
    let fs = capture_fleet_scale();
    println!("// --- fleet_scale quick ---");
    println!("    {fs:?}");
    println!("// --- fusion sweep quick (baseline first) ---");
    for row in capture_fusion_sweep() {
        println!("    {row:?},");
    }
    println!("// --- adaptive ranking quick ---");
    for (label, floor, prog, killed, epoch, fixed, gap) in capture_adaptive() {
        println!(
            "    (\"{label}\", {floor:?}, {prog:?}, {killed:?}, {epoch:?}, {fixed:?}, {gap:?}),"
        );
    }
    println!("// --- analytic rows ---");
    for (name, attack, fp) in capture_analytic() {
        println!("    (\"{name}\", {attack:?}, {fp:?}),");
    }
    println!("// --- ablation sweeps ---");
    for (name, rows) in capture_ablations() {
        println!("    (\"{name}\", &[");
        for (config, attack, fp) in rows {
            println!("        (\"{config}\", {attack:?}, {fp:?}),");
        }
        println!("    ]),");
    }
    println!("// --- ablations report ---");
    println!("{:?}", x::ablations::run());
    println!("// --- adaptive probe quick ---");
    for (label, family, est, hit, floor) in capture_adaptive_probe() {
        println!("    (\"{label}\", \"{family}\", {est:?}, {hit}, {floor:?}),");
    }
    let r = capture_evasion();
    println!("// --- evasion smoke rows ---");
    for row in r.duty_cycle {
        println!(
            "    ({:?}, {:?}, {:?}, {:?}, {:?}, {:?}),",
            row.strategy,
            row.progress,
            row.unimpeded,
            row.slowdown_pct,
            row.terminated_pct,
            row.mean_termination_epoch
        );
    }
    println!("// --- evasion smoke hardening ---");
    for (name, prog) in r.hardening {
        println!("    ({name:?}, {prog:?}),");
    }
    let r = capture_responses();
    println!("// --- responses smoke rows ---");
    for row in r.rows {
        println!(
            "    ({:?}, {:?}, {:?}, {:?}),",
            row.policy, row.attack_progress_pct, row.benign_killed_pct, row.benign_slowdown_pct
        );
    }
    println!("// --- responses smoke rowhammer ---");
    for (policy, flips) in r.rowhammer {
        println!("    ({policy:?}, {flips}),");
    }
    let r = capture_fig5b();
    println!("// --- fig5b quick ---");
    println!(
        "    ({:?}, {:?}, {:?}, {:?})",
        r.valkyrie_avg, r.core_migration_avg, r.system_migration_avg, r.consecutive_kill_frac
    );
    println!("// --- table1 ---");
    for line in x::table1::run().split('\n') {
        println!("        {line:?},");
    }
}

#[test]
fn table2_rows_are_bit_identical_to_seed() {
    let expected: &[(&str, &str, f64, f64)] = &[
        ("CPU", "100% [default]", 225.70000000000002, 0.0),
        ("CPU", "90%", 222.29999999999998, 1.5064244572441488),
        ("CPU", "50%", 123.5, 45.28134692069119),
        ("CPU", "1%", 2.47, 98.90562693841383),
        ("Memory", "4.7M [default]", 225.70000000000002, 0.0),
        (
            "Memory",
            "4.6M (93.6%)",
            0.6696992499095603,
            99.70327902086417,
        ),
        (
            "Memory",
            "4.4M (89.4%)",
            0.09724514613143208,
            99.95691398044686,
        ),
        ("Network", "1024G [default]", 225.70000000000002, 0.0),
        ("Network", "512G", 199.97020000000006, 11.399999999999977),
        ("Network", "512M", 56.650700000000036, 74.89999999999999),
        ("Network", "512K", 0.049654, 99.978),
        (
            "Filesystem",
            "100 files/s [default]",
            225.70000000000002,
            0.0,
        ),
        ("Filesystem", "90 files/s", 203.13, 10.000000000000009),
        ("Filesystem", "50 files/s", 112.85000000000001, 50.0),
        ("Filesystem", "1 file/s", 0.0, 100.0),
    ];
    let got = capture_table2();
    assert_eq!(got.len(), expected.len());
    for ((res, set, kb, sd), (eres, eset, ekb, esd)) in got.iter().zip(expected) {
        assert_eq!(res, eres);
        assert_eq!(set, eset);
        assert_eq!(
            kb.to_bits(),
            ekb.to_bits(),
            "{res}/{set}: {kb:?} vs {ekb:?}"
        );
        assert_eq!(
            sd.to_bits(),
            esd.to_bits(),
            "{res}/{set}: {sd:?} vs {esd:?}"
        );
    }
}

#[test]
fn fig6b_curves_are_bit_identical_to_seed() {
    let (without, cpu, fs) = capture_fig6b();
    let (ew, ec, ef) = (17.505f64, 3.59436f64, 5.21558f64);
    assert_eq!(without.to_bits(), ew.to_bits(), "{without:?} vs {ew:?}");
    assert_eq!(cpu.to_bits(), ec.to_bits(), "{cpu:?} vs {ec:?}");
    assert_eq!(fs.to_bits(), ef.to_bits(), "{fs:?} vs {ef:?}");
}

/// The fleet-scale quick counters: kill-at-`N*+1` (n_star = 8 → mean 9.0
/// epochs), wrongful terminations, churn totals (service drains, machine
/// boots/decommissions and their evictions), purges and total
/// observations. Every draw in the run is a pure hash, so these are
/// bit-stable across platforms and engine groupings.
#[test]
fn fleet_scale_counters_are_bit_identical_to_seed() {
    let got = capture_fleet_scale();
    let expected: (usize, f64, u64, u64, u64, u64, u64, u64, u64, u64) =
        (4, 9.0, 16, 382, 392, 186, 240, 42, 393, 35577);
    assert_eq!(got.0, expected.0, "attacks terminated");
    assert_eq!(
        got.1.to_bits(),
        expected.1.to_bits(),
        "mean epochs to kill: {:?} vs {:?}",
        got.1,
        expected.1
    );
    assert_eq!(got.2, expected.2, "benign killed");
    assert_eq!(got.3, expected.3, "services completed");
    assert_eq!(got.4, expected.4, "services drained");
    assert_eq!(got.5, expected.5, "services evicted");
    assert_eq!(got.6, expected.6, "machines booted");
    assert_eq!(got.7, expected.7, "machines decommissioned");
    assert_eq!(got.8, expected.8, "purged");
    assert_eq!(got.9, expected.9, "observations");
}

#[test]
fn multi_tenant_rates_are_bit_identical_to_seed() {
    let got = capture_multi_tenant();
    let expected = (
        3usize,
        11.0f64,
        5.333333333333333f64,
        0.4304577464788733f64,
        0usize,
        19u64,
    );
    assert_eq!(got.0, expected.0);
    assert_eq!(
        got.1.to_bits(),
        expected.1.to_bits(),
        "{:?} vs {:?}",
        got.1,
        expected.1
    );
    assert_eq!(
        got.2.to_bits(),
        expected.2.to_bits(),
        "{:?} vs {:?}",
        got.2,
        expected.2
    );
    assert_eq!(
        got.3.to_bits(),
        expected.3.to_bits(),
        "{:?} vs {:?}",
        got.3,
        expected.3
    );
    assert_eq!(got.4, expected.4);
    assert_eq!(got.5, expected.5);
}

/// The async-ingest variant's response outcome is pinned too: refactors of
/// the ingest tier (ring layout, drain merge, scheduling) must not
/// silently change the kill or wrongful-termination rates. The 16.0
/// mean-epochs-to-kill against the synchronous run's 11.0 *is* the
/// detector latency (3 + up to 2 jitter epochs) showing up as detection
/// lag — while the driver ticks every one of its 80 epochs on schedule.
#[test]
fn multi_tenant_async_ingest_rates_are_bit_identical_to_seed() {
    let got = capture_multi_tenant_async();
    let expected = (
        3usize,
        16.0f64,
        4.666666666666667f64,
        0.4265734265734266f64,
        0usize,
        17u64,
        22055u64, // verdicts published through the rings
        0u64,     // none dropped: the rings are sized for the fleet
    );
    assert_eq!(got.0, expected.0);
    assert_eq!(
        got.1.to_bits(),
        expected.1.to_bits(),
        "{:?} vs {:?}",
        got.1,
        expected.1
    );
    assert_eq!(
        got.2.to_bits(),
        expected.2.to_bits(),
        "{:?} vs {:?}",
        got.2,
        expected.2
    );
    assert_eq!(
        got.3.to_bits(),
        expected.3.to_bits(),
        "{:?} vs {:?}",
        got.3,
        expected.3
    );
    assert_eq!(got.4, expected.4);
    assert_eq!(got.5, expected.5);
    assert_eq!(got.6, expected.6);
    assert_eq!(got.7, expected.7);
}

/// The noise-flood DoS, pinned at the PR that introduced it: with small
/// `DropOldest` rings and a decoy stream out-publishing the legit
/// detector at the attack pids' shards, **every** attack survives — the
/// flood evicts the real verdicts before the driver can drain them. The
/// per-publisher breakdown shows the collateral: publisher 1 (the legit
/// handle) loses 10 986 verdicts, most of the drops.
#[test]
fn multi_tenant_flood_counters_are_bit_identical_to_seed() {
    let got = capture_multi_tenant_flood(valkyrie_core::IngestDefense::default());
    assert_eq!(got.0, 0, "no attack terminated under the flood");
    assert!(got.1.is_nan(), "no kills, no kill latency: {:?}", got.1);
    let pct = 3.3333333333333335f64;
    assert_eq!(got.2.to_bits(), pct.to_bits(), "{:?} vs {:?}", got.2, pct);
    assert_eq!(got.3, 27200, "decoys published");
    assert_eq!(got.4, 49477, "published (legit + decoys)");
    assert_eq!(got.5, 17706, "evicted by overflow");
    assert_eq!(got.6, 0, "no priority lane without the defense");
    assert_eq!(got.7, 0, "no deflections without the defense");
    assert_eq!(got.8, vec![0, 10986, 6720], "drops by publisher");
}

/// The same flood with the overload defense armed (priority lane +
/// per-publisher fair queueing): the kill rate, kill latency and wrongful
/// terminations return **bit-for-bit** to the flood-free `quick_async`
/// values (3 kills at 16.0 mean epochs) while the flood is still running
/// at full rate. The counters show how: 2 966 verdicts re-routed through
/// the priority lane once their pids turned suspicious, and 14 402
/// evictions deflected from the legit publisher onto the flooder, which
/// now absorbs 14 914 of the 15 630 drops — it mostly evicts itself.
#[test]
fn multi_tenant_defended_flood_counters_are_bit_identical_to_seed() {
    let got = capture_multi_tenant_flood(valkyrie_core::IngestDefense::full());
    assert_eq!(got.0, 3, "every attack terminated despite the flood");
    let mean = 16.0f64;
    assert_eq!(got.1.to_bits(), mean.to_bits(), "{:?} vs {mean:?}", got.1);
    let pct = 4.666666666666667f64;
    assert_eq!(got.2.to_bits(), pct.to_bits(), "{:?} vs {pct:?}", got.2);
    assert_eq!(got.3, 27200, "same decoy stream as the undefended run");
    assert_eq!(got.4, 49255, "published (legit + decoys)");
    assert_eq!(got.5, 15630, "evicted by overflow");
    assert_eq!(got.6, 2966, "priority-lane verdicts");
    assert!(got.6 > 0, "the priority lane must carry verdicts");
    assert_eq!(got.7, 14402, "evictions deflected onto the flooder");
    assert!(got.7 > 0, "fair queueing must deflect evictions");
    assert_eq!(got.8, vec![0, 716, 14914], "drops by publisher");
    assert!(
        got.8[2] > 10 * got.8[1],
        "the flooder pays for its own flood"
    );
}

/// The heterogeneous-cadence fusion sweep's quick counters, pinned at the
/// PR that introduced the weighted-evidence verdict path. The baseline row
/// (`None`) is the single fast-weak binary detector: 77% of the benign
/// fleet wrongfully killed at verdict FPR 0.20. Every fused point kills
/// the same 3/3 attacks at a wrongful rate 30–60× lower — the
/// fast-weak + slow-strong composition carrying the false-positive
/// budget. All draws come from the seeded `StdRng` streams, so the
/// counters are bit-stable across platforms and shard counts.
#[test]
fn fusion_sweep_counters_are_bit_identical_to_seed() {
    #[allow(clippy::type_complexity)]
    let expected: &[(Option<f64>, usize, f64, f64, usize, u64, u64, u64)] = &[
        (None, 3, 18.333333333333332, 77.0, 0, 0, 0, 637),
        (Some(0.5), 3, 11.0, 2.0, 0, 28896, 2646, 715),
        (
            Some(1.0),
            3,
            11.666666666666666,
            2.3333333333333335,
            0,
            28854,
            2682,
            96,
        ),
        (Some(2.0), 3, 11.0, 2.0, 0, 28865, 2682, 190),
        (Some(4.0), 3, 11.0, 1.3333333333333333, 0, 28903, 2676, 168),
    ];
    let got = capture_fusion_sweep();
    assert_eq!(got.len(), expected.len());
    for ((w, killed, epochs, pct, done, verdicts, stale, esc), (ew, ek, ee, ep, ed, ev, es, ec)) in
        got.iter().zip(expected)
    {
        assert_eq!(w, ew, "slow weight grid");
        assert_eq!(killed, ek, "{w:?}: attacks terminated");
        assert_eq!(
            epochs.to_bits(),
            ee.to_bits(),
            "{w:?}: epochs to kill {epochs:?} vs {ee:?}"
        );
        assert_eq!(
            pct.to_bits(),
            ep.to_bits(),
            "{w:?}: benign killed {pct:?} vs {ep:?}"
        );
        assert_eq!(done, ed, "{w:?}: benign completed");
        assert_eq!(verdicts, ev, "{w:?}: fused verdicts");
        assert_eq!(stale, es, "{w:?}: stale-decayed");
        assert_eq!(esc, ec, "{w:?}: escalations");
    }
}

/// The adaptive best-response ranking (quick config), pinned at the PR
/// that introduced it. The whole study — fixed-roster baselines, the
/// grid + coordinate-descent search, and the winning strategy's replay —
/// is seeded-StdRng deterministic, so every floor, progress and gap value
/// is bit-stable, debug or release. The two ladder rows at the bottom are
/// the headline: a mass rider holding its expected fused confidence just
/// below the throttle rung is never killed and shaves 39–50 efficacy
/// points off the fixed-roster floor.
#[test]
fn adaptive_ranking_is_bit_identical_to_seed() {
    #[allow(clippy::type_complexity)]
    let expected: &[(&str, f64, f64, f64, f64, f64, f64)] = &[
        (
            "sched g=0.10 + exp2",
            95.0275,
            3.9779999999999993,
            100.0,
            32.666666666666664,
            97.26666666666667,
            2.2391666666666623,
        ),
        (
            "mult 0.90/unit + exp2",
            94.12498406286657,
            4.700012749706744,
            100.0,
            32.666666666666664,
            97.12756828958334,
            3.0025842267167633,
        ),
        (
            "pp 0.10/unit + exp2",
            93.00625,
            5.594999999999999,
            100.0,
            32.333333333333336,
            96.20416666666667,
            3.1979166666666714,
        ),
        (
            "pp 0.10/unit + inc",
            90.1525,
            7.8779999999999974,
            100.0,
            32.333333333333336,
            92.26458333333333,
            2.112083333333331,
        ),
        (
            "sched g=0.10 + inc",
            90.13865,
            7.889079999999999,
            100.0,
            32.333333333333336,
            92.26666666666668,
            2.1280166666666815,
        ),
        (
            "halve/event + inc",
            88.65625,
            9.075,
            100.0,
            32.166666666666664,
            89.0625,
            0.40625,
        ),
        (
            "mult 0.90/unit + inc",
            88.44837555756392,
            9.241299553948869,
            100.0,
            32.333333333333336,
            89.25902606555893,
            0.8106505079950068,
        ),
        (
            "mult 0.70/event + inc",
            86.180125,
            11.0559,
            100.0,
            32.5,
            85.52083333333333,
            -0.6592916666666753,
        ),
        (
            "halve/event + exp2",
            82.23958333333334,
            14.20833333333333,
            100.0,
            36.0,
            89.0625,
            6.822916666666657,
        ),
        (
            "mult 0.70/event + exp2",
            75.83375,
            19.333,
            100.0,
            36.0,
            85.4375,
            9.603750000000005,
        ),
        (
            "ladder binary",
            53.48837209302319,
            37.209302325581454,
            0.0,
            -1.0,
            92.86440677324893,
            39.37603468022574,
        ),
        (
            "ladder graduated",
            42.50187436485052,
            45.998500508119584,
            0.0,
            -1.0,
            92.86440677324893,
            50.36253240839841,
        ),
    ];
    let got = capture_adaptive();
    assert_eq!(got.len(), expected.len());
    for ((label, floor, prog, killed, epoch, fixed, gap), (el, ef, ep, ek, ee, efx, eg)) in
        got.iter().zip(expected)
    {
        assert_eq!(label, el, "ranking order");
        assert_eq!(
            floor.to_bits(),
            ef.to_bits(),
            "{label}: worst floor {floor:?} vs {ef:?}"
        );
        assert_eq!(
            prog.to_bits(),
            ep.to_bits(),
            "{label}: progress {prog:?} vs {ep:?}"
        );
        assert_eq!(
            killed.to_bits(),
            ek.to_bits(),
            "{label}: killed {killed:?} vs {ek:?}"
        );
        assert_eq!(
            epoch.to_bits(),
            ee.to_bits(),
            "{label}: kill epoch {epoch:?} vs {ee:?}"
        );
        assert_eq!(
            fixed.to_bits(),
            efx.to_bits(),
            "{label}: fixed floor {fixed:?} vs {efx:?}"
        );
        assert_eq!(
            gap.to_bits(),
            eg.to_bits(),
            "{label}: gap {gap:?} vs {eg:?}"
        );
    }
}

/// The law-probe identification table (quick config): a three-epoch
/// calibrated burst re-derives every deployed family and parameter, and
/// the closed-loop (probe → calibrate → modulate) floors are pinned too.
#[test]
fn adaptive_probe_is_bit_identical_to_seed() {
    let expected: &[(&str, &str, f64, bool, f64)] = &[
        (
            "pp 0.10/unit",
            "percent-point/unit",
            0.10000000000000002,
            true,
            93.18125,
        ),
        (
            "mult 0.90/unit",
            "multiplicative/unit",
            0.9,
            true,
            90.34310557849435,
        ),
        (
            "mult 0.70/event",
            "multiplicative/event",
            0.7,
            true,
            88.39270833333333,
        ),
        ("halve/event", "halve/event", 0.5, true, 90.18229166666667),
        (
            "sched g=0.10",
            "scheduler-weight",
            0.09999999999999999,
            true,
            93.02833333333334,
        ),
    ];
    let got = capture_adaptive_probe();
    assert_eq!(got.len(), expected.len());
    for ((label, family, est, hit, floor), (el, efam, ee, eh, efl)) in got.iter().zip(expected) {
        assert_eq!(label, el);
        assert_eq!(family, efam, "{label}: family");
        assert_eq!(
            est.to_bits(),
            ee.to_bits(),
            "{label}: estimate {est:?} vs {ee:?}"
        );
        assert_eq!(hit, eh, "{label}: hit");
        assert_eq!(
            floor.to_bits(),
            efl.to_bits(),
            "{label}: closed-loop floor {floor:?} vs {efl:?}"
        );
    }
}

/// Fig. 1 efficacy curves (quick config) pinned before the batched/cached
/// ML tier landed: every `predict_batch`, prefix-vote and model-cache path
/// must reproduce these f1/fpr values bit-for-bit.
#[test]
fn fig1_quick_curves_are_bit_identical_to_seed() {
    #[allow(clippy::type_complexity)]
    let expected: &[(&str, &[(u32, f64, f64)])] = &[
        (
            "small_ann",
            &[
                (1, 0.5454545454545454, 0.25),
                (3, 0.923076923076923, 0.0),
                (5, 0.923076923076923, 0.0),
                (7, 1.0, 0.0),
                (9, 1.0, 0.0),
                (11, 1.0, 0.0),
                (13, 1.0, 0.0),
                (15, 1.0, 0.0),
                (17, 1.0, 0.0),
                (19, 1.0, 0.0),
                (21, 0.9333333333333333, 0.25),
                (23, 0.9333333333333333, 0.25),
                (25, 0.9333333333333333, 0.25),
            ],
        ),
        (
            "large_ann",
            &[
                (1, 0.5454545454545454, 0.25),
                (3, 0.923076923076923, 0.0),
                (5, 0.923076923076923, 0.0),
                (7, 0.923076923076923, 0.0),
                (9, 1.0, 0.0),
                (11, 1.0, 0.0),
                (13, 1.0, 0.0),
                (15, 1.0, 0.0),
                (17, 1.0, 0.0),
                (19, 1.0, 0.0),
                (21, 0.9333333333333333, 0.25),
                (23, 0.9333333333333333, 0.25),
                (25, 0.9333333333333333, 0.25),
            ],
        ),
        (
            "svm",
            &[
                (1, 0.6, 0.0),
                (3, 0.6, 0.0),
                (5, 0.7272727272727273, 0.0),
                (7, 0.6, 0.0),
                (9, 0.923076923076923, 0.0),
                (11, 0.7272727272727273, 0.0),
                (13, 0.6, 0.0),
                (15, 0.7272727272727273, 0.0),
                (17, 0.7272727272727273, 0.0),
                (19, 0.6, 0.0),
                (21, 0.6, 0.0),
                (23, 0.7272727272727273, 0.0),
                (25, 0.6, 0.0),
            ],
        ),
        (
            "xgboost",
            &[
                (1, 0.6, 0.0),
                (3, 0.8333333333333333, 0.0),
                (5, 0.8333333333333333, 0.0),
                (7, 0.923076923076923, 0.0),
                (9, 0.923076923076923, 0.0),
                (11, 0.923076923076923, 0.0),
                (13, 1.0, 0.0),
                (15, 0.923076923076923, 0.0),
                (17, 1.0, 0.0),
                (19, 1.0, 0.0),
                (21, 1.0, 0.0),
                (23, 1.0, 0.0),
                (25, 1.0, 0.0),
            ],
        ),
    ];
    let got = capture_fig1();
    assert_eq!(got.len(), expected.len());
    for ((name, rows), (ename, erows)) in got.iter().zip(expected) {
        assert_eq!(name, ename);
        assert_eq!(rows.len(), erows.len(), "{name}: point count");
        for ((n, f1, fpr), (en, ef1, efpr)) in rows.iter().zip(*erows) {
            assert_eq!(n, en, "{name}: grid point");
            assert_eq!(
                f1.to_bits(),
                ef1.to_bits(),
                "{name}@{n}: f1 {f1:?} vs {ef1:?}"
            );
            assert_eq!(
                fpr.to_bits(),
                efpr.to_bits(),
                "{name}@{n}: fpr {fpr:?} vs {efpr:?}"
            );
        }
    }
}

/// Fig. 5a per-benchmark epoch counts (quick config) pinned before the
/// detector-cache / incremental-voting / batched-scoring changes: the
/// response trajectory of all 77 benchmarks must stay bit-identical.
#[test]
fn fig5a_quick_rows_are_bit_identical_to_seed() {
    let expected: &[(&str, u64, u64, bool)] = &[
        ("perlbench", 49, 49, false),
        ("bzip2", 42, 42, false),
        ("gcc", 58, 58, false),
        ("mcf", 79, 84, false),
        ("gobmk", 123, 124, false),
        ("hmmer", 48, 48, false),
        ("sjeng", 40, 40, false),
        ("libquantum", 79, 81, false),
        ("h264ref", 127, 128, false),
        ("omnetpp", 67, 71, false),
        ("astar", 73, 73, false),
        ("xalancbmk", 94, 95, false),
        ("bwaves", 94, 97, false),
        ("gamess", 119, 120, false),
        ("milc", 112, 117, false),
        ("zeusmp", 94, 95, false),
        ("gromacs", 109, 110, false),
        ("cactusADM", 72, 72, false),
        ("leslie3d", 84, 87, false),
        ("namd", 49, 49, false),
        ("dealII", 73, 73, false),
        ("soplex", 61, 61, false),
        ("povray", 97, 98, false),
        ("calculix", 75, 75, false),
        ("GemsFDTD", 78, 80, false),
        ("tonto", 83, 83, false),
        ("lbm", 106, 110, false),
        ("wrf", 42, 42, false),
        ("sphinx3", 84, 84, false),
        ("perlbench_r", 46, 46, false),
        ("gcc_r", 130, 131, false),
        ("mcf_r", 44, 45, false),
        ("omnetpp_r", 107, 108, false),
        ("xalancbmk_r", 89, 89, false),
        ("x264_r", 77, 77, false),
        ("deepsjeng_r", 76, 76, false),
        ("leela_r", 130, 131, false),
        ("exchange2_r", 119, 120, false),
        ("xz_r", 81, 81, false),
        ("bwaves_r", 43, 44, false),
        ("cactuBSSN_r", 82, 82, false),
        ("namd_r", 68, 68, false),
        ("parest_r", 116, 117, false),
        ("povray_r", 71, 72, false),
        ("lbm_r", 116, 121, false),
        ("wrf_r", 66, 66, false),
        ("blender_r", 112, 160, false),
        ("cam4_r", 105, 106, false),
        ("imagick_r", 94, 95, false),
        ("nab_r", 68, 68, false),
        ("fotonik3d_r", 62, 63, false),
        ("roms_r", 97, 108, false),
        ("perlbench_s", 98, 98, false),
        ("gcc_s", 82, 82, false),
        ("mcf_s", 93, 96, false),
        ("omnetpp_s", 58, 58, false),
        ("xalancbmk_s", 41, 41, false),
        ("x264_s", 126, 127, false),
        ("deepsjeng_s", 128, 129, false),
        ("leela_s", 82, 82, false),
        ("exchange2_s", 71, 71, false),
        ("xz_s", 129, 130, false),
        ("lbm_s", 67, 70, false),
        ("wrf_s", 117, 118, false),
        ("3dsmax-06", 54, 55, false),
        ("catia-05", 136, 138, false),
        ("creo-02", 101, 104, false),
        ("energy-02", 113, 115, false),
        ("maya-05", 110, 112, false),
        ("medical-02", 66, 67, false),
        ("showcase-02", 42, 43, false),
        ("snx-03", 127, 136, false),
        ("sw-04", 56, 58, false),
        ("stream-copy", 48, 49, false),
        ("stream-scale", 82, 83, false),
        ("stream-add", 79, 81, false),
        ("stream-triad", 61, 62, false),
    ];
    let got = capture_fig5a();
    assert_eq!(got.len(), expected.len());
    for ((name, base, valk, term), (en, eb, ev, et)) in got.iter().zip(expected) {
        assert_eq!(name, en);
        assert_eq!(base, eb, "{name}: baseline epochs");
        assert_eq!(valk, ev, "{name}: valkyrie epochs");
        assert_eq!(term, et, "{name}: terminated");
    }
}

/// The Section V-C worked example through `simulate_response`, bit for bit:
/// the percentage-point reading gives the paper's ~79.6 % attack slowdown.
#[test]
fn analytic_rows_are_bit_identical_to_seed() {
    let expected: &[(&str, f64, f64)] = &[
        (
            "10 pp per unit of threat (percentage points)",
            79.26666666666668,
            33.00000000000001,
        ),
        (
            "x0.9 per unit of threat (multiplicative)",
            73.60471517217442,
            31.972543185164938,
        ),
        (
            "Eq. 8 scheduler weight (gamma = 0.1)",
            75.15850666666668,
            36.2252928,
        ),
    ];
    let got = capture_analytic();
    assert_eq!(got.len(), expected.len());
    for ((name, attack, fp), (en, ea, ef)) in got.iter().zip(expected) {
        assert_eq!(name, en);
        assert_eq!(
            attack.to_bits(),
            ea.to_bits(),
            "{name}: {attack:?} vs {ea:?}"
        );
        assert_eq!(fp.to_bits(), ef.to_bits(), "{name}: {fp:?} vs {ef:?}");
    }
}

/// Every data point of the four design-choice sweeps, bit for bit, and the
/// rendered `ablations::run()` report line for line.
#[test]
fn ablation_sweeps_are_bit_identical_to_seed() {
    #[allow(clippy::type_complexity)]
    let expected: &[(&str, &[(&str, f64, f64)])] = &[
        (
            "assessment functions Fp = Fc",
            &[
                ("incremental (x + 1)", 89.13333333333335, 81.375),
                ("linear (1.5x + 1)", 90.05000000000003, 81.63875),
                ("linear (x + 2)", 91.76666666666668, 81.821875),
                ("exponential (2ix + 1)", 91.43333333333335, 82.1325),
            ],
        ),
        (
            "actuator law",
            &[
                ("10 pp per threat unit", 89.13333333333335, 81.375),
                ("x0.9 per threat unit", 86.30235758608723, 81.31795144375),
                ("Eq. 8 weight (gamma 0.1)", 87.07925333333336, 81.368125),
                ("halve per increase", 92.61875000000002, 81.859375),
            ],
        ),
        (
            "measurement requirement N*",
            &[
                ("N* = 5", 39.80000000000001, 93.65104166666667),
                ("N* = 15", 79.26666666666668, 90.88020833333334),
                ("N* = 30", 89.13333333333335, 84.47916666666669),
                ("N* = 60", 94.06666666666669, 73.38020833333333),
                ("N* = 120", 96.53333333333335, 49.54427083333333),
            ],
        ),
        (
            "minimum resource share (slowdown bound)",
            &[
                ("floor = 1%", 89.13333333333335, 81.375),
                ("floor = 5%", 85.66666666666669, 81.375),
                ("floor = 10%", 81.33333333333334, 81.375),
                ("floor = 25%", 68.33333333333333, 81.375),
                ("floor = 50%", 46.33333333333333, 81.35),
            ],
        ),
    ];
    let got = capture_ablations();
    assert_eq!(got.len(), expected.len());
    for ((name, rows), (en, erows)) in got.iter().zip(expected) {
        assert_eq!(name, en);
        assert_eq!(rows.len(), erows.len(), "{name}");
        for ((config, attack, fp), (ec, ea, ef)) in rows.iter().zip(erows.iter()) {
            assert_eq!(config, ec, "{name}");
            assert_eq!(
                attack.to_bits(),
                ea.to_bits(),
                "{name}/{config}: {attack:?} vs {ea:?}"
            );
            assert_eq!(
                fp.to_bits(),
                ef.to_bits(),
                "{name}/{config}: {fp:?} vs {ef:?}"
            );
        }
    }

    let expected_report = [
        "Design-choice ablations (Section V-C slowdown model; attack = flagged",
        "every epoch until N*, benign = flagged in 10% of epochs)",
        "",
        "Ablation — assessment functions Fp = Fc",
        "",
        "Fp / Fc                attack slowdown  FP slowdown (10% FP)  ",
        "--------------------------------------------------------------",
        "incremental (x + 1)    89.1%            81.4%                 ",
        "linear (1.5x + 1)      90.1%            81.6%                 ",
        "linear (x + 2)         91.8%            81.8%                 ",
        "exponential (2ix + 1)  91.4%            82.1%                 ",
        "",
        "Ablation — actuator law",
        "",
        "law                       attack slowdown  FP slowdown (10% FP)  ",
        "-----------------------------------------------------------------",
        "10 pp per threat unit     89.1%            81.4%                 ",
        "x0.9 per threat unit      86.3%            81.3%                 ",
        "Eq. 8 weight (gamma 0.1)  87.1%            81.4%                 ",
        "halve per increase        92.6%            81.9%                 ",
        "",
        "Ablation — measurement requirement N*",
        "",
        "N*        attack slowdown  FP slowdown (10% FP)  ",
        "-------------------------------------------------",
        "N* = 5    39.8%            93.7%                 ",
        "N* = 15   79.3%            90.9%                 ",
        "N* = 30   89.1%            84.5%                 ",
        "N* = 60   94.1%            73.4%                 ",
        "N* = 120  96.5%            49.5%                 ",
        "",
        "Ablation — minimum resource share (slowdown bound)",
        "",
        "floor        attack slowdown  FP slowdown (10% FP)  ",
        "----------------------------------------------------",
        "floor = 1%   89.1%            81.4%                 ",
        "floor = 5%   85.7%            81.4%                 ",
        "floor = 10%  81.3%            81.4%                 ",
        "floor = 25%  68.3%            81.4%                 ",
        "floor = 50%  46.3%            81.3%                 ",
        "",
        "",
    ];
    let report = x::ablations::run();
    let got: Vec<&str> = report.split('\n').collect();
    assert_eq!(got, expected_report);
}

/// The evasion study at the smoke config, bit for bit: every swept
/// strategy's trial means and the penalty-hardening sweep.
#[test]
fn evasion_smoke_rows_are_bit_identical_to_seed() {
    #[allow(clippy::type_complexity)]
    let expected: &[(&str, f64, f64, f64, f64, f64)] = &[
        (
            "always active",
            4.153333333333328,
            50.0,
            91.69333333333334,
            100.0,
            31.0,
        ),
        (
            "duty cycle 1 on / 1 off",
            3.986666666666666,
            25.0,
            84.05333333333334,
            100.0,
            31.0,
        ),
        (
            "duty cycle 1 on / 3 off",
            4.236666666666666,
            13.0,
            67.41025641025642,
            100.0,
            33.0,
        ),
        (
            "duty cycle 3 on / 1 off",
            4.779999999999997,
            38.0,
            87.42105263157896,
            100.0,
            31.0,
        ),
        (
            "sprint 15 epochs",
            3.1066666666666642,
            15.0,
            79.2888888888889,
            66.66666666666667,
            39.0,
        ),
        (
            "sawtooth (resume at 95% share)",
            5.786666666666666,
            35.0,
            83.46666666666667,
            100.0,
            31.333333333333332,
        ),
        (
            "sawtooth (resume at 70% share)",
            6.253333333333331,
            36.0,
            82.62962962962963,
            100.0,
            31.333333333333332,
        ),
    ];
    let expected_hardening: &[(&str, f64)] = &[
        ("incremental (x + 1)", 6.253333333333331),
        ("linear (1.5x + 1)", 3.536666666666665),
        ("linear (x + 3)", 3.2333333333333325),
        ("exponential (2ix + 1)", 3.6366666666666645),
    ];
    let r = capture_evasion();
    assert_eq!(r.duty_cycle.len(), expected.len());
    for (row, &(name, ep, eu, es, et, ee)) in r.duty_cycle.iter().zip(expected) {
        assert_eq!(row.strategy, name);
        for (what, g, e) in [
            ("progress", row.progress, ep),
            ("unimpeded", row.unimpeded, eu),
            ("slowdown", row.slowdown_pct, es),
            ("terminated", row.terminated_pct, et),
            ("kill epoch", row.mean_termination_epoch, ee),
        ] {
            assert_eq!(g.to_bits(), e.to_bits(), "{name}: {what} {g:?} vs {e:?}");
        }
    }
    assert_eq!(r.hardening.len(), expected_hardening.len());
    for ((name, prog), (en, ep)) in r.hardening.iter().zip(expected_hardening) {
        assert_eq!(name, en);
        assert_eq!(prog.to_bits(), ep.to_bits(), "{name}: {prog:?} vs {ep:?}");
    }
}

/// The quantified Table I at the smoke config, bit for bit: every baseline
/// policy, the migration baselines and Valkyrie on identical traces, plus
/// the rowhammer flip counts.
#[test]
fn responses_smoke_rows_are_bit_identical_to_seed() {
    let expected: &[(&str, f64, f64, f64)] = &[
        ("warning only", 100.0, 0.0, 0.0),
        ("terminate on 1st detection", 0.0, 100.0, 63.75),
        (
            "terminate on 3 consecutive",
            3.3333333333333335,
            80.0,
            47.75,
        ),
        ("priority reduction (50%)", 50.0, 0.0, 31.875),
        ("core migration", 47.999999999999964, 0.0, 3.600000000000006),
        (
            "system migration",
            17.33333333333333,
            0.0,
            6.2999999999999945,
        ),
        ("valkyrie", 6.44999999999999, 0.0, 4.6599999999999975),
    ];
    let expected_rowhammer: &[(&str, u64)] = &[
        ("warning only", 29),
        ("DRAM refresh (ANVIL)", 0),
        ("valkyrie", 0),
    ];
    let r = capture_responses();
    assert_eq!(r.rows.len(), expected.len());
    for (row, &(policy, ea, ek, es)) in r.rows.iter().zip(expected) {
        assert_eq!(row.policy, policy);
        for (what, g, e) in [
            ("attack progress", row.attack_progress_pct, ea),
            ("benign killed", row.benign_killed_pct, ek),
            ("benign slowdown", row.benign_slowdown_pct, es),
        ] {
            assert_eq!(g.to_bits(), e.to_bits(), "{policy}: {what} {g:?} vs {e:?}");
        }
    }
    let rowhammer: Vec<(&str, u64)> = r.rowhammer.iter().map(|(p, f)| (p.as_str(), *f)).collect();
    assert_eq!(rowhammer, expected_rowhammer);
}

/// Fig. 5b on the quick Fig. 5a rows, bit for bit: Valkyrie against the
/// core- and system-migration baselines and the 3-consecutive rule.
#[test]
fn fig5b_quick_averages_are_bit_identical_to_seed() {
    let r = capture_fig5b();
    for (what, g, e) in [
        ("valkyrie", r.valkyrie_avg, 2.00063121910524),
        ("core migration", r.core_migration_avg, 2.6968161012471823),
        ("system migration", r.system_migration_avg, 8.56025926637736),
        (
            "consecutive kill fraction",
            r.consecutive_kill_frac,
            0.025974025974025976,
        ),
    ] {
        assert_eq!(g.to_bits(), f64::to_bits(e), "{what}: {g:?} vs {e:?}");
    }
}

/// The rendered Table I survey, line for line.
#[test]
fn table1_report_is_identical_to_seed() {
    let expected = [
        "Table I — existing post-detection responses (v = satisfied, ~ = partial, x = not)",
        "",
        "Post-detection response                       Paper                   R1  R2  False positives reported    ",
        "----------------------------------------------------------------------------------------------------------",
        "Not specified                                 Alam et al. [12]        x   x   5-7%                        ",
        "Not specified                                 Briongos et al. [19]    x   x   1.6-4.3%                    ",
        "Not specified                                 Chiapetta et al. [23]   x   x   Not reported                ",
        "Not specified                                 Gulmezoglu et al. [32]  x   x   0.21%                       ",
        "Not specified                                 Mushtaq et al. [46]     x   x   1-30%                       ",
        "Not specified                                 Mushtaq et al. [47]     x   x   5%                          ",
        "Not specified                                 Wang et al. [64]        x   x   up to 13.6%                 ",
        "Not specified                                 Karapoola et al. [33]   x   x   0.01%                       ",
        "Not specified                                 Ahmed et al. [10]       x   x   0.58%                       ",
        "Not specified                                 Vig et al. [63]         x   x   1%                          ",
        "Not specified                                 Pott et al. [56]        x   x   0.2%                        ",
        "Not specified                                 Tahir et al. [61]       x   x   0.25%                       ",
        "Not specified                                 Mani et al. [40]        x   x   0.2-3.8%                    ",
        "Warning                                       Kulah et al. [38]       ~   x   Not reported                ",
        "Migration                                     Zhang et al. [69]       v   ~   Not reported                ",
        "Migration                                     Nomani et al. [49]      v   ~   Not reported                ",
        "Termination                                   Mushtaq et al. [48]     v   x   1-3%                        ",
        "Termination                                   Payer [53]              v   x   Not reported                ",
        "DRAM responses                                Aweke et al. [14]       v   v   1%                          ",
        "DRAM responses                                Yaglikci et al. [65]    v   v   0.01%                       ",
        "Systematic throttling + eventual termination  Valkyrie (this paper)   v   v   Same as augmented detector  ",
        "",
    ];
    let report = x::table1::run();
    let got: Vec<&str> = report.split('\n').collect();
    assert_eq!(got, expected);
}
