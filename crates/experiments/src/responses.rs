//! Quantifying Table I: every post-detection response strategy replayed on
//! identical detector traces.
//!
//! The paper's Table I grades response strategies *qualitatively* against
//! R1 (throttle attacks) and R2 (spare false positives). This experiment
//! makes the grades measurable: each policy replays
//!
//! * an **attack trace** — a time-progressive attack flagged with the
//!   detector's true-positive rate each epoch — reporting the attack
//!   progress the policy permits (R1: lower is better), and
//! * an ensemble of **benign traces** — reporting the wrongful-termination
//!   probability and the mean slowdown of the surviving work (R2: both
//!   lower is better).
//!
//! Two modelling choices matter and are deliberate:
//!
//! 1. **Benign false positives are bursty.** Real HPC detectors misfire on
//!    program *phases* (the paper's `blender_r` is flagged in 30 % of its
//!    epochs), so benign traces come from a two-state Markov chain whose
//!    bursts persist for a few epochs. This is exactly the regime in which
//!    Mushtaq et al.'s three-consecutive rule keeps killing benign
//!    processes (the paper reports it only improved wrongful terminations
//!    from 5 % to "under 3 %", and calls the choice of `k` arbitrary).
//! 2. **Valkyrie's terminable verdict uses accumulated evidence.** Per
//!    Section IV-A / Fig. 1, efficacy improves with measurements: the
//!    verdict at `N*` is drawn at the detector's *N\*-measurement* rates
//!    (`verdict_tpr`/`verdict_fpr`), not its per-epoch rates — that is the
//!    entire point of waiting for `N*`. Baseline policies cannot benefit
//!    because they act on raw per-epoch inferences.
//!
//! A second table replays the rowhammer-specific DRAM-refresh response
//! (ANVIL / BlockHammer) to show why it earns its Table I checkmarks — and
//! why they do not generalise beyond rowhammer.

use crate::baselines::{
    BaselineOutcome, ConsecutiveTermination, DramRefresh, PriorityReduction, WarningOnly,
};
use crate::harness::{pct, TextTable};
use crate::migration::{migration_progress, MigrationPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use valkyrie_core::{
    slowdown_percent, Action, AssessmentFn, Classification, EngineConfig, ProcessId, ProcessState,
    ShardedEngine, ShareActuator,
};

/// Detector quality and workload shape shared by all policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponsesConfig {
    /// Per-epoch probability that the attack is flagged.
    pub tpr: f64,
    /// Probability a benign process enters a false-positive burst.
    pub burst_enter: f64,
    /// Probability a false-positive burst ends each epoch.
    pub burst_exit: f64,
    /// Flag probability inside a burst (outside a burst it is zero).
    pub burst_flag: f64,
    /// Verdict-time true-positive rate (efficacy after `N*` measurements).
    pub verdict_tpr: f64,
    /// Verdict-time false-positive rate (efficacy after `N*` measurements).
    pub verdict_fpr: f64,
    /// Attack observation horizon, in epochs.
    pub attack_epochs: usize,
    /// Benign process lifetime, in epochs.
    pub benign_epochs: usize,
    /// Number of independent benign processes (seeds).
    pub benign_trials: u64,
    /// Valkyrie's measurement requirement.
    pub n_star: u64,
}

impl Default for ResponsesConfig {
    /// The Section VI-A operating point: a deliberately simple detector,
    /// ~4 % marginal FP epochs arriving in bursts (mean length 4), 90 %
    /// per-epoch TPR, and Fig. 1-grade verdict efficacy after `N* = 30`
    /// measurements.
    fn default() -> Self {
        Self {
            tpr: 0.90,
            burst_enter: 0.012,
            burst_exit: 0.25,
            burst_flag: 0.90,
            verdict_tpr: 0.995,
            verdict_fpr: 0.005,
            attack_epochs: 60,
            benign_epochs: 300,
            benign_trials: 40,
            n_star: 30,
        }
    }
}

impl ResponsesConfig {
    /// Marginal per-epoch false-positive rate implied by the burst model.
    pub fn marginal_fpr(&self) -> f64 {
        let burst_fraction = self.burst_enter / (self.burst_enter + self.burst_exit);
        burst_fraction * self.burst_flag
    }
}

/// One policy's measured R1/R2 numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// Policy name as shown in Table I.
    pub policy: String,
    /// Attack progress permitted, % of unimpeded (R1; lower is better).
    pub attack_progress_pct: f64,
    /// Probability a benign process is wrongfully terminated (R2).
    pub benign_killed_pct: f64,
    /// Mean benign slowdown across trials, termination included as lost
    /// progress (R2).
    pub benign_slowdown_pct: f64,
}

/// Structured result of the comparison.
#[derive(Debug, Clone)]
pub struct ResponsesResult {
    /// Per-policy measurements.
    pub rows: Vec<PolicyRow>,
    /// Rowhammer-specific comparison rows (policy, flips permitted).
    pub rowhammer: Vec<(String, u64)>,
    /// Rendered report.
    pub report: String,
}

/// Independent per-epoch flags (the attack's detection stream).
fn iid_trace(epochs: usize, flag_rate: f64, seed: u64) -> Vec<Classification> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..epochs)
        .map(|_| {
            if rng.gen::<f64>() < flag_rate {
                Classification::Malicious
            } else {
                Classification::Benign
            }
        })
        .collect()
}

/// Bursty false positives: a two-state Markov chain over program phases.
fn bursty_trace(epochs: usize, cfg: &ResponsesConfig, seed: u64) -> Vec<Classification> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut in_burst = false;
    (0..epochs)
        .map(|_| {
            in_burst = if in_burst {
                rng.gen::<f64>() >= cfg.burst_exit
            } else {
                rng.gen::<f64>() < cfg.burst_enter
            };
            if in_burst && rng.gen::<f64>() < cfg.burst_flag {
                Classification::Malicious
            } else {
                Classification::Benign
            }
        })
        .collect()
}

/// Progress fraction (0–100 %) from a per-epoch progress series.
fn progress_pct(progress: &[f64]) -> f64 {
    if progress.is_empty() {
        return 0.0;
    }
    100.0 * progress.iter().sum::<f64>() / progress.len() as f64
}

struct PolicyEval {
    progress: Vec<f64>,
    terminated: bool,
}

impl From<BaselineOutcome> for PolicyEval {
    fn from(out: BaselineOutcome) -> Self {
        Self {
            terminated: out.terminated_at.is_some(),
            progress: out.progress,
        }
    }
}

/// Cyclic-monitoring Valkyrie engine configuration shared by the fleet
/// evaluator (the Section VI-A operating point).
fn valkyrie_config(n_star: u64) -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(n_star)
        .penalty(AssessmentFn::incremental())
        .compensation(AssessmentFn::incremental())
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .cyclic(true)
        .build()
        .expect("valid valkyrie config")
}

/// Replays a whole fleet of traces through one cyclic-monitoring
/// [`ShardedEngine`], one epoch per batch; terminable verdicts are drawn
/// from `verdict_traces` (the `N*`-measurement-grade inference streams)
/// instead of the per-epoch streams.
///
/// Process `i` replays `epoch_traces[i]`; traces may differ in length
/// across processes, but each process's verdict trace must cover its
/// epoch trace (a verdict can be drawn at any epoch).
/// Results are identical to replaying each trace alone (the sharding
/// tier's equivalence guarantee), but the engine answers each epoch in a
/// single batch — the experiments layer drives the same API a production
/// embedder would.
fn valkyrie_eval_fleet(
    epoch_traces: &[&[Classification]],
    verdict_traces: &[&[Classification]],
    n_star: u64,
    shards: usize,
) -> Vec<PolicyEval> {
    assert_eq!(epoch_traces.len(), verdict_traces.len());
    for (epochs, verdicts) in epoch_traces.iter().zip(verdict_traces) {
        assert!(
            verdicts.len() >= epochs.len(),
            "verdict trace shorter than epoch trace ({} < {})",
            verdicts.len(),
            epochs.len()
        );
    }
    let mut engine =
        ShardedEngine::with_capacity(valkyrie_config(n_star), shards, epoch_traces.len());
    let mut evals: Vec<PolicyEval> = epoch_traces
        .iter()
        .map(|t| PolicyEval {
            progress: Vec::with_capacity(t.len()),
            terminated: false,
        })
        .collect();
    // Per-process state and CPU share mirrored from each tick's responses,
    // so the driver never issues per-pid `engine.state()`/`resources()`
    // queries (two hash lookups per process, every epoch).
    let mut states: Vec<Option<ProcessState>> = vec![None; epoch_traces.len()];
    let mut cpu_shares: Vec<f64> = vec![1.0; epoch_traces.len()];
    let horizon = epoch_traces.iter().map(|t| t.len()).max().unwrap_or(0);
    let mut batch: Vec<(ProcessId, Classification)> = Vec::with_capacity(epoch_traces.len());
    let mut live: Vec<usize> = Vec::with_capacity(epoch_traces.len());
    for epoch in 0..horizon {
        batch.clear();
        live.clear();
        for (i, trace) in epoch_traces.iter().enumerate() {
            if epoch >= trace.len() {
                continue;
            }
            if evals[i].terminated {
                evals[i].progress.push(0.0);
                continue;
            }
            let pid = ProcessId(i as u64);
            // Work achieved this epoch is the CPU share enforced so far
            // (full before the first observation).
            evals[i].progress.push(cpu_shares[i]);
            let inference = if states[i] == Some(ProcessState::Terminable) {
                verdict_traces[i][epoch]
            } else {
                trace[epoch]
            };
            batch.push((pid, inference));
            live.push(i);
        }
        for (resp, &i) in engine.observe_batch(&batch).iter().zip(&live) {
            states[i] = Some(resp.state);
            cpu_shares[i] = resp.resources.cpu;
            if resp.action == Action::Terminate {
                evals[i].terminated = true;
            }
        }
    }
    evals
}

/// Single-trace convenience over [`valkyrie_eval_fleet`].
fn valkyrie_eval(
    epoch_trace: &[Classification],
    verdicts: &[Classification],
    n_star: u64,
) -> PolicyEval {
    valkyrie_eval_fleet(&[epoch_trace], &[verdicts], n_star, 1).remove(0)
}

fn evaluate(
    policy: &str,
    inferences: &[Classification],
    verdicts: &[Classification],
    cfg: &ResponsesConfig,
) -> PolicyEval {
    match policy {
        "warning only" => WarningOnly.run(inferences).into(),
        "terminate on 1st detection" => ConsecutiveTermination::new(1).run(inferences).into(),
        "terminate on 3 consecutive" => ConsecutiveTermination::new(3).run(inferences).into(),
        "priority reduction (50%)" => PriorityReduction::new(0.5).run(inferences).into(),
        "core migration" => PolicyEval {
            progress: migration_progress(inferences, MigrationPolicy::core_migration()),
            terminated: false,
        },
        "system migration" => PolicyEval {
            progress: migration_progress(inferences, MigrationPolicy::system_migration()),
            terminated: false,
        },
        "valkyrie" => valkyrie_eval(inferences, verdicts, cfg.n_star),
        other => unreachable!("unknown policy {other}"),
    }
}

/// All policies in Table I order.
pub const POLICIES: [&str; 7] = [
    "warning only",
    "terminate on 1st detection",
    "terminate on 3 consecutive",
    "priority reduction (50%)",
    "core migration",
    "system migration",
    "valkyrie",
];

/// Runs the quantified Table I comparison.
pub fn run(cfg: &ResponsesConfig) -> ResponsesResult {
    let attack_trace = iid_trace(cfg.attack_epochs, cfg.tpr, 0x7A6B);
    let attack_verdicts = iid_trace(cfg.attack_epochs, cfg.verdict_tpr, 0x7A6C);

    let benign_traces: Vec<Vec<Classification>> = (0..cfg.benign_trials)
        .map(|s| bursty_trace(cfg.benign_epochs, cfg, 0xBE9 + s))
        .collect();
    let benign_verdicts: Vec<Vec<Classification>> = (0..cfg.benign_trials)
        .map(|s| iid_trace(cfg.benign_epochs, cfg.verdict_fpr, 0x5EED + s))
        .collect();

    let mut rows = Vec::new();
    for policy in POLICIES {
        let attack = evaluate(policy, &attack_trace, &attack_verdicts, cfg);
        // The valkyrie policy replays every benign process concurrently
        // through one sharded engine, one epoch per batch — the baselines
        // act on raw per-process streams and are replayed one by one.
        let benign_evals: Vec<PolicyEval> = if policy == "valkyrie" {
            let traces: Vec<&[Classification]> = benign_traces.iter().map(Vec::as_slice).collect();
            let verdicts: Vec<&[Classification]> =
                benign_verdicts.iter().map(Vec::as_slice).collect();
            valkyrie_eval_fleet(&traces, &verdicts, cfg.n_star, 4)
        } else {
            benign_traces
                .iter()
                .zip(&benign_verdicts)
                .map(|(trace, verdicts)| evaluate(policy, trace, verdicts, cfg))
                .collect()
        };
        let mut killed = 0u64;
        let mut slowdown_sum = 0.0;
        for (trace, eval) in benign_traces.iter().zip(&benign_evals) {
            if eval.terminated {
                killed += 1;
            }
            let baseline = vec![1.0; trace.len()];
            slowdown_sum += slowdown_percent(&baseline, &eval.progress);
        }
        rows.push(PolicyRow {
            policy: policy.to_string(),
            attack_progress_pct: progress_pct(&attack.progress),
            benign_killed_pct: 100.0 * killed as f64 / cfg.benign_trials as f64,
            benign_slowdown_pct: slowdown_sum / cfg.benign_trials as f64,
        });
    }

    // Rowhammer-specific: how many flips does each response permit? The
    // DIMM flips after 29 consecutive un-refreshed hammer epochs (the
    // paper's measured rate); the attack hammers every epoch.
    let hammer_epochs = 864;
    let hammer_trace = iid_trace(hammer_epochs, cfg.tpr, 0xD1);
    let hammer_verdicts = iid_trace(hammer_epochs, cfg.verdict_tpr, 0xD2);
    let flip_threshold = 29;
    let refresh = DramRefresh::new(flip_threshold).run(&hammer_trace);
    let warn_flips = (hammer_epochs as u32 / flip_threshold) as u64;
    let valk = valkyrie_eval(&hammer_trace, &hammer_verdicts, cfg.n_star);
    // Hammer progress accumulates CPU share; a flip needs 29 epoch-units.
    let valk_flips = (valk.progress.iter().sum::<f64>() / f64::from(flip_threshold)) as u64;
    let rowhammer = vec![
        ("warning only".to_string(), warn_flips),
        ("DRAM refresh (ANVIL)".to_string(), refresh.flips),
        ("valkyrie".to_string(), valk_flips),
    ];

    let mut t = TextTable::new(vec![
        "response policy",
        "attack progress (R1)",
        "benign killed (R2)",
        "benign slowdown (R2)",
    ]);
    for r in &rows {
        t.row(vec![
            r.policy.clone(),
            pct(r.attack_progress_pct),
            pct(r.benign_killed_pct),
            pct(r.benign_slowdown_pct),
        ]);
    }
    let mut rh = TextTable::new(vec!["response policy", "bit flips permitted"]);
    for (p, flips) in &rowhammer {
        rh.row(vec![p.clone(), flips.to_string()]);
    }
    let report = format!(
        "Table I, quantified — per-epoch TPR {:.0}%, bursty FPs (marginal {:.1}%), \
         verdict efficacy {:.1}%/{:.1}%, N* = {}\n\
         (attack: {} epochs; benign: {} processes x {} epochs)\n\n{}\n\
         Rowhammer-specific responses ({} hammer epochs, flip threshold {}):\n\n{}",
        cfg.tpr * 100.0,
        cfg.marginal_fpr() * 100.0,
        cfg.verdict_tpr * 100.0,
        cfg.verdict_fpr * 100.0,
        cfg.n_star,
        cfg.attack_epochs,
        cfg.benign_trials,
        cfg.benign_epochs,
        t.render(),
        hammer_epochs,
        flip_threshold,
        rh.render()
    );

    ResponsesResult {
        rows,
        rowhammer,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ResponsesConfig {
        ResponsesConfig {
            benign_trials: 10,
            benign_epochs: 150,
            ..ResponsesConfig::default()
        }
    }

    fn row<'a>(r: &'a ResponsesResult, policy: &str) -> &'a PolicyRow {
        r.rows.iter().find(|x| x.policy == policy).unwrap()
    }

    #[test]
    fn marginal_fpr_matches_burst_parameters() {
        let cfg = ResponsesConfig::default();
        let m = cfg.marginal_fpr();
        assert!((0.03..0.06).contains(&m), "marginal FPR {m}");
    }

    #[test]
    fn warning_only_fails_r1_but_satisfies_r2() {
        let r = run(&quick());
        let w = row(&r, "warning only");
        assert_eq!(w.attack_progress_pct, 100.0);
        assert_eq!(w.benign_killed_pct, 0.0);
        assert_eq!(w.benign_slowdown_pct, 0.0);
    }

    #[test]
    fn immediate_termination_kills_most_benign_processes() {
        let r = run(&quick());
        let t1 = row(&r, "terminate on 1st detection");
        assert!(t1.attack_progress_pct < 10.0, "{}", t1.attack_progress_pct);
        assert!(t1.benign_killed_pct > 50.0, "{}", t1.benign_killed_pct);
    }

    #[test]
    fn three_consecutive_still_kills_under_bursty_false_positives() {
        // The paper's critique of Mushtaq et al.: k-consecutive reduces but
        // does not fix wrongful terminations, because real FPs are bursty.
        let r = run(&quick());
        let t1 = row(&r, "terminate on 1st detection");
        let t3 = row(&r, "terminate on 3 consecutive");
        assert!(t3.benign_killed_pct <= t1.benign_killed_pct);
        assert!(
            t3.benign_killed_pct > 20.0,
            "bursty FPs should still defeat k=3: {}",
            t3.benign_killed_pct
        );
    }

    #[test]
    fn priority_reduction_lets_the_attack_run_forever() {
        let r = run(&quick());
        let p = row(&r, "priority reduction (50%)");
        // R1 fails: the attack keeps ~50% progress rate endlessly.
        assert!(p.attack_progress_pct > 45.0);
        assert_eq!(p.benign_killed_pct, 0.0);
    }

    #[test]
    fn valkyrie_throttles_the_attack_and_spares_benign_work() {
        let r = run(&quick());
        let v = row(&r, "valkyrie");
        assert!(v.attack_progress_pct < 35.0, "{}", v.attack_progress_pct);
        // Wrongful terminations collapse to the verdict FPR per cycle —
        // an order of magnitude below the termination baselines.
        let t1 = row(&r, "terminate on 1st detection");
        let t3 = row(&r, "terminate on 3 consecutive");
        assert!(v.benign_killed_pct < t3.benign_killed_pct);
        assert!(v.benign_killed_pct < t1.benign_killed_pct);
        assert!(v.benign_killed_pct <= 10.0, "{}", v.benign_killed_pct);
        assert!(v.benign_slowdown_pct < 25.0, "{}", v.benign_slowdown_pct);
    }

    #[test]
    fn no_baseline_meets_both_requirements_simultaneously() {
        let r = run(&quick());
        let v = row(&r, "valkyrie");
        let competitors = r
            .rows
            .iter()
            .filter(|x| x.policy != "valkyrie")
            .filter(|x| {
                x.attack_progress_pct <= v.attack_progress_pct + 1e-9
                    && x.benign_killed_pct <= v.benign_killed_pct + 1e-9
                    && x.benign_slowdown_pct <= v.benign_slowdown_pct + 1e-9
            })
            .count();
        assert_eq!(competitors, 0, "a baseline dominated valkyrie");
    }

    #[test]
    fn dram_refresh_prevents_flips_but_valkyrie_matches_it() {
        let r = run(&quick());
        let flips = |name: &str| {
            r.rowhammer
                .iter()
                .find(|(p, _)| p.contains(name))
                .unwrap()
                .1
        };
        assert!(flips("warning") >= 29);
        assert_eq!(flips("ANVIL"), 0);
        // Valkyrie terminates the hammer before it accumulates one flip.
        assert!(flips("valkyrie") <= 1);
    }

    #[test]
    fn batched_fleet_eval_is_equivalent_to_isolated_replays() {
        let cfg = quick();
        let traces: Vec<Vec<Classification>> = (0..6)
            .map(|s| bursty_trace(120, &cfg, 0xF1EE7 + s))
            .collect();
        let verdicts: Vec<Vec<Classification>> = (0..6)
            .map(|s| iid_trace(120, cfg.verdict_fpr, 0xF1F + s))
            .collect();
        let trace_refs: Vec<&[Classification]> = traces.iter().map(Vec::as_slice).collect();
        let verdict_refs: Vec<&[Classification]> = verdicts.iter().map(Vec::as_slice).collect();
        let fleet = valkyrie_eval_fleet(&trace_refs, &verdict_refs, cfg.n_star, 7);
        for (i, eval) in fleet.iter().enumerate() {
            let alone = valkyrie_eval(&traces[i], &verdicts[i], cfg.n_star);
            assert_eq!(eval.terminated, alone.terminated, "trial {i}");
            assert_eq!(eval.progress, alone.progress, "trial {i}");
        }
    }

    #[test]
    fn report_renders_every_policy() {
        let r = run(&quick());
        for p in POLICIES {
            assert!(r.report.contains(p), "missing {p}");
        }
        assert!(r.report.contains("ANVIL"));
    }
}
