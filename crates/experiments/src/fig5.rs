//! Fig. 5 — false-positive slowdowns on benign benchmarks.
//!
//! * Fig. 5a: every roster benchmark runs to completion behind Valkyrie and
//!   the statistical detector (cyclic monitoring, majority verdicts at
//!   `N*`); the slowdown is the relative increase in completion time.
//! * Fig. 5b: the same false-positive traces handled by the migration
//!   baselines (CPU-core migration, system/VM migration) for comparison.

use crate::baselines::ConsecutiveTermination;
use crate::harness::{geo_mean_pct, mean, pct, TextTable};
use crate::migration::{migration_progress, MigrationPolicy};
use crate::scenario::{AugmentedRun, CpuLever, ScenarioConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use valkyrie_core::{AssessmentFn, Classification, EngineConfig, ShareActuator};
use valkyrie_detect::{StatisticalDetector, VotingDetector};
use valkyrie_sim::machine::Machine;
use valkyrie_sim::Platform;
use valkyrie_workloads::{
    multithreaded_roster, roster, spawn_team, BenchmarkSpec, BenchmarkWorkload,
};

/// Fig. 5 parameters.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Measurements per monitoring cycle (`N*`).
    pub n_star: u64,
    /// Detector threshold in σ.
    pub threshold: f64,
    /// Divide nominal benchmark runtimes by this factor (test speed-up).
    pub runtime_divisor: u64,
    /// Platform (Fig. 5a uses the i7-3770, the paper's 1 %-geo-mean box).
    pub platform: Platform,
    /// Multiplier on each benchmark's burst propensity (platform noise).
    pub burst_scale: f64,
    /// Include the multi-threaded roster.
    pub multithreaded: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Self {
            n_star: 40,
            threshold: 4.0,
            runtime_divisor: 1,
            platform: Platform::i7_3770(),
            burst_scale: 1.0,
            multithreaded: true,
            seed: 0xF165,
        }
    }
}

impl Fig5Config {
    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        Self {
            runtime_divisor: 5,
            multithreaded: false,
            ..Self::default()
        }
    }
}

/// One benchmark's measured slowdown.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownRow {
    /// Benchmark name.
    pub name: String,
    /// Suite label.
    pub suite: &'static str,
    /// Completion epochs without Valkyrie.
    pub baseline_epochs: u64,
    /// Completion epochs with Valkyrie.
    pub valkyrie_epochs: u64,
    /// Slowdown in percent.
    pub slowdown_pct: f64,
    /// True if the process was (wrongly) terminated instead of finishing.
    pub terminated: bool,
}

/// Fig. 5a result.
#[derive(Debug, Clone)]
pub struct Fig5aResult {
    /// Single-threaded rows.
    pub rows: Vec<SlowdownRow>,
    /// Multi-threaded rows.
    pub mt_rows: Vec<SlowdownRow>,
    /// Rendered report.
    pub report: String,
}

fn detector(config: &Fig5Config) -> VotingDetector<StatisticalDetector> {
    // The fit is a pure function of {seed, threshold}; Fig. 5 builds one
    // detector per benchmark (77 of them), so cache the fitted inner and
    // hand each run a cheap clone with fresh vote state.
    let inner = crate::cache::get_or_build(
        crate::cache::CacheKey::new("fig5-statistical")
            .with(config.seed ^ 0xBA5E)
            .with_f64(config.threshold),
        || {
            let baseline = crate::fig4::benign_baseline(config.seed ^ 0xBA5E);
            StatisticalDetector::fit_normalized(&baseline, config.threshold)
        },
    );
    VotingDetector::new((*inner).clone(), config.n_star)
}

fn engine(config: &Fig5Config) -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(config.n_star)
        .penalty(AssessmentFn::incremental())
        .compensation(AssessmentFn::incremental())
        .actuator(ShareActuator::scheduler_weight(0.1, 0.01))
        .cyclic(true)
        .build()
        .expect("static config is valid")
}

fn scaled_spec(spec: &BenchmarkSpec, config: &Fig5Config) -> BenchmarkSpec {
    let mut s = spec.clone();
    s.epochs_to_complete = (s.epochs_to_complete / config.runtime_divisor).max(40);
    s.burst_prob = (s.burst_prob * config.burst_scale).min(0.9);
    s
}

/// Measures one single-threaded benchmark's completion time with Valkyrie.
fn run_single(spec: &BenchmarkSpec, config: &Fig5Config, seed: u64) -> SlowdownRow {
    let machine = Machine::new(config.platform.machine_config(seed));
    let mut run = AugmentedRun::new(
        machine,
        engine(config),
        detector(config),
        ScenarioConfig {
            cpu_lever: CpuLever::CgroupQuota,
            window: config.n_star as usize * 3,
            shards: 1,
            ..ScenarioConfig::default()
        },
    );
    let pid = run
        .machine_mut()
        .spawn(Box::new(BenchmarkWorkload::new(spec.clone())));
    run.watch(pid);
    let baseline = spec.epochs_to_complete;
    let cap = baseline * 8;
    let mut epochs = 0;
    while epochs < cap && !run.machine().is_completed(pid) && run.machine().is_alive(pid) {
        run.step_ref();
        epochs += 1;
    }
    let terminated = !run.machine().is_alive(pid) && !run.machine().is_completed(pid);
    SlowdownRow {
        name: spec.name.to_string(),
        suite: spec.suite.label(),
        baseline_epochs: baseline,
        valkyrie_epochs: epochs,
        slowdown_pct: (epochs as f64 / baseline as f64 - 1.0) * 100.0,
        terminated,
    }
}

/// Measures one multi-threaded team's completion time with Valkyrie.
///
/// Teams use the scheduler-weight lever: the four threads contend with each
/// other, so Eq. 8 weight scaling genuinely shifts CPU time away from a
/// flagged thread — and the barrier makes the whole team wait for it.
fn run_team(spec: &BenchmarkSpec, config: &Fig5Config, seed: u64) -> SlowdownRow {
    // Baseline: the team without Valkyrie.
    let mut m = Machine::new(config.platform.machine_config(seed));
    let team = spawn_team(&mut m, spec);
    let cap = spec.epochs_to_complete * spec.threads as u64 * 8;
    let mut baseline = 0;
    let mut reports = Vec::new();
    while baseline < cap && !team.is_completed() {
        m.run_epoch_into(&mut reports);
        baseline += 1;
    }

    // With Valkyrie.
    let machine = Machine::new(config.platform.machine_config(seed ^ 0x2));
    let mut run = AugmentedRun::new(
        machine,
        engine(config),
        detector(config),
        ScenarioConfig {
            cpu_lever: CpuLever::SchedulerWeight,
            window: config.n_star as usize * 3,
            shards: 1,
            ..ScenarioConfig::default()
        },
    );
    let team2 = spawn_team(run.machine_mut(), spec);
    for pid in &team2.pids {
        run.watch(*pid);
    }
    let mut epochs = 0;
    while epochs < cap && !team2.is_completed() {
        run.step_ref();
        epochs += 1;
    }
    let terminated = team2
        .pids
        .iter()
        .any(|p| !run.machine().is_alive(*p) && !run.machine().is_completed(*p));
    SlowdownRow {
        name: spec.name.to_string(),
        suite: spec.suite.label(),
        baseline_epochs: baseline,
        valkyrie_epochs: epochs,
        slowdown_pct: (epochs as f64 / baseline.max(1) as f64 - 1.0) * 100.0,
        terminated,
    }
}

/// Runs Fig. 5a over the whole roster.
pub fn run_5a(config: &Fig5Config) -> Fig5aResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut rows = Vec::new();
    for spec in roster() {
        let spec = scaled_spec(&spec, config);
        rows.push(run_single(&spec, config, rng.gen()));
    }
    let mut mt_rows = Vec::new();
    if config.multithreaded {
        for spec in multithreaded_roster() {
            let spec = scaled_spec(&spec, config);
            mt_rows.push(run_team(&spec, config, rng.gen()));
        }
    }

    let slowdowns: Vec<f64> = rows.iter().map(|r| r.slowdown_pct.max(0.0)).collect();
    let mt_slowdowns: Vec<f64> = mt_rows.iter().map(|r| r.slowdown_pct.max(0.0)).collect();
    let under1 = slowdowns.iter().filter(|&&s| s < 1.0).count();
    let under5 = slowdowns.iter().filter(|&&s| s < 5.0).count();
    let max_row = rows
        .iter()
        .max_by(|a, b| a.slowdown_pct.total_cmp(&b.slowdown_pct));

    let mut t = TextTable::new(vec![
        "benchmark",
        "suite",
        "baseline",
        "with Valkyrie",
        "slowdown",
    ]);
    for r in rows.iter().chain(mt_rows.iter()) {
        t.row(vec![
            r.name.clone(),
            r.suite.to_string(),
            r.baseline_epochs.to_string(),
            r.valkyrie_epochs.to_string(),
            pct(r.slowdown_pct),
        ]);
    }
    let mut report = format!(
        "Fig. 5a — false-positive slowdowns ({} single-threaded, {} multi-threaded)\n\n{}",
        rows.len(),
        mt_rows.len(),
        t.render()
    );
    report.push_str(&format!(
        "\nsingle-threaded: geo-mean {} | arith-mean {} | max {} ({}) | {}/{} < 1% | {}/{} < 5%\n",
        pct(geo_mean_pct(&slowdowns)),
        pct(mean(&slowdowns)),
        max_row.map_or_else(|| "-".into(), |r| pct(r.slowdown_pct)),
        max_row.map_or("-", |r| r.name.as_str()),
        under1,
        rows.len(),
        under5,
        rows.len(),
    ));
    report.push_str(
        "paper:          geo-mean 1.0% | arith-mean 2.8% | max 40.3% | 35/77 < 1% | 60/77 < 5%\n",
    );
    let terminated = rows
        .iter()
        .chain(mt_rows.iter())
        .filter(|r| r.terminated)
        .count();
    report.push_str(&format!(
        "benign processes wrongly terminated: {terminated} (Valkyrie's R2 target: 0)\n"
    ));
    if !mt_rows.is_empty() {
        report.push_str(&format!(
            "multi-threaded: arith-mean {} (paper: ~6.7%)\n",
            pct(mean(&mt_slowdowns))
        ));
    }
    Fig5aResult {
        rows,
        mt_rows,
        report,
    }
}

/// Fig. 5b result.
#[derive(Debug, Clone)]
pub struct Fig5bResult {
    /// Average slowdown with Valkyrie (from Fig. 5a rows).
    pub valkyrie_avg: f64,
    /// Average slowdown with CPU-core migration.
    pub core_migration_avg: f64,
    /// Average slowdown with system/VM migration.
    pub system_migration_avg: f64,
    /// Fraction of benign programs wrongly terminated by the
    /// 3-consecutive-classifications baseline (Mushtaq et al.).
    pub consecutive_kill_frac: f64,
    /// Rendered report.
    pub report: String,
}

/// Runs Fig. 5b using measured Fig. 5a rows for Valkyrie and replaying the
/// same false-positive propensities through the migration baselines.
pub fn run_5b(config: &Fig5Config, fig5a: &Fig5aResult) -> Fig5bResult {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5B);
    let mut core = Vec::new();
    let mut system = Vec::new();
    let consecutive = ConsecutiveTermination::new(3);
    let mut killed = 0usize;
    let mut total = 0usize;
    for spec in roster() {
        let spec = scaled_spec(&spec, config);
        let trace: Vec<Classification> = (0..spec.epochs_to_complete)
            .map(|_| {
                if rng.gen::<f64>() < spec.burst_prob {
                    Classification::Malicious
                } else {
                    Classification::Benign
                }
            })
            .collect();
        let base: f64 = trace.len() as f64;
        let core_p: f64 = migration_progress(&trace, MigrationPolicy::core_migration())
            .iter()
            .sum();
        let sys_p: f64 = migration_progress(&trace, MigrationPolicy::system_migration())
            .iter()
            .sum();
        // Completion-time slowdown given uniform progress loss.
        core.push((base / core_p.max(1e-9) - 1.0) * 100.0);
        system.push((base / sys_p.max(1e-9) - 1.0) * 100.0);
        total += 1;
        if !consecutive.run(&trace).survived() {
            killed += 1;
        }
    }
    let kill_frac = killed as f64 / total.max(1) as f64;
    let valkyrie_avg = mean(
        &fig5a
            .rows
            .iter()
            .map(|r| r.slowdown_pct.max(0.0))
            .collect::<Vec<_>>(),
    );
    let core_avg = mean(&core);
    let sys_avg = mean(&system);
    let report = format!(
        "Fig. 5b — post-detection response comparison (mean FP slowdown)\n\n\
         Valkyrie                      : {}\n\
         CPU-core migration            : {}  ({:.1}x Valkyrie; paper ~1.5x)\n\
         system/VM migration           : {}  ({:.1}x Valkyrie; paper ~4x)\n\
         3-consecutive termination     : {:.0}% of benign programs KILLED\n\
         (Valkyrie wrongly terminated  : 0)\n",
        pct(valkyrie_avg),
        pct(core_avg),
        core_avg / valkyrie_avg.max(1e-9),
        pct(sys_avg),
        sys_avg / valkyrie_avg.max(1e-9),
        kill_frac * 100.0,
    );
    Fig5bResult {
        valkyrie_avg,
        core_migration_avg: core_avg,
        system_migration_avg: sys_avg,
        consecutive_kill_frac: kill_frac,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Fig5Config {
        Fig5Config {
            runtime_divisor: 10,
            multithreaded: false,
            ..Fig5Config::default()
        }
    }

    #[test]
    fn clean_benchmark_has_no_slowdown() {
        let config = tiny_config();
        let clean = roster()
            .into_iter()
            .find(|s| s.burst_prob == 0.0)
            .expect("clean program exists");
        let row = run_single(&scaled_spec(&clean, &config), &config, 7);
        assert!(
            row.slowdown_pct.abs() < 2.0,
            "{}: {}%",
            row.name,
            row.slowdown_pct
        );
    }

    #[test]
    fn blender_r_is_slowed_but_survives() {
        let config = tiny_config();
        let blender = roster()
            .into_iter()
            .find(|s| s.name == "blender_r")
            .unwrap();
        let row = run_single(&scaled_spec(&blender, &config), &config, 9);
        assert!(
            row.slowdown_pct > 5.0,
            "blender_r slowdown {}%",
            row.slowdown_pct
        );
        // It completed (was not terminated): epochs < cap.
        assert!(row.valkyrie_epochs < row.baseline_epochs * 8);
    }

    #[test]
    fn migration_baselines_are_worse_than_valkyrie() {
        let config = tiny_config();
        // A small synthetic 5a result with a 1.5% average.
        let fig5a = Fig5aResult {
            rows: vec![SlowdownRow {
                name: "synthetic".into(),
                suite: "SPEC-2017",
                baseline_epochs: 100,
                valkyrie_epochs: 101,
                slowdown_pct: 1.0,
                terminated: false,
            }],
            mt_rows: vec![],
            report: String::new(),
        };
        let r = run_5b(&config, &fig5a);
        assert!(r.core_migration_avg > r.valkyrie_avg);
        assert!(r.system_migration_avg > r.core_migration_avg);
    }
}
