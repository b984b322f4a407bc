//! Migration-based post-detection responses (the Fig. 5b baselines).
//!
//! Prior work responds to a detection by migrating the suspected process to
//! a different CPU core (Nomani et al.) or a different machine/VM (Zhang et
//! al.). Both satisfy R1 for contention-based attacks but charge *every*
//! detection — including false positives — a fixed migration cost. This
//! module models those baselines so Fig. 5b can compare them with Valkyrie
//! on identical inference traces.

use valkyrie_core::Classification;

/// A migration-based response policy.
///
/// On every malicious classification the process is migrated; the epoch in
/// which a migration happens loses `cost_epochs` worth of progress (cache /
/// TLB warm-up for core migration, checkpoint + transfer + restore downtime
/// for system migration). A cooldown models the migration logic refusing to
/// bounce a process faster than it can complete a migration.
///
/// # Examples
///
/// ```
/// use valkyrie_experiments::migration::MigrationPolicy;
/// let core = MigrationPolicy::core_migration();
/// let sys = MigrationPolicy::system_migration();
/// assert!(sys.cost_epochs() > core.cost_epochs());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationPolicy {
    cost_epochs: f64,
    cooldown_epochs: u32,
}

impl MigrationPolicy {
    /// Migration to another CPU core on the same machine.
    ///
    /// Costs a fraction of an epoch: the migrated process re-warms its
    /// private caches, TLB and branch predictor state.
    pub fn core_migration() -> Self {
        Self {
            cost_epochs: 0.6,
            cooldown_epochs: 0,
        }
    }

    /// Migration to a different machine / VM over the network.
    ///
    /// Costs multiple epochs of downtime (checkpoint, transfer, restore),
    /// with a cooldown while the migration is in flight.
    pub fn system_migration() -> Self {
        Self {
            cost_epochs: 1.8,
            cooldown_epochs: 1,
        }
    }

    /// A custom policy.
    pub fn new(cost_epochs: f64, cooldown_epochs: u32) -> Self {
        Self {
            cost_epochs: cost_epochs.max(0.0),
            cooldown_epochs,
        }
    }

    /// Progress lost per migration, in epochs.
    pub fn cost_epochs(&self) -> f64 {
        self.cost_epochs
    }
}

/// Per-epoch progress of a process under a migration policy, given the
/// detector's inference trace (progress `1.0` = one unthrottled epoch).
///
/// Migration does not slow the process between migrations (unlike
/// throttling), but every malicious inference triggers a migration whose
/// cost is deducted from the following epochs.
///
/// # Examples
///
/// ```
/// use valkyrie_core::Classification;
/// use valkyrie_experiments::migration::{migration_progress, MigrationPolicy};
/// use Classification::*;
/// let progress = migration_progress(&[Benign, Malicious, Benign], MigrationPolicy::core_migration());
/// let total: f64 = progress.iter().sum();
/// assert!(total < 3.0 && total > 1.5);
/// ```
pub fn migration_progress(inferences: &[Classification], policy: MigrationPolicy) -> Vec<f64> {
    let mut progress = Vec::with_capacity(inferences.len());
    let mut debt = 0.0_f64; // pending migration downtime, in epochs
    let mut cooldown = 0_u32;
    for &c in inferences {
        if c.is_malicious() && cooldown == 0 {
            debt += policy.cost_epochs;
            cooldown = policy.cooldown_epochs;
        } else {
            cooldown = cooldown.saturating_sub(1);
        }
        let paid = debt.min(1.0);
        debt -= paid;
        progress.push(1.0 - paid);
    }
    progress
}

#[cfg(test)]
mod tests {
    use super::*;
    use valkyrie_core::slowdown_percent;
    use Classification::{Benign, Malicious};

    #[test]
    fn no_detections_no_cost() {
        let p = migration_progress(&[Benign; 10], MigrationPolicy::system_migration());
        assert!(p.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn each_detection_costs_one_migration() {
        let p = migration_progress(&[Malicious, Benign, Benign], MigrationPolicy::new(0.5, 0));
        assert_eq!(p, vec![0.5, 1.0, 1.0]);
    }

    #[test]
    fn system_migration_debt_spills_over_epochs() {
        let p = migration_progress(
            &[Malicious, Benign, Benign, Benign, Benign],
            MigrationPolicy::system_migration(),
        );
        // 1.8 epochs of downtime paid over the first two epochs.
        assert_eq!(p[0], 0.0);
        assert!((p[1] - 0.2).abs() < 1e-12);
        assert_eq!(p[2], 1.0);
    }

    #[test]
    fn cooldown_prevents_migration_storms() {
        let with_cd = migration_progress(&[Malicious; 6], MigrationPolicy::new(1.0, 2));
        let without_cd = migration_progress(&[Malicious; 6], MigrationPolicy::new(1.0, 0));
        let s_with: f64 = with_cd.iter().sum();
        let s_without: f64 = without_cd.iter().sum();
        assert!(s_with > s_without);
    }

    #[test]
    fn system_migration_slower_than_core_migration() {
        // An FP-prone benign trace: flagged 20% of epochs.
        let mut trace = Vec::new();
        for i in 0..50 {
            trace.push(if i % 5 == 0 { Malicious } else { Benign });
        }
        let base = vec![1.0; trace.len()];
        let core = migration_progress(&trace, MigrationPolicy::core_migration());
        let sys = migration_progress(&trace, MigrationPolicy::system_migration());
        let s_core = slowdown_percent(&base, &core);
        let s_sys = slowdown_percent(&base, &sys);
        assert!(s_sys > s_core, "system {s_sys}% vs core {s_core}%");
    }
}
