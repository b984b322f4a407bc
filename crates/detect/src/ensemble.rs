//! Detector ensembles and multi-level screening.
//!
//! The paper's discussion (Section VII) recommends "multi-level detection
//! approaches as presented in [Ozsoy et al.]" before augmenting a detector
//! with Valkyrie, and cites the mixture-of-experts design of Karapoola et
//! al. \[33\]. This module provides the two composition patterns those works
//! use:
//!
//! * [`EnsembleDetector`] — run several detectors on the same window each
//!   epoch and combine their votes with a [`CombinationRule`];
//! * [`MultiLevelDetector`] — a cheap always-on *screen* whose malicious
//!   verdicts are re-checked by an expensive *confirmer* (Ozsoy et al.'s
//!   two-level malware-aware pipeline). The confirmer only runs on screened
//!   epochs, which is the entire point: its invocation count is exposed so
//!   the cost saving can be measured.
//!
//! Both compose anything implementing [`Detector`], including each other,
//! and feed Valkyrie exactly one inference per epoch like any other
//! detector.
//!
//! # Examples
//!
//! ```
//! use valkyrie_detect::{Detector, ScriptedDetector};
//! use valkyrie_detect::ensemble::{CombinationRule, EnsembleDetector};
//! use valkyrie_core::{Classification, ProcessId};
//! use valkyrie_hpc::SampleWindow;
//!
//! let mut d = EnsembleDetector::new(
//!     "demo",
//!     vec![
//!         Box::new(ScriptedDetector::constant(Classification::Malicious)),
//!         Box::new(ScriptedDetector::constant(Classification::Benign)),
//!         Box::new(ScriptedDetector::constant(Classification::Malicious)),
//!     ],
//!     CombinationRule::Majority,
//! );
//! let w = SampleWindow::new(4);
//! assert_eq!(d.infer(ProcessId(1), &w), Classification::Malicious);
//! ```

use crate::Detector;
use std::fmt;
use valkyrie_core::{Classification, ProcessId};
use valkyrie_hpc::SampleWindow;

/// How an [`EnsembleDetector`] combines member votes into one inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinationRule {
    /// Malicious if *any* member says malicious (maximum recall — the
    /// union of the members' detection surfaces, at the union of their
    /// false-positive rates).
    Any,
    /// Malicious only if *all* members agree (minimum false positives, at
    /// the cost of recall).
    All,
    /// Malicious if strictly more than half of the members say malicious.
    Majority,
    /// Malicious if at least `k` members say malicious.
    AtLeast(usize),
}

impl CombinationRule {
    /// Applies the rule to `malicious` votes out of `total` members.
    pub fn decide(&self, malicious: usize, total: usize) -> Classification {
        let flagged = match *self {
            CombinationRule::Any => malicious >= 1,
            CombinationRule::All => total > 0 && malicious == total,
            CombinationRule::Majority => 2 * malicious > total,
            CombinationRule::AtLeast(k) => malicious >= k,
        };
        if flagged {
            Classification::Malicious
        } else {
            Classification::Benign
        }
    }
}

/// A voting ensemble over heterogeneous detectors (mixture-of-experts
/// style, Karapoola et al. \[33\]).
///
/// Every member sees every window; the [`CombinationRule`] folds their
/// per-epoch votes into the single inference Valkyrie consumes.
pub struct EnsembleDetector {
    name: String,
    members: Vec<Box<dyn Detector>>,
    rule: CombinationRule,
}

impl EnsembleDetector {
    /// Builds an ensemble from owned member detectors.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty — an ensemble with no experts cannot
    /// produce an inference.
    pub fn new(
        name: impl Into<String>,
        members: Vec<Box<dyn Detector>>,
        rule: CombinationRule,
    ) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        Self {
            name: name.into(),
            members,
            rule,
        }
    }

    /// The combination rule in use.
    pub fn rule(&self) -> CombinationRule {
        self.rule
    }

    /// Number of member detectors.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always false: the constructor rejects empty ensembles.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Runs all members on the window and returns the raw vote count
    /// (malicious votes, total members) without combining.
    ///
    /// Exposed so callers can log expert disagreement (`C-INTERMEDIATE`).
    pub fn poll(&mut self, pid: ProcessId, window: &SampleWindow) -> (usize, usize) {
        let mut malicious = 0;
        for member in &mut self.members {
            if member.infer(pid, window).is_malicious() {
                malicious += 1;
            }
        }
        (malicious, self.members.len())
    }
}

impl fmt::Debug for EnsembleDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnsembleDetector")
            .field("name", &self.name)
            .field(
                "members",
                &self.members.iter().map(|m| m.name()).collect::<Vec<_>>(),
            )
            .field("rule", &self.rule)
            .finish()
    }
}

impl Detector for EnsembleDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn infer(&mut self, pid: ProcessId, window: &SampleWindow) -> Classification {
        let (malicious, total) = self.poll(pid, window);
        self.rule.decide(malicious, total)
    }

    /// Confidence = the malicious vote fraction — the expert disagreement
    /// the combination rule collapses to one bit.
    fn infer_confidence(&mut self, pid: ProcessId, window: &SampleWindow) -> f64 {
        let (malicious, total) = self.poll(pid, window);
        malicious as f64 / total as f64
    }
}

/// A two-level detector: a cheap screen runs every epoch, and an expensive
/// confirmer is consulted only on screened (malicious) epochs.
///
/// The final inference is malicious only when *both* levels agree, so the
/// screen bounds the confirmer's workload and the confirmer bounds the
/// pipeline's false-positive rate.
///
/// # Examples
///
/// ```
/// use valkyrie_detect::{Detector, ScriptedDetector};
/// use valkyrie_detect::ensemble::MultiLevelDetector;
/// use valkyrie_core::{Classification, ProcessId};
/// use valkyrie_hpc::SampleWindow;
///
/// let screen = ScriptedDetector::cycle(vec![
///     Classification::Malicious,
///     Classification::Benign,
/// ]);
/// let confirm = ScriptedDetector::constant(Classification::Benign);
/// let mut d = MultiLevelDetector::new("two-level", Box::new(screen), Box::new(confirm));
/// let w = SampleWindow::new(4);
/// // Screen flags, confirmer overrules → benign; confirmer ran once.
/// assert_eq!(d.infer(ProcessId(1), &w), Classification::Benign);
/// // Screen passes → confirmer not consulted.
/// assert_eq!(d.infer(ProcessId(1), &w), Classification::Benign);
/// assert_eq!(d.confirmations(), 1);
/// assert_eq!(d.inferences(), 2);
/// ```
pub struct MultiLevelDetector {
    name: String,
    screen: Box<dyn Detector>,
    confirm: Box<dyn Detector>,
    inferences: u64,
    confirmations: u64,
}

impl MultiLevelDetector {
    /// Builds a two-level pipeline from a screen and a confirmer.
    pub fn new(
        name: impl Into<String>,
        screen: Box<dyn Detector>,
        confirm: Box<dyn Detector>,
    ) -> Self {
        Self {
            name: name.into(),
            screen,
            confirm,
            inferences: 0,
            confirmations: 0,
        }
    }

    /// Total inferences served.
    pub fn inferences(&self) -> u64 {
        self.inferences
    }

    /// Times the expensive confirmer was invoked.
    pub fn confirmations(&self) -> u64 {
        self.confirmations
    }

    /// Fraction of epochs on which the confirmer ran (`0.0` if no
    /// inferences yet) — the cost-saving metric of two-level detection.
    pub fn confirmation_rate(&self) -> f64 {
        if self.inferences == 0 {
            0.0
        } else {
            self.confirmations as f64 / self.inferences as f64
        }
    }
}

impl fmt::Debug for MultiLevelDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiLevelDetector")
            .field("name", &self.name)
            .field("screen", &self.screen.name())
            .field("confirm", &self.confirm.name())
            .field("inferences", &self.inferences)
            .field("confirmations", &self.confirmations)
            .finish()
    }
}

impl Detector for MultiLevelDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn infer(&mut self, pid: ProcessId, window: &SampleWindow) -> Classification {
        self.inferences += 1;
        if self.screen.infer(pid, window).is_malicious() {
            self.confirmations += 1;
            self.confirm.infer(pid, window)
        } else {
            Classification::Benign
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScriptedDetector;
    use Classification::{Benign, Malicious};

    fn window() -> SampleWindow {
        SampleWindow::new(4)
    }

    fn boxed(c: Classification) -> Box<dyn Detector> {
        Box::new(ScriptedDetector::constant(c))
    }

    #[test]
    fn combination_rules_decide_correctly() {
        assert_eq!(CombinationRule::Any.decide(0, 3), Benign);
        assert_eq!(CombinationRule::Any.decide(1, 3), Malicious);
        assert_eq!(CombinationRule::All.decide(2, 3), Benign);
        assert_eq!(CombinationRule::All.decide(3, 3), Malicious);
        assert_eq!(CombinationRule::Majority.decide(1, 3), Benign);
        assert_eq!(CombinationRule::Majority.decide(2, 3), Malicious);
        assert_eq!(CombinationRule::Majority.decide(2, 4), Benign); // ties are benign
        assert_eq!(CombinationRule::AtLeast(2).decide(1, 5), Benign);
        assert_eq!(CombinationRule::AtLeast(2).decide(2, 5), Malicious);
    }

    #[test]
    fn all_rule_on_empty_vote_count_is_benign() {
        assert_eq!(CombinationRule::All.decide(0, 0), Benign);
    }

    /// Pins the degenerate corners of every rule on an empty vote count
    /// (`total == 0`).
    #[test]
    fn degenerate_empty_totals_per_rule() {
        assert_eq!(CombinationRule::Any.decide(0, 0), Benign);
        assert_eq!(CombinationRule::All.decide(0, 0), Benign);
        assert_eq!(CombinationRule::Majority.decide(0, 0), Benign);
        // AtLeast(0) is vacuously satisfied — even with no members.
        assert_eq!(CombinationRule::AtLeast(0).decide(0, 0), Malicious);
        assert_eq!(CombinationRule::AtLeast(1).decide(0, 0), Benign);
    }

    /// Pins exact-tie behaviour: a split panel never condemns under
    /// Majority, and `AtLeast(k)` fires at exactly `k` votes (closed
    /// boundary).
    #[test]
    fn degenerate_exact_ties_per_rule() {
        // Even panels splitting evenly: strictly-more-than-half is false.
        assert_eq!(CombinationRule::Majority.decide(1, 2), Benign);
        assert_eq!(CombinationRule::Majority.decide(3, 6), Benign);
        assert_eq!(CombinationRule::Majority.decide(50, 100), Benign);
        // One vote past the tie flips it.
        assert_eq!(CombinationRule::Majority.decide(4, 6), Malicious);
        // AtLeast at its exact boundary (>= is closed below).
        assert_eq!(CombinationRule::AtLeast(3).decide(3, 3), Malicious);
        assert_eq!(CombinationRule::AtLeast(3).decide(2, 3), Benign);
        // k beyond the panel size can never fire.
        assert_eq!(CombinationRule::AtLeast(4).decide(3, 3), Benign);
        // Single-member panels: Majority needs the whole panel.
        assert_eq!(CombinationRule::Majority.decide(0, 1), Benign);
        assert_eq!(CombinationRule::Majority.decide(1, 1), Malicious);
        // All on a single member is that member's vote.
        assert_eq!(CombinationRule::All.decide(1, 1), Malicious);
        assert_eq!(CombinationRule::All.decide(0, 1), Benign);
    }

    #[test]
    fn majority_ensemble_follows_most_members() {
        let mut d = EnsembleDetector::new(
            "maj",
            vec![boxed(Malicious), boxed(Malicious), boxed(Benign)],
            CombinationRule::Majority,
        );
        assert_eq!(d.infer(ProcessId(1), &window()), Malicious);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.name(), "maj");
    }

    #[test]
    fn any_vs_all_bracketing() {
        // One alarmist member: Any flags, All does not.
        let mut any = EnsembleDetector::new(
            "any",
            vec![boxed(Malicious), boxed(Benign)],
            CombinationRule::Any,
        );
        let mut all = EnsembleDetector::new(
            "all",
            vec![boxed(Malicious), boxed(Benign)],
            CombinationRule::All,
        );
        assert_eq!(any.infer(ProcessId(1), &window()), Malicious);
        assert_eq!(all.infer(ProcessId(1), &window()), Benign);
    }

    #[test]
    fn poll_exposes_raw_votes() {
        let mut d = EnsembleDetector::new(
            "poll",
            vec![boxed(Malicious), boxed(Benign), boxed(Malicious)],
            CombinationRule::Majority,
        );
        assert_eq!(d.poll(ProcessId(1), &window()), (2, 3));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_panics() {
        let _ = EnsembleDetector::new("empty", vec![], CombinationRule::Any);
    }

    #[test]
    fn multi_level_requires_both_levels_to_agree() {
        let screen = ScriptedDetector::constant(Malicious);
        let confirm = ScriptedDetector::cycle(vec![Malicious, Benign]);
        let mut d = MultiLevelDetector::new("ml", Box::new(screen), Box::new(confirm));
        assert_eq!(d.infer(ProcessId(1), &window()), Malicious);
        assert_eq!(d.infer(ProcessId(1), &window()), Benign);
        assert_eq!(d.confirmations(), 2);
    }

    #[test]
    fn multi_level_saves_confirmer_work_on_benign_load() {
        // Screen flags 1 epoch in 5 → the expensive model runs on 20% of
        // epochs instead of all of them.
        let screen = ScriptedDetector::cycle(vec![Malicious, Benign, Benign, Benign, Benign]);
        let confirm = ScriptedDetector::constant(Benign);
        let mut d = MultiLevelDetector::new("ml", Box::new(screen), Box::new(confirm));
        for _ in 0..100 {
            let _ = d.infer(ProcessId(1), &window());
        }
        assert_eq!(d.inferences(), 100);
        assert_eq!(d.confirmations(), 20);
        assert!((d.confirmation_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn confirmation_rate_of_fresh_detector_is_zero() {
        let d = MultiLevelDetector::new("ml", boxed(Benign), boxed(Benign));
        assert_eq!(d.confirmation_rate(), 0.0);
    }

    #[test]
    fn ensembles_nest() {
        // A multi-level pipeline whose confirmer is itself an ensemble.
        let screen = ScriptedDetector::constant(Malicious);
        let panel = EnsembleDetector::new(
            "panel",
            vec![boxed(Malicious), boxed(Malicious), boxed(Benign)],
            CombinationRule::Majority,
        );
        let mut d = MultiLevelDetector::new("nested", Box::new(screen), Box::new(panel));
        assert_eq!(d.infer(ProcessId(1), &window()), Malicious);
    }
}
