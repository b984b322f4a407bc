//! The paper's response invariants, checked on a response stream.
//!
//! Valkyrie's guarantee holds for every response the engine gives, whatever
//! the route, the shard count or the detector. [`ResponseInvariants`]
//! follows one engine's response stream pid by pid, remembering only each
//! pid's last state and how many responses its current measurement cycle
//! has had, and returns a typed [`Violation`] for the first response that
//! breaks one of these rules ([`Rule`]):
//!
//! * every state change is a Fig. 3 transition, plus cyclic monitoring's
//!   *terminable* → *normal* recycle, which the engine announces with
//!   [`Action::RestoreAndRecycle`] and only when monitoring is cyclic;
//! * a process enters *terminated* only by [`Action::Terminate`] from
//!   *terminable*, never before the `N*+1`-th response of its current
//!   cycle, and a terminated process keeps answering
//!   [`Action::Terminate`];
//! * the threat is never NaN, and lies in `[0, 100]`;
//! * threat 0 ⇒ full resources (Section V-A).
//!
//! The checker mirrors what the engine tracks, so the caller tells it
//! about the calls that change that without a response:
//! [`ResponseInvariants::complete`], [`ResponseInvariants::forget`] and
//! [`ResponseInvariants::purge`].
//!
//! # Examples
//!
//! ```
//! use valkyrie_core::invariants::ResponseInvariants;
//! use valkyrie_core::prelude::*;
//!
//! let config = EngineConfig::builder()
//!     .measurements_required(3)
//!     .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
//!     .build()
//!     .unwrap();
//! let mut checker = ResponseInvariants::new(&config);
//! let mut engine = ShardedEngine::new(config, 4);
//! for _ in 0..5 {
//!     let batch = [(ProcessId(1), Classification::Malicious)];
//!     checker.check_tick(&engine.tick(&batch)).unwrap();
//! }
//! assert_eq!(checker.tracked(), engine.tracked());
//! ```

use crate::engine::{Action, EngineConfig, EngineResponse};
use crate::hash::FxBuildHasher;
use crate::resource::ProcessId;
use crate::state::ProcessState;
use std::collections::HashMap;
use std::fmt;

/// The rule a [`Violation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The state changed along no Fig. 3 edge, or recycled when monitoring
    /// is one-shot or other than from *terminable* to *normal*.
    Transition,
    /// The process entered or stayed in *terminated* other than by
    /// [`Action::Terminate`] from *terminable* after at least `N*+1`
    /// responses in its cycle, or answered `Terminate` otherwise.
    Termination,
    /// The threat is NaN.
    ThreatNan,
    /// The threat lies outside `[0, 100]`.
    ThreatRange,
    /// The threat is 0 but the resources are not full.
    ZeroThreatThrottled,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rule::Transition => "Fig. 3 transition",
            Rule::Termination => "termination only from terminable after N*+1 measurements",
            Rule::ThreatNan => "threat is never NaN",
            Rule::ThreatRange => "threat in [0, 100]",
            Rule::ZeroThreatThrottled => "threat 0 implies full resources",
        })
    }
}

/// A response that broke a [`Rule`], with the state its pid was in before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// The pid the response concerns.
    pub pid: ProcessId,
    /// The rule it broke.
    pub rule: Rule,
    /// The pid's state before the response (*normal* for a pid the checker
    /// had not seen).
    pub prev: ProcessState,
    /// Responses in the pid's current cycle, this one included.
    pub cycle_responses: u64,
    /// The offending response.
    pub response: EngineResponse,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.response;
        write!(
            f,
            "pid {} broke \"{}\": {} -> {} with {:?}, threat {}, cpu {}, response {} of its cycle",
            self.pid.0,
            self.rule,
            self.prev,
            r.state,
            r.action,
            r.threat.value(),
            r.resources.cpu,
            self.cycle_responses,
        )
    }
}

impl std::error::Error for Violation {}

/// What the checker remembers about one pid.
#[derive(Debug, Clone, Copy)]
struct PidCheck {
    state: ProcessState,
    /// Responses in the current measurement cycle.
    cycle_responses: u64,
}

/// Checks one engine's response stream against the paper's invariants (see
/// the [module docs](self)).
#[derive(Debug, Clone)]
pub struct ResponseInvariants {
    n_star: u64,
    cyclic: bool,
    pids: HashMap<ProcessId, PidCheck, FxBuildHasher>,
    /// Pids that entered *terminated* since the last [`Self::purge`]; an
    /// entry goes stale if its pid is forgotten first.
    terminated: Vec<ProcessId>,
}

impl ResponseInvariants {
    /// A checker for an engine built from `config`, tracking no pid.
    pub fn new(config: &EngineConfig) -> Self {
        Self {
            n_star: config.measurements_required(),
            cyclic: config.cyclic(),
            pids: HashMap::default(),
            terminated: Vec::new(),
        }
    }

    /// Checks `r` against what the checker remembers of its pid, then
    /// remembers `r` (also when it broke a rule, so one fault is reported
    /// once).
    ///
    /// # Errors
    ///
    /// Returns the first [`Rule`] `r` broke, as a [`Violation`].
    pub fn check(&mut self, r: &EngineResponse) -> Result<(), Violation> {
        use ProcessState::{Normal, Terminable, Terminated};
        let slot = self.pids.entry(r.pid).or_insert(PidCheck {
            state: Normal,
            cycle_responses: 0,
        });
        let prev = slot.state;
        slot.cycle_responses += 1;
        let cycle_responses = slot.cycle_responses;
        let recycle = r.action == Action::RestoreAndRecycle;
        let threat = r.threat.value();
        let legal_step = if recycle {
            self.cyclic && prev == Terminable && r.state == Normal
        } else {
            prev.can_transition_to(r.state)
        };
        let rule = if !legal_step {
            Some(Rule::Transition)
        } else if (r.action == Action::Terminate) != (r.state == Terminated)
            || (prev != Terminated
                && r.state == Terminated
                && (prev != Terminable || cycle_responses <= self.n_star))
        {
            Some(Rule::Termination)
        } else if threat.is_nan() {
            Some(Rule::ThreatNan)
        } else if !(0.0..=100.0).contains(&threat) {
            Some(Rule::ThreatRange)
        } else if threat == 0.0 && !r.resources.is_full() {
            Some(Rule::ZeroThreatThrottled)
        } else {
            None
        };
        slot.state = r.state;
        if recycle {
            slot.cycle_responses = 0;
        }
        if prev.is_live() && !r.state.is_live() {
            self.terminated.push(r.pid);
        }
        match rule {
            None => Ok(()),
            Some(rule) => Err(Violation {
                pid: r.pid,
                rule,
                prev,
                cycle_responses,
                response: *r,
            }),
        }
    }

    /// Checks one `tick`'s or `drain_tick`'s responses in order, then
    /// purges as the tick did.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`], leaving the rest unchecked.
    pub fn check_tick(&mut self, responses: &[EngineResponse]) -> Result<(), Violation> {
        responses.iter().try_for_each(|r| self.check(r))?;
        self.purge();
        Ok(())
    }

    /// The caller completed `pid` (Fig. 3: completion terminates it from
    /// any state), as [`crate::ShardedEngine::complete`] does. A pid the
    /// checker does not track stays untracked, as the engine answers
    /// [`crate::ValkyrieError::UnknownProcess`] for it.
    pub fn complete(&mut self, pid: ProcessId) {
        if let Some(slot) = self.pids.get_mut(&pid) {
            if slot.state.is_live() {
                slot.state = ProcessState::Terminated;
                self.terminated.push(pid);
            }
        }
    }

    /// The caller forgot `pid`, or saw it purged: its next response starts
    /// a fresh process.
    pub fn forget(&mut self, pid: ProcessId) {
        self.pids.remove(&pid);
    }

    /// Forgets every terminated pid, as the engine's `purge_terminated`
    /// (and so every `tick` and `drain_tick`) evicts them. Costs the
    /// terminations since the last purge, not the tracked pids.
    pub fn purge(&mut self) {
        for pid in self.terminated.drain(..) {
            if let Some(slot) = self.pids.get(&pid) {
                if !slot.state.is_live() {
                    self.pids.remove(&pid);
                }
            }
        }
    }

    /// Pids tracked: those seen and neither forgotten nor purged. This
    /// equals the engine's `tracked()` when the checker saw every response.
    pub fn tracked(&self) -> usize {
        self.pids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::ShareActuator;
    use crate::resource::ResourceVector;
    use crate::threat::ThreatIndex;
    use ProcessState::*;

    fn checker(n_star: u64, cyclic: bool) -> ResponseInvariants {
        let config = EngineConfig::builder()
            .measurements_required(n_star)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .cyclic(cyclic)
            .build()
            .unwrap();
        ResponseInvariants::new(&config)
    }

    fn resp(state: ProcessState, action: Action, threat: f64) -> EngineResponse {
        EngineResponse {
            pid: ProcessId(1),
            state,
            threat: ThreatIndex::new(threat),
            resources: if threat == 0.0 {
                ResourceVector::FULL
            } else {
                ResourceVector::new(0.5, 1.0, 1.0, 1.0)
            },
            action,
        }
    }

    fn rule(c: &mut ResponseInvariants, r: EngineResponse) -> Option<Rule> {
        c.check(&r).err().map(|v| v.rule)
    }

    #[test]
    fn a_legal_kill_passes_and_an_early_one_does_not() {
        let mut c = checker(2, false);
        assert_eq!(rule(&mut c, resp(Suspicious, Action::Throttle, 10.0)), None);
        assert_eq!(rule(&mut c, resp(Terminable, Action::None, 10.0)), None);
        assert_eq!(
            rule(&mut c, resp(Terminated, Action::Terminate, 10.0)),
            None
        );
        // A terminated process keeps answering Terminate until purged.
        assert_eq!(
            rule(&mut c, resp(Terminated, Action::Terminate, 10.0)),
            None
        );
        assert_eq!(
            rule(&mut c, resp(Terminated, Action::None, 10.0)),
            Some(Rule::Termination)
        );
        c.purge();
        assert_eq!(c.tracked(), 0);

        let mut early = checker(2, false);
        assert_eq!(rule(&mut early, resp(Terminable, Action::None, 0.0)), None);
        let v = early
            .check(&resp(Terminated, Action::Terminate, 0.0))
            .unwrap_err();
        assert_eq!(
            (v.pid, v.rule, v.prev, v.cycle_responses),
            (ProcessId(1), Rule::Termination, Terminable, 2)
        );
        assert!(v.to_string().contains("pid 1"), "{v}");

        let mut from_suspicious = checker(1, false);
        assert_eq!(
            rule(
                &mut from_suspicious,
                resp(Suspicious, Action::Throttle, 5.0)
            ),
            None
        );
        assert_eq!(
            rule(
                &mut from_suspicious,
                resp(Terminated, Action::Terminate, 5.0)
            ),
            Some(Rule::Termination)
        );
    }

    #[test]
    fn illegal_transitions_and_one_shot_recycles_are_flagged() {
        let mut c = checker(1, false);
        assert_eq!(rule(&mut c, resp(Terminable, Action::None, 5.0)), None);
        assert_eq!(
            rule(&mut c, resp(Suspicious, Action::Throttle, 6.0)),
            Some(Rule::Transition)
        );
        let mut one_shot = checker(1, false);
        assert_eq!(
            rule(&mut one_shot, resp(Terminable, Action::None, 0.0)),
            None
        );
        assert_eq!(
            rule(&mut one_shot, resp(Normal, Action::RestoreAndRecycle, 0.0)),
            Some(Rule::Transition)
        );
    }

    #[test]
    fn recycle_restarts_the_cycle() {
        let mut c = checker(1, true);
        assert_eq!(rule(&mut c, resp(Terminable, Action::None, 0.0)), None);
        assert_eq!(
            rule(&mut c, resp(Normal, Action::RestoreAndRecycle, 0.0)),
            None
        );
        assert_eq!(rule(&mut c, resp(Terminable, Action::None, 0.0)), None);
        assert_eq!(rule(&mut c, resp(Terminated, Action::Terminate, 0.0)), None);
    }

    #[test]
    fn threat_rules_are_flagged() {
        let mut c = checker(5, false);
        let mut nan = resp(Suspicious, Action::Throttle, 1.0);
        nan.threat = ThreatIndex::new(f64::NAN);
        assert_eq!(rule(&mut c, nan), Some(Rule::ThreatNan));
        let mut high = resp(Suspicious, Action::Throttle, 1.0);
        high.threat = ThreatIndex::unclamped(100.5);
        assert_eq!(rule(&mut c, high), Some(Rule::ThreatRange));
        let mut throttled = resp(Normal, Action::None, 0.0);
        throttled.resources.cpu = 0.5;
        assert_eq!(rule(&mut c, throttled), Some(Rule::ZeroThreatThrottled));
    }

    #[test]
    fn complete_forget_and_purge_mirror_the_engine() {
        let mut c = checker(5, false);
        assert_eq!(rule(&mut c, resp(Suspicious, Action::Throttle, 5.0)), None);
        c.complete(ProcessId(1));
        // Observed after completion, it answers Terminate.
        assert_eq!(rule(&mut c, resp(Terminated, Action::Terminate, 5.0)), None);
        c.complete(ProcessId(2));
        assert_eq!(c.tracked(), 1);
        c.purge();
        assert_eq!(c.tracked(), 0);
        assert_eq!(rule(&mut c, resp(Suspicious, Action::Throttle, 5.0)), None);
        c.forget(ProcessId(1));
        assert_eq!(c.tracked(), 0);
    }
}
