//! The invariant oracle every response of every run passes through.
//!
//! The paper's response contract, checked per response against the state
//! the driver mirrored from that pid's previous response:
//!
//! * only Fig. 3 legal transitions (plus cyclic monitoring's
//!   *Terminable* → *Normal* recycle, which the engine announces with
//!   [`Action::RestoreAndRecycle`]);
//! * [`Action::Terminate`] only from *Terminable*, and never before the
//!   `N*+1`-th observation of the pid's current measurement cycle;
//! * threat in [0, 100];
//! * threat 0 ⇒ full resources.

use valkyrie_core::{Action, EngineResponse, ProcessState};

/// What the driver remembers about one pid between its responses.
#[derive(Debug, Clone, Copy, Default)]
pub struct PidCheck {
    prev: Option<ProcessState>,
    /// Responses in the current measurement cycle, this one included.
    cycle_obs: u32,
}

impl PidCheck {
    /// The pid's state as of its latest response.
    pub fn state(&self) -> Option<ProcessState> {
        self.prev
    }
}

/// Counts checked responses and violations.
#[derive(Debug, Clone, Copy)]
pub struct Oracle {
    n_star: u64,
    pub checked: u64,
    pub violations: u64,
}

impl Oracle {
    pub fn new(n_star: u64) -> Self {
        Self {
            n_star,
            checked: 0,
            violations: 0,
        }
    }

    /// Checks `r` against what `slot` remembers and advances `slot`.
    /// Returns whether the response was legal.
    #[inline]
    pub fn check(&mut self, slot: &mut PidCheck, r: &EngineResponse) -> bool {
        self.checked += 1;
        let prev = slot.prev.unwrap_or(ProcessState::Normal);
        slot.cycle_obs += 1;
        let recycle = prev == ProcessState::Terminable
            && r.state == ProcessState::Normal
            && r.action == Action::RestoreAndRecycle;
        let mut ok = prev.can_transition_to(r.state) || recycle;
        if r.action == Action::Terminate {
            ok &= prev == ProcessState::Terminable
                && r.state == ProcessState::Terminated
                && u64::from(slot.cycle_obs) > self.n_star;
        }
        let threat = r.threat.value();
        ok &= (0.0..=100.0).contains(&threat);
        if threat == 0.0 {
            ok &= r.resources.is_full();
        }
        if recycle {
            slot.cycle_obs = 0;
        }
        slot.prev = Some(r.state);
        if !ok {
            self.violations += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valkyrie_core::{ProcessId, ResourceVector, ThreatIndex};

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

    #[test]
    fn early_kill_and_illegal_transition_are_flagged() {
        use ProcessState::*;
        let mut o = Oracle::new(2);
        let mut s = PidCheck::default();
        assert!(o.check(&mut s, &resp(Suspicious, Action::Throttle, 10.0)));
        assert!(o.check(&mut s, &resp(Terminable, Action::None, 10.0)));
        assert!(o.check(&mut s, &resp(Terminated, Action::Terminate, 10.0)));

        let mut early = PidCheck::default();
        assert!(o.check(&mut early, &resp(Terminable, Action::None, 0.0)));
        assert!(!o.check(&mut early, &resp(Terminated, Action::Terminate, 0.0)));

        let mut back = PidCheck::default();
        assert!(o.check(&mut back, &resp(Terminable, Action::None, 5.0)));
        assert!(!o.check(&mut back, &resp(Suspicious, Action::Throttle, 6.0)));
        assert_eq!(o.violations, 2);
    }

    #[test]
    fn recycle_restarts_the_measurement_cycle() {
        use ProcessState::*;
        let mut o = Oracle::new(1);
        let mut s = PidCheck::default();
        assert!(o.check(&mut s, &resp(Terminable, Action::None, 0.0)));
        assert!(o.check(&mut s, &resp(Normal, Action::RestoreAndRecycle, 0.0)));
        assert!(o.check(&mut s, &resp(Terminable, Action::None, 0.0)));
        assert!(o.check(&mut s, &resp(Terminated, Action::Terminate, 0.0)));
        let mut throttled_at_zero = resp(Normal, Action::None, 0.0);
        throttled_at_zero.resources.cpu = 0.5;
        assert!(!o.check(&mut PidCheck::default(), &throttled_at_zero));
    }
}
