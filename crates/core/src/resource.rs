//! Resource shares (`R_i^t`, Eq. 1) and process identifiers.

use std::fmt;

/// Identifier of a monitored process.
///
/// A thin newtype so engine call sites cannot confuse process ids with other
/// integers.
///
/// # Fleet packing
///
/// At fleet scale a process is named by a `(machine, local pid)` pair. The
/// pair packs into the one `u64` — machine id in the high
/// [`MACHINE_BITS`](ProcessId::MACHINE_BITS) bits, local pid in the low
/// [`LOCAL_BITS`](ProcessId::LOCAL_BITS) — so the whole engine tier
/// (sharding, ingest rings, per-process maps) handles cluster-wide names
/// without a second key type. Machine `0` packs to the bare local pid,
/// making the single-machine embedding a strict special case of the fleet:
/// `ProcessId::from_parts(0, p) == ProcessId(p)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ProcessId(pub u64);

impl ProcessId {
    /// High bits naming the machine: a 24-bit id space (16.7 M machine
    /// boots before wrap), chosen so the low bits still hold any realistic
    /// per-machine pid sequence.
    pub const MACHINE_BITS: u32 = 24;
    /// Low bits naming the process on its machine (2^40 spawns per machine).
    pub const LOCAL_BITS: u32 = 40;

    /// Packs a cluster-wide process name from its machine id and
    /// machine-local pid.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `machine` or `local` overflow their bit
    /// fields (a release build would silently alias another process).
    #[inline]
    pub fn from_parts(machine: u32, local: u64) -> Self {
        debug_assert!(
            u64::from(machine) < (1 << Self::MACHINE_BITS),
            "machine id {machine} overflows {} bits",
            Self::MACHINE_BITS
        );
        debug_assert!(
            local < (1 << Self::LOCAL_BITS),
            "local pid {local} overflows {} bits",
            Self::LOCAL_BITS
        );
        ProcessId((u64::from(machine) << Self::LOCAL_BITS) | local)
    }

    /// The machine component of a fleet-packed id (`0` for bare
    /// single-machine pids).
    #[inline]
    pub fn machine(self) -> u32 {
        (self.0 >> Self::LOCAL_BITS) as u32
    }

    /// The machine-local pid component of a fleet-packed id.
    #[inline]
    pub fn local(self) -> u64 {
        self.0 & ((1 << Self::LOCAL_BITS) - 1)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// One of the four throttleable system resources (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// CPU time share (`r_CPU`).
    Cpu,
    /// Memory share relative to the working set (`r_mem`).
    Memory,
    /// Network bandwidth share (`r_nw`).
    Network,
    /// Filesystem access-rate share (`r_fs`).
    Filesystem,
}

impl ResourceKind {
    /// All resource kinds, in `R_i^t` order.
    pub const ALL: [ResourceKind; 4] = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::Network,
        ResourceKind::Filesystem,
    ];
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Memory => "memory",
            ResourceKind::Network => "network",
            ResourceKind::Filesystem => "filesystem",
        };
        f.write_str(s)
    }
}

/// The share of each system resource available to a process
/// (`R_i^t = {r_CPU, r_mem, r_nw, r_fs}`, Eq. 1).
///
/// Every component is a fraction in `[0, 1]` of the process's *default*
/// (unrestricted) allocation; `1.0` everywhere means no restrictions.
///
/// # Examples
///
/// ```
/// use valkyrie_core::{ResourceKind, ResourceVector};
/// let mut r = ResourceVector::full();
/// r.set(ResourceKind::Cpu, 0.25);
/// assert_eq!(r.get(ResourceKind::Cpu), 0.25);
/// assert!(!r.is_full());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceVector {
    /// CPU time share.
    pub cpu: f64,
    /// Memory share.
    pub mem: f64,
    /// Network bandwidth share.
    pub net: f64,
    /// Filesystem access-rate share.
    pub fs: f64,
}

impl ResourceVector {
    /// All resources unrestricted.
    pub const FULL: ResourceVector = ResourceVector {
        cpu: 1.0,
        mem: 1.0,
        net: 1.0,
        fs: 1.0,
    };

    /// All resources unrestricted (same as [`ResourceVector::FULL`]).
    pub fn full() -> Self {
        Self::FULL
    }

    /// Builds a vector with each share clamped into `[0, 1]`.
    pub fn new(cpu: f64, mem: f64, net: f64, fs: f64) -> Self {
        Self {
            cpu: cpu.clamp(0.0, 1.0),
            mem: mem.clamp(0.0, 1.0),
            net: net.clamp(0.0, 1.0),
            fs: fs.clamp(0.0, 1.0),
        }
    }

    /// Share of one resource kind.
    pub fn get(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Cpu => self.cpu,
            ResourceKind::Memory => self.mem,
            ResourceKind::Network => self.net,
            ResourceKind::Filesystem => self.fs,
        }
    }

    /// Sets the share of one resource kind (clamped into `[0, 1]`).
    pub fn set(&mut self, kind: ResourceKind, share: f64) {
        let share = share.clamp(0.0, 1.0);
        match kind {
            ResourceKind::Cpu => self.cpu = share,
            ResourceKind::Memory => self.mem = share,
            ResourceKind::Network => self.net = share,
            ResourceKind::Filesystem => self.fs = share,
        }
    }

    /// True when every share equals `1.0`.
    pub fn is_full(&self) -> bool {
        *self == Self::FULL
    }

    /// True if every share is within `[0, 1]` and finite.
    pub fn is_valid(&self) -> bool {
        [self.cpu, self.mem, self.net, self.fs]
            .iter()
            .all(|s| s.is_finite() && (0.0..=1.0).contains(s))
    }
}

impl Default for ResourceVector {
    fn default() -> Self {
        Self::FULL
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "R{{cpu:{:.2}, mem:{:.2}, net:{:.2}, fs:{:.2}}}",
            self.cpu, self.mem, self.net, self.fs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clamps_components() {
        let r = ResourceVector::new(2.0, -1.0, 0.5, 1.0);
        assert_eq!(r.cpu, 1.0);
        assert_eq!(r.mem, 0.0);
        assert_eq!(r.net, 0.5);
        assert!(r.is_valid());
    }

    #[test]
    fn get_set_round_trip() {
        let mut r = ResourceVector::full();
        for kind in ResourceKind::ALL {
            r.set(kind, 0.25);
            assert_eq!(r.get(kind), 0.25);
        }
    }

    #[test]
    fn full_is_full() {
        assert!(ResourceVector::full().is_full());
        assert!(!ResourceVector::new(0.9, 1.0, 1.0, 1.0).is_full());
    }

    #[test]
    fn display_contains_all_fields() {
        let s = ResourceVector::full().to_string();
        for key in ["cpu", "mem", "net", "fs"] {
            assert!(s.contains(key));
        }
    }

    #[test]
    fn fleet_packing_round_trips() {
        for (machine, local) in [
            (0u32, 0u64),
            (0, 1),
            (1, 1),
            (3, 7),
            (123_456, 42),
            (
                (1 << ProcessId::MACHINE_BITS) - 1,
                (1 << ProcessId::LOCAL_BITS) - 1,
            ),
        ] {
            let pid = ProcessId::from_parts(machine, local);
            assert_eq!(pid.machine(), machine);
            assert_eq!(pid.local(), local);
        }
    }

    #[test]
    fn machine_zero_packs_to_bare_pid() {
        // The single-machine embedding: an un-packed pid IS machine 0.
        for p in [0u64, 1, 2, 41, 1_000_000] {
            assert_eq!(ProcessId::from_parts(0, p), ProcessId(p));
            assert_eq!(ProcessId(p).machine(), 0);
            assert_eq!(ProcessId(p).local(), p);
        }
    }
}
