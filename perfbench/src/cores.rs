//! Placing the driver thread on each core in turn.
//!
//! The vCPUs of a shared virtual machine need not run at the same speed: on
//! the 2-vCPU host the benchmark was sized on, one core ran the
//! single-threaded tenant loops about 1.5× slower than the other, for the
//! whole life of a process. A run's figures then depended on which core the
//! scheduler first placed the driver thread on. So runs visit every allowed
//! core in turn, one episode each, and report per-core medians averaged
//! over cores.

/// Bytes of CPU mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// The cores this process may run on.
pub struct Cores {
    allowed: Vec<usize>,
    mask: [u64; MASK_WORDS],
}

impl Cores {
    /// The calling thread's current affinity (one pseudo-core where it
    /// cannot be read).
    pub fn detect() -> Self {
        let mut mask = [0u64; MASK_WORDS];
        let allowed: Vec<usize> = if sys::get_affinity(&mut mask) {
            (0..MASK_WORDS * 64)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        if allowed.is_empty() {
            return Self {
                allowed: vec![0],
                mask: [0; MASK_WORDS],
            };
        }
        Self { allowed, mask }
    }

    /// How many cores runs rotate over.
    pub fn len(&self) -> usize {
        self.allowed.len()
    }

    pub fn is_empty(&self) -> bool {
        self.allowed.is_empty()
    }

    /// Moves the calling thread onto the `i`-th allowed core (modulo their
    /// number), then widens its affinity back to every allowed core: the
    /// thread stays where it was put, and threads it spawns may run on any
    /// core.
    pub fn visit(&self, i: usize) {
        if self.mask == [0; MASK_WORDS] {
            return;
        }
        let core = self.allowed[i % self.allowed.len()];
        let mut one = [0u64; MASK_WORDS];
        one[core / 64] = 1 << (core % 64);
        if sys::set_affinity(&one) {
            sys::set_affinity(&self.mask);
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use super::MASK_WORDS;

    const SCHED_SETAFFINITY: usize = 203;
    const SCHED_GETAFFINITY: usize = 204;

    /// # Safety
    ///
    /// `nr` must be one of the affinity syscalls above, and `c` must point
    /// at `b` bytes the kernel may read (set) or write (get).
    unsafe fn syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
        let ret: isize;
        // SAFETY: the caller guarantees the syscall and its buffer; the
        // `syscall` instruction clobbers only rax, rcx and r11.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    pub fn get_affinity(mask: &mut [u64; MASK_WORDS]) -> bool {
        let len = std::mem::size_of_val(mask);
        // SAFETY: `mask` is a live, writable buffer of exactly `len` bytes.
        unsafe { syscall3(SCHED_GETAFFINITY, 0, len, mask.as_mut_ptr() as usize) > 0 }
    }

    pub fn set_affinity(mask: &[u64; MASK_WORDS]) -> bool {
        let len = std::mem::size_of_val(mask);
        // SAFETY: `mask` is a live buffer of exactly `len` bytes.
        unsafe { syscall3(SCHED_SETAFFINITY, 0, len, mask.as_ptr() as usize) == 0 }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use super::MASK_WORDS;

    pub fn get_affinity(_: &mut [u64; MASK_WORDS]) -> bool {
        false
    }

    pub fn set_affinity(_: &[u64; MASK_WORDS]) -> bool {
        false
    }
}
