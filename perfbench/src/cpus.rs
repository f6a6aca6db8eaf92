//! Spreading a single-threaded loop over every CPU the process may use.
//!
//! A lone busy thread stays on the CPU the scheduler first gives it. On a
//! shared host the CPUs of one virtual machine can differ in speed by a
//! quarter, and which one is slower changes from minute to minute, so a
//! single-client run's latencies depended on where it landed: `dblp-cold`'s
//! median read 29–32 ms in some runs and 36–44 ms in others, and one seed
//! pinned to each of two CPUs read 44 and 33 ms. Moving the thread to the
//! next allowed CPU before each request makes every run sample all of them
//! in equal shares.

/// Moves the calling thread round-robin over the CPUs it was allowed at
/// creation; dropping it restores the original set. Where the affinity
/// calls are unavailable, or only one CPU is allowed, it does nothing.
pub struct CpuRotation {
    original: Option<affinity::CpuSet>,
    cpus: Vec<usize>,
    next: usize,
}

impl CpuRotation {
    pub fn new() -> Self {
        let original = affinity::get();
        let cpus = original.as_ref().map_or_else(Vec::new, affinity::members);
        Self {
            original,
            cpus,
            next: 0,
        }
    }

    /// CPUs the rotation visits (0 when it does nothing).
    pub fn len(&self) -> usize {
        if self.cpus.len() > 1 {
            self.cpus.len()
        } else {
            0
        }
    }

    /// Moves the thread to the next CPU. Returns whether the move took.
    pub fn advance(&mut self) -> bool {
        if self.cpus.len() < 2 {
            return false;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        affinity::set(&affinity::only(cpu))
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if let Some(original) = &self.original {
            affinity::set(original);
        }
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// glibc's `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    const SIZE: usize = std::mem::size_of::<CpuSet>();

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's allowed CPUs.
    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // lint: allow(no-unsafe, reason = "FFI: glibc writes at most SIZE bytes into the array it is given")
        let rc = unsafe { sched_getaffinity(0, SIZE, set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// Restricts the calling thread to `set`.
    pub fn set(set: &CpuSet) -> bool {
        // lint: allow(no-unsafe, reason = "FFI: glibc reads SIZE bytes from the array it is given")
        let rc = unsafe { sched_setaffinity(0, SIZE, set.as_ptr()) };
        rc == 0
    }

    pub fn members(set: &CpuSet) -> Vec<usize> {
        (0..set.len() * 64)
            .filter(|&cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    pub fn only(cpu: usize) -> CpuSet {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        set
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub type CpuSet = ();

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) -> bool {
        false
    }

    pub fn members(_: &CpuSet) -> Vec<usize> {
        Vec::new()
    }

    pub fn only(_: usize) -> CpuSet {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_visits_every_allowed_cpu_and_restores_the_set() {
        let before = affinity::get();
        let mut rotation = CpuRotation::new();
        for _ in 0..2 * rotation.len() {
            assert!(rotation.advance());
        }
        drop(rotation);
        assert_eq!(affinity::get(), before);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn cpu_sets_round_trip() {
        let set = affinity::only(70);
        assert_eq!(affinity::members(&set), vec![70]);
    }
}
