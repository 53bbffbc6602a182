//! Where a training rank's thread starts running.
//!
//! A thread is born on the CPU of the thread that spawned it, and the kernel
//! may take a second to move one of two busy threads to an idle core. A
//! two-rank training run therefore spent its first second at half speed in
//! about half its runs (same CPU time, 0.5 s more wall time at paper shape),
//! decided by where the caller happened to be. The paper's layout is one rank
//! per core, so each rank thread asks for that once, before it computes.

/// Moves the calling thread to the `rank`-th CPU it may use (modulo their
/// number), then gives it back the affinity mask it had, so the scheduler
/// stays free to move it and kernel-pool threads spawned later are not born
/// pinned. Any failure leaves the thread where it was.
#[cfg(target_os = "linux")]
pub(crate) fn start_on_own_cpu(rank: usize) {
    let Some(allowed) = affinity() else { return };
    let cpus = (0..64 * allowed.len()).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1);
    let count = cpus.clone().count();
    if count < 2 {
        return;
    }
    let Some(cpu) = cpus.clone().nth(rank % count) else {
        return;
    };
    let mut own: CpuSet = [0; 16];
    own[cpu / 64] = 1 << (cpu % 64);
    if set_affinity(&own) {
        set_affinity(&allowed);
    }
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn start_on_own_cpu(_rank: usize) {}

/// glibc's `cpu_set_t`: one bit per CPU, 1024 CPUs.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    /// `sched_getaffinity(2)` and `sched_setaffinity(2)`; pid 0 is the caller.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on.
#[cfg(target_os = "linux")]
fn affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable CPU set of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

/// Restricts the calling thread to `set`; false if the kernel refused.
#[cfg(target_os = "linux")]
fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live CPU set of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    // Where a thread ends up is the scheduler's business once the mask is
    // back (the effect is measured, see EXPERIMENTS F4); what must hold is
    // that the hint leaves no thread pinned.
    #[test]
    fn the_hint_gives_the_mask_back() {
        let before = affinity().expect("sched_getaffinity");
        for rank in 0..4 {
            let after = std::thread::spawn(move || {
                start_on_own_cpu(rank);
                affinity()
            })
            .join()
            .unwrap();
            assert_eq!(after, Some(before), "rank {rank} kept a changed mask");
        }
    }

    #[test]
    fn a_single_cpu_mask_is_left_alone() {
        std::thread::spawn(|| {
            let all = affinity().unwrap();
            let first = (0..1024)
                .find(|&c| all[c / 64] >> (c % 64) & 1 == 1)
                .unwrap();
            let mut one: CpuSet = [0; 16];
            one[first / 64] = 1 << (first % 64);
            assert!(set_affinity(&one));
            start_on_own_cpu(3);
            assert_eq!(affinity(), Some(one));
        })
        .join()
        .unwrap();
    }
}
