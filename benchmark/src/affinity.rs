//! Fixes which CPU the threads of a rollout run on.
//!
//! Left to the kernel, the three threads of a toy rollout (the client and
//! two ranks, handing work to each other every few microseconds) end up
//! stacked on one CPU in some runs and spread over two in others, and a
//! request costs 50 µs or 140 µs accordingly — for the whole run, decided by
//! what the machine did just before. Pinning makes it the same every time:
//! rank `N` on CPU `N`, as the paper's one-rank-per-core design has it, and
//! the client on CPU 0 for as long as it drives a closed loop.

use std::sync::OnceLock;

extern "C" {
    /// `sched_setaffinity(2)`; `mask` points at `cpusetsize` bytes of CPU bits.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Name the workspace gives its rank threads (`pdeml-rank-<N>`).
const RANK_THREAD_PREFIX: &str = "pdeml-rank-";

/// CPUs this process may use, counted before anything is pinned (a pinned
/// thread would count only its own). `main` calls this first.
pub fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(64)
    })
}

/// Restricts thread `tid` (0 = the caller) to the CPUs set in `mask`.
fn set_affinity(tid: i32, mask: u64) -> Result<(), String> {
    // SAFETY: `mask` is a live 8-byte CPU set and 8 is its size; `tid` is 0
    // or a thread id just read from /proc/self/task.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "cannot set the CPUs of thread {tid} to {mask:#b}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Pins the calling thread to the CPU of rank `rank`, for good.
pub fn pin_this_rank(rank: usize) -> Result<(), String> {
    set_affinity(0, 1 << (rank % cpus()))
}

/// Pins every live rank thread of this process to the CPU of its rank.
/// Returns how many it found.
pub fn pin_ranks() -> Result<usize, String> {
    let mut pinned = 0;
    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for task in tasks.flatten() {
        let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        let rank = name
            .trim()
            .strip_prefix(RANK_THREAD_PREFIX)
            .and_then(|r| r.parse::<usize>().ok());
        let tid = task.file_name().to_string_lossy().parse::<i32>().ok();
        if let (Some(rank), Some(tid)) = (rank, tid) {
            set_affinity(tid, 1 << (rank % cpus()))?;
            pinned += 1;
        }
    }
    Ok(pinned)
}

/// The calling thread on CPU 0 until this is dropped; every CPU again after,
/// so that threads it spawns later are not born pinned.
pub struct ClientPin(());

impl ClientPin {
    pub fn new() -> Result<ClientPin, String> {
        cpus();
        set_affinity(0, 1).map(ClientPin)
    }
}

impl Drop for ClientPin {
    fn drop(&mut self) {
        let _ = set_affinity(0, u64::MAX >> (64 - cpus()));
    }
}
