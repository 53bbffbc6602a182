//! Dependency-free intra-rank worker pool for the dense kernels.
//!
//! The workspace's parallel runtime is one OS thread per rank
//! (`pde-commsim`); this pool adds a *second* level of parallelism inside a
//! rank without oversubscribing the machine: each rank thread owns a lazily
//! spawned pool of `budget − 1` workers and participates in every job
//! itself, so a budget of 1 (the default) spawns nothing and runs inline —
//! bit-for-bit the unthreaded code path.
//!
//! Jobs are expressed as `n_chunks` independent chunk indices; threads claim
//! chunks from a shared atomic cursor (cheap work stealing), so an uneven
//! chunk cost profile self-balances. The chunk → data mapping is fixed by
//! the caller, which is what keeps threaded kernels deterministic: every
//! output element is computed by exactly one chunk with the same operation
//! order no matter which thread runs it, so results are identical for every
//! budget (asserted by the tests below and `tests/kernel_paths.rs`).
//!
//! Steady-state [`run`] performs **zero heap allocations**: the job is
//! published as a raw wide pointer, chunk claiming is one `fetch_add`, and
//! the rendezvous is a `Mutex`/`Condvar` pair created at spawn time. A panic
//! inside a chunk is caught on the executing thread, the pool is flagged
//! *poisoned*, the job still runs to completion on the surviving threads
//! (never a hang), and [`run`] re-raises the failure as a panic on the
//! caller. A poisoned pool refuses further jobs.
//!
//! Budget resolution (see [`thread_budget`]): explicit
//! [`set_thread_budget`] > `PDEML_THREADS_PER_RANK` env var > 1. The
//! world-aware default (cores / ranks) is computed by [`resolve_budget`] and
//! installed on each rank thread by the training / serving drivers.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

thread_local! {
    /// Explicit per-thread budget (None = fall back to env / 1).
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
    /// This thread's lazily spawned pool.
    static POOL: RefCell<Option<Pool>> = const { RefCell::new(None) };
    /// True while this thread executes inside [`run`] — nested calls run
    /// inline instead of re-entering the pool.
    static IN_RUN: Cell<bool> = const { Cell::new(false) };
}

/// Cores visible to this process (1 if the query fails).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// `PDEML_THREADS_PER_RANK` (`None` = unset), or a one-line hint when it is
/// non-numeric or zero — silently clamping a typo would hide a
/// misconfiguration. Front ends call this up front to refuse a bad value
/// before any work starts; the budget lookups panic with the same hint.
pub fn env_thread_budget() -> Result<Option<usize>, String> {
    let Ok(raw) = std::env::var("PDEML_THREADS_PER_RANK") else {
        return Ok(None);
    };
    match raw.parse::<usize>() {
        Ok(0) => Err("PDEML_THREADS_PER_RANK=0 would disable the kernels; \
                      set 1 for single-threaded or unset it"
            .to_string()),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "PDEML_THREADS_PER_RANK={raw:?} is not a thread count; \
             set a positive integer (e.g. 1) or unset it"
        )),
    }
}

/// [`env_thread_budget`], once per process.
///
/// # Panics
/// On a value [`env_thread_budget`] refuses.
fn env_budget() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| env_thread_budget().unwrap_or_else(|e| panic!("{e}")))
}

/// Sets this thread's kernel thread budget (total threads including the
/// caller; 1 = run everything inline). Overrides the environment.
///
/// # Panics
/// If `n` is 0.
pub fn set_thread_budget(n: usize) {
    assert!(n >= 1, "thread budget must be >= 1 (1 = inline)");
    BUDGET.with(|b| b.set(Some(n)));
    crate::live::set_threads_active(n);
}

/// The kernel thread budget in effect on this thread: the last
/// [`set_thread_budget`] value, else `PDEML_THREADS_PER_RANK`, else 1.
pub fn thread_budget() -> usize {
    BUDGET.with(Cell::get).or_else(env_budget).unwrap_or(1)
}

/// The ISSUE-6 composition rule: `ranks` ranks sharing `cores` cores get
/// `max(1, cores / ranks)` kernel threads each, so a full world never
/// oversubscribes the machine.
fn fair_share(cores: usize, ranks: usize) -> usize {
    (cores / ranks.max(1)).max(1)
}

/// The budget a rank should install: an explicit configuration value wins,
/// then the `PDEML_THREADS_PER_RANK` env var, then this machine's
/// `fair_share` among `ranks` — every rank that computes at the same time,
/// across all sub-worlds.
pub fn resolve_budget(explicit: Option<usize>, ranks: usize) -> usize {
    explicit
        .or_else(env_budget)
        .unwrap_or_else(|| fair_share(available_cores(), ranks))
}

/// Runs `f(chunk)` for every `chunk in 0..n_chunks`, spreading chunks over
/// this thread's pool. The caller participates; with a budget of 1 (or a
/// single chunk, or a nested call) everything runs inline on the caller.
///
/// Chunks must write disjoint data. Each chunk index is executed exactly
/// once; the chunk → thread assignment is unspecified, so determinism must
/// come from the chunk → data mapping (it does, for every caller in this
/// crate).
///
/// # Panics
/// If any chunk panics (after all threads finish the job), or if the pool
/// was poisoned by an earlier panic.
pub fn run(n_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    let budget = thread_budget();
    if budget <= 1 || n_chunks <= 1 || IN_RUN.with(Cell::get) {
        for i in 0..n_chunks {
            f(i);
        }
        return;
    }
    IN_RUN.with(|g| g.set(true));
    let result = catch_unwind(AssertUnwindSafe(|| {
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            let want = budget - 1;
            if p.as_ref().map(|pl| pl.workers.len()) != Some(want) {
                *p = None; // join any old pool before resizing
                *p = Some(Pool::new(want));
            }
            p.as_mut().unwrap().run(n_chunks, f);
        });
    }));
    IN_RUN.with(|g| g.set(false));
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
}

/// Job published to the workers: a lifetime-erased wide pointer. Sound
/// because [`Pool::run`] does not return until every worker has finished
/// the epoch, so the pointee outlives every dereference.
#[derive(Clone, Copy)]
struct RawJob(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` and outlives the job (see above).
unsafe impl Send for RawJob {}

struct Slot {
    /// Bumped per job; workers use it to recognize fresh work.
    epoch: u64,
    job: Option<RawJob>,
    n_chunks: usize,
    /// Workers still inside the current epoch.
    active: usize,
    quit: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Next unclaimed chunk of the current job.
    next: AtomicUsize,
    /// Set when any chunk panicked; permanent.
    poisoned: AtomicBool,
}

struct Pool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    fn new(workers: usize) -> Pool {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                n_chunks: 0,
                active: 0,
                quit: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pdeml-kernel-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn kernel pool worker")
            })
            .collect();
        Pool {
            shared,
            workers: handles,
        }
    }

    fn run(&mut self, n_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        let shared = &*self.shared;
        assert!(
            !shared.poisoned.load(Ordering::Acquire),
            "pde_tensor::pool: pool is poisoned by an earlier worker panic"
        );
        {
            let mut slot = shared.slot.lock().unwrap();
            shared.next.store(0, Ordering::Relaxed);
            slot.epoch += 1;
            // SAFETY: lifetime erasure only — `run` blocks until every worker
            // has left this epoch (the `active > 0` rendezvous below), so the
            // pointer never outlives the borrow it came from.
            let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
            slot.job = Some(RawJob(f_static as *const _));
            slot.n_chunks = n_chunks;
            slot.active = self.workers.len();
            shared.work_cv.notify_all();
        }
        // The caller is a full participant in the chunk race. A panicking
        // chunk must not unwind past this frame while workers still hold the
        // job pointer, so it is caught and re-raised after the rendezvous.
        claim_chunks(shared, n_chunks, f);
        let mut slot = shared.slot.lock().unwrap();
        while slot.active > 0 {
            slot = shared.done_cv.wait(slot).unwrap();
        }
        slot.job = None;
        drop(slot);
        assert!(
            !shared.poisoned.load(Ordering::Acquire),
            "pde_tensor::pool: a kernel chunk panicked; pool poisoned"
        );
    }
}

/// Claims and runs chunks until the cursor passes `n_chunks`. Panics are
/// absorbed into the poison flag so the epoch always completes.
fn claim_chunks(shared: &Shared, n_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    loop {
        let i = shared.next.fetch_add(1, Ordering::Relaxed);
        if i >= n_chunks {
            return;
        }
        if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            shared.poisoned.store(true, Ordering::Release);
        }
    }
}

fn worker_loop(shared: &Shared) {
    // Workers never nest pools of their own.
    BUDGET.with(|b| b.set(Some(1)));
    let mut seen = 0u64;
    loop {
        let (job, n_chunks) = {
            let mut slot = shared.slot.lock().unwrap();
            loop {
                if slot.quit {
                    return;
                }
                if slot.epoch != seen && slot.job.is_some() {
                    break;
                }
                slot = shared.work_cv.wait(slot).unwrap();
            }
            seen = slot.epoch;
            (slot.job.unwrap(), slot.n_chunks)
        };
        // SAFETY: `Pool::run` keeps the pointee alive until `active` drops
        // to zero, which happens strictly after this dereference.
        let f = unsafe { &*job.0 };
        claim_chunks(shared, n_chunks, f);
        let mut slot = shared.slot.lock().unwrap();
        slot.active -= 1;
        if slot.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.quit = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Tests mutate the thread-local budget; each restores budget 1 so the
    /// surrounding test threads stay unthreaded.
    struct BudgetGuard;
    impl Drop for BudgetGuard {
        fn drop(&mut self) {
            set_thread_budget(1);
        }
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let _g = BudgetGuard;
        for budget in [1, 2, 4] {
            set_thread_budget(budget);
            let hits: Vec<AtomicU64> = (0..37).map(|_| AtomicU64::new(0)).collect();
            run(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {i} (budget {budget})");
            }
        }
    }

    #[test]
    fn chunk_to_data_mapping_is_deterministic_across_budgets() {
        let _g = BudgetGuard;
        // Each chunk owns slot i and writes a value derived from i alone;
        // any cross-thread interference or double execution would corrupt
        // the comparison against the inline (budget-1) reference.
        let compute = || {
            let out: Vec<AtomicU64> = (0..129).map(|_| AtomicU64::new(0)).collect();
            run(out.len(), &|i| {
                let mut v = i as f64 + 1.0;
                for _ in 0..1000 {
                    v = v.mul_add(1.000_1, -0.5);
                }
                out[i].store(v.to_bits(), Ordering::Relaxed);
            });
            out.into_iter()
                .map(AtomicU64::into_inner)
                .collect::<Vec<_>>()
        };
        set_thread_budget(1);
        let seq = compute();
        for budget in [2, 3, 4] {
            set_thread_budget(budget);
            assert_eq!(
                seq,
                compute(),
                "budget {budget} diverged from inline execution"
            );
        }
    }

    #[test]
    fn worker_panic_poisons_instead_of_hanging() {
        let _g = BudgetGuard;
        let result = std::thread::spawn(|| {
            set_thread_budget(3);
            let first = catch_unwind(AssertUnwindSafe(|| {
                run(16, &|i| {
                    if i == 7 {
                        panic!("injected chunk failure");
                    }
                });
            }));
            assert!(first.is_err(), "panic in a chunk must reach the caller");
            // The pool is now permanently poisoned: the next job fails fast.
            let second = catch_unwind(AssertUnwindSafe(|| run(4, &|_| {})));
            let payload = second.expect_err("poisoned pool must reject jobs");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            assert!(msg.contains("poisoned"), "unexpected message: {msg}");
        })
        .join();
        result.unwrap();
    }

    #[test]
    fn budget_one_runs_inline_without_spawning() {
        let _g = BudgetGuard;
        set_thread_budget(1);
        let caller = std::thread::current().id();
        run(8, &|_| {
            assert_eq!(std::thread::current().id(), caller);
        });
        POOL.with(|p| assert!(p.borrow().is_none(), "budget 1 must not spawn a pool"));
    }

    #[test]
    fn nested_run_executes_inline() {
        let _g = BudgetGuard;
        set_thread_budget(2);
        let outer_hits = AtomicU64::new(0);
        run(2, &|_| {
            // Nested call: must complete inline on whichever thread runs it.
            run(3, &|_| {
                outer_hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer_hits.load(Ordering::Relaxed), 6);
    }

    #[test]
    #[should_panic(expected = "budget must be >= 1")]
    fn zero_budget_rejected() {
        set_thread_budget(0);
    }

    #[test]
    fn resolve_budget_prefers_explicit_value() {
        assert_eq!(resolve_budget(Some(3), 4), 3);
        // Default rule: cores/ranks, floored at 1. With `ranks` larger than
        // any machine this always lands on the floor.
        assert_eq!(resolve_budget(None, 1 << 20), 1);
    }

    #[test]
    fn fair_share_divides_the_cores_among_every_rank_on_the_machine() {
        // 2 sub-worlds × 2 ranks on 8 cores: 2 threads a rank, 8 in all —
        // not the 4 a rank would get counting only its own sub-world.
        assert_eq!(fair_share(8, 2 * 2), 2);
        assert_eq!(fair_share(8, 2), 4);
        assert_eq!(fair_share(2, 4), 1);
        assert_eq!(fair_share(8, 0), 8);
    }
}
