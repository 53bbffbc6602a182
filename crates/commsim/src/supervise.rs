//! Self-healing worlds: deterministic chaos plans and what a recovery
//! reports.
//!
//! A [`ChaosPlan`] is the kill-side mirror of [`crate::FaultPlan`]: a
//! deterministic schedule of rank deaths ([`KillSpec`]s) injected by the
//! serving engine at step boundaries. Each event fires **exactly once** —
//! after [`crate::PersistentWorld::respawn`] heals the world, the retried request
//! runs clean, which is what makes post-recovery rollouts
//! bitwise-comparable to a never-killed world.
//!
//! [`crate::PersistentWorld::respawn`] is the membership-recovery protocol itself:
//! it rebuilds the mesh under a fresh generation epoch, hands every rank
//! its new communicator, and times the gap onto the
//! `pdeml_rank_respawns_total` / `pdeml_recovery_ms` series through
//! [`record_recovery`], returning a [`RecoveryReport`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One scheduled rank death.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// The rank that dies.
    pub rank: usize,
    /// The request (serving epoch) during which it dies.
    pub request: usize,
    /// The rollout step within that request (0 = before the first step).
    pub step: usize,
}

struct ChaosEvent {
    spec: KillSpec,
    fired: AtomicBool,
}

/// A deterministic kill schedule. Cloning shares the fired-state, so a
/// plan distributed across many rank threads still fires each event
/// exactly once no matter which thread asks first.
#[derive(Clone)]
pub struct ChaosPlan {
    events: Arc<Vec<ChaosEvent>>,
}

impl ChaosPlan {
    /// A plan firing each of `kills` once.
    pub fn new(kills: Vec<KillSpec>) -> Self {
        Self {
            events: Arc::new(
                kills
                    .into_iter()
                    .map(|spec| ChaosEvent {
                        spec,
                        fired: AtomicBool::new(false),
                    })
                    .collect(),
            ),
        }
    }

    /// True exactly once for the event matching `(rank, request, step)` —
    /// the engine's per-step kill check. Compare-and-swap on the event's
    /// fired flag, so the retried (post-recovery) request sails through.
    pub fn should_kill(&self, rank: usize, request: usize, step: usize) -> bool {
        self.events.iter().any(|ev| {
            ev.spec.rank == rank
                && ev.spec.request == request
                && ev.spec.step == step
                && !ev.fired.swap(true, Ordering::AcqRel)
        })
    }
}

/// What one healing pass did.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Ranks that were dead and came back.
    pub respawned: Vec<usize>,
    /// Wall-clock time from detection to a fully rebuilt mesh.
    pub elapsed: Duration,
}

/// Records one completed recovery on the live series: one
/// `pdeml_rank_respawns_total` increment per rank (on that rank's shard,
/// so `/metrics` shows `{rank="N"}`) and the gap duration on the
/// `pdeml_recovery_ms` histogram. Shared by
/// [`crate::PersistentWorld::respawn`] and the multi-process driver (which
/// respawns OS processes instead of threads but reports identically).
pub fn record_recovery(respawned: &[usize], elapsed: Duration) {
    for &rank in respawned {
        crate::live::respawns().inc(rank);
    }
    crate::live::recovery_ms().record(elapsed.as_millis() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn should_kill_fires_exactly_once_even_via_clones() {
        let plan = ChaosPlan::new(vec![KillSpec {
            rank: 2,
            request: 1,
            step: 3,
        }]);
        let clone = plan.clone();
        assert!(!plan.should_kill(2, 1, 2), "wrong step");
        assert!(!plan.should_kill(1, 1, 3), "wrong rank");
        assert!(plan.should_kill(2, 1, 3), "first match fires");
        assert!(
            !clone.should_kill(2, 1, 3),
            "clones share fired-state: the retried request must run clean"
        );
    }
}
