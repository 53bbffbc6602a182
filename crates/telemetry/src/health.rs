//! Explicit health model behind `/healthz` and `/readyz`.
//!
//! A [`HealthModel`] is a named list of checks, each a closure returning a
//! [`CheckStatus`]. The serving stack registers checks over the state it
//! already maintains (commsim rank-aliveness `AtomicBool`s, the
//! world-poisoned flag, degraded-fallback rates) rather than the exporter
//! guessing health from metric values:
//!
//! * `/healthz` (liveness) fails only on [`CheckStatus::Failed`] — a
//!   degraded engine is still alive and should not be restarted;
//! * `/readyz` (readiness) requires every check [`CheckStatus::Ok`] — a
//!   degraded engine should stop receiving new traffic.

use std::sync::Mutex;

/// Outcome of one health check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckStatus {
    /// Fully healthy.
    Ok,
    /// Alive but impaired (e.g. fallback rate over threshold). Fails
    /// readiness, passes liveness.
    Degraded(String),
    /// Dead or unrecoverable (e.g. poisoned world). Fails both.
    Failed(String),
}

/// Aggregate across all checks: worst individual status wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    Healthy,
    Degraded,
    Unhealthy,
}

impl Health {
    /// Lowercase label used in JSON output and the exporter bodies.
    pub fn as_str(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Unhealthy => "unhealthy",
        }
    }
}

type Check = Box<dyn Fn() -> CheckStatus + Send + Sync>;

/// A registry of named health checks, evaluated on demand.
#[derive(Default)]
pub struct HealthModel {
    checks: Mutex<Vec<(&'static str, Check)>>,
}

/// Evaluated state of every check at one instant.
pub struct HealthReport {
    /// `(check name, status)` in registration order.
    pub checks: Vec<(&'static str, CheckStatus)>,
    /// Worst status across `checks`.
    pub overall: Health,
}

impl HealthModel {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named check. Checks run at every `/healthz`/`/readyz` hit, so
    /// they must be cheap (atomic loads, a division).
    pub fn register(
        &self,
        name: &'static str,
        check: impl Fn() -> CheckStatus + Send + Sync + 'static,
    ) {
        self.checks.lock().unwrap().push((name, Box::new(check)));
    }

    /// Runs every check.
    pub fn report(&self) -> HealthReport {
        let checks = self.checks.lock().unwrap();
        let mut out = Vec::with_capacity(checks.len());
        let mut overall = Health::Healthy;
        for (name, check) in checks.iter() {
            let status = check();
            match status {
                CheckStatus::Ok => {}
                CheckStatus::Degraded(_) => {
                    if overall == Health::Healthy {
                        overall = Health::Degraded;
                    }
                }
                CheckStatus::Failed(_) => overall = Health::Unhealthy,
            }
            out.push((*name, status));
        }
        HealthReport {
            checks: out,
            overall,
        }
    }

    /// Liveness: no check has `Failed`.
    pub fn live(&self) -> bool {
        self.report().overall != Health::Unhealthy
    }

    /// Readiness: every check is `Ok`.
    pub fn ready(&self) -> bool {
        self.report().overall == Health::Healthy
    }
}

/// A `ranks_alive` check over a world's shared per-rank aliveness flags.
///
/// Evaluates the flags **live on every call** instead of latching the view
/// that existed when the check was registered — so a world healed by a
/// supervisor (dead ranks respawned, flags re-armed) transitions
/// Failed → Ok on the very next `/readyz` probe, with no re-registration.
/// Dead ranks report [`CheckStatus::Failed`] because a lost rank's whole
/// subdomain is missing: the world cannot serve until it is healed.
pub fn ranks_alive_check(
    flags: std::sync::Arc<Vec<std::sync::atomic::AtomicBool>>,
) -> impl Fn() -> CheckStatus + Send + Sync {
    move || {
        let dead: Vec<String> = flags
            .iter()
            .enumerate()
            .filter(|(_, alive)| !alive.load(std::sync::atomic::Ordering::Acquire))
            .map(|(rank, _)| rank.to_string())
            .collect();
        if dead.is_empty() {
            CheckStatus::Ok
        } else {
            CheckStatus::Failed(format!("dead ranks: {}", dead.join(", ")))
        }
    }
}

impl HealthReport {
    /// One line per check plus an overall line — the `/healthz`/`/readyz`
    /// response body.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for (name, status) in &self.checks {
            match status {
                CheckStatus::Ok => s.push_str(&format!("ok {name}\n")),
                CheckStatus::Degraded(why) => s.push_str(&format!("degraded {name}: {why}\n")),
                CheckStatus::Failed(why) => s.push_str(&format!("failed {name}: {why}\n")),
            }
        }
        s.push_str(&format!("overall: {}\n", self.overall.as_str()));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn empty_model_is_healthy_and_ready() {
        let m = HealthModel::new();
        assert!(m.live());
        assert!(m.ready());
        assert_eq!(m.report().overall, Health::Healthy);
    }

    #[test]
    fn degraded_fails_ready_but_not_live() {
        let m = HealthModel::new();
        m.register("fallbacks", || CheckStatus::Degraded("rate 0.8".into()));
        assert!(m.live());
        assert!(!m.ready());
        assert_eq!(m.report().overall, Health::Degraded);
    }

    #[test]
    fn recovered_world_transitions_failed_to_ok() {
        // Regression: the ranks_alive check must read the flags live, not
        // latch the dead-rank view it saw when a rank died — otherwise a
        // healed world stays Failed forever.
        let flags: Arc<Vec<AtomicBool>> = Arc::new((0..4).map(|_| AtomicBool::new(true)).collect());
        let m = HealthModel::new();
        m.register("ranks_alive", ranks_alive_check(flags.clone()));
        assert!(m.ready(), "all ranks alive: Ok");

        flags[2].store(false, Ordering::Release);
        assert!(!m.live(), "a dead rank is Failed, not Degraded");
        assert!(m
            .report()
            .describe()
            .contains("failed ranks_alive: dead ranks: 2"));

        // A respawn brings rank 2 back and re-arms the shared flag.
        flags[2].store(true, Ordering::Release);
        assert!(m.live() && m.ready(), "healed world must read Ok again");
        assert_eq!(m.report().overall, Health::Healthy);
    }

    #[test]
    fn failed_check_fails_both_and_tracks_state() {
        let poisoned = Arc::new(AtomicBool::new(false));
        let m = HealthModel::new();
        let p = poisoned.clone();
        m.register("world", move || {
            if p.load(Ordering::Acquire) {
                CheckStatus::Failed("poisoned".into())
            } else {
                CheckStatus::Ok
            }
        });
        assert!(m.live() && m.ready());
        poisoned.store(true, Ordering::Release);
        assert!(!m.live());
        assert!(!m.ready());
        let desc = m.report().describe();
        assert!(desc.contains("failed world: poisoned"));
        assert!(desc.contains("overall: unhealthy"));
    }
}
