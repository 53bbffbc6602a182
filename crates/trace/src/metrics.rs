//! Per-rank aggregation of trace events: the `--trace` summary table.
//!
//! Each row holds only what the trace itself knows — event counts, span
//! coverage per category and the `send` / `halo_lost` instants. The
//! runtime's own ledgers stay where they are kept: traffic in commsim's
//! `TrafficReport`, compute in `pde_tensor::perf::PerfCounters`.

use crate::{names, Category, Kind, TraceEvent, DRIVER_RANK};
use std::collections::HashMap;

/// One rank's trace-derived record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankMetrics {
    pub rank: u32,
    /// Events captured for this rank.
    pub events: u64,
    /// Events lost to ring overflow (0 in a lossless capture).
    pub dropped: u64,
    /// Wall-clock microseconds with at least one open span of the category
    /// (interval union, indexed by `Category::index`): nested spans do not
    /// double-count, so this never exceeds the rank's wall time. This is
    /// what the summary table prints.
    pub busy_us: [u64; Category::COUNT],
    /// `send` events counted from the trace.
    pub traced_sends: u64,
    /// Payload bytes summed over traced `send` events; equals the runtime's
    /// own `bytes_sent` per rank in a lossless capture (`tests/pipeline.rs`).
    pub traced_bytes_sent: u64,
    /// `halo_lost` point events observed in the trace.
    pub traced_halos_lost: u64,
}

impl RankMetrics {
    /// Wall-clock time with at least one open span of the category, in
    /// seconds (see [`RankMetrics::busy_us`]; nesting does not double-count).
    pub fn seconds_in(&self, cat: Category) -> f64 {
        self.busy_us[cat.index()] as f64 / 1e6
    }
}

/// Total covered microseconds of a set of `[start, end)` intervals
/// (classic sort-and-sweep union).
fn union_us(mut ivals: Vec<(u64, u64)>) -> u64 {
    ivals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in ivals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Aggregates raw events into per-rank metrics, sorted by rank with the
/// driver row (if any) last.
pub fn summarize(events: &[TraceEvent], dropped_by_rank: &HashMap<u32, u64>) -> Vec<RankMetrics> {
    let mut by_rank: HashMap<u32, RankMetrics> = HashMap::new();
    let mut cat_ivals: HashMap<(u32, usize), Vec<(u64, u64)>> = HashMap::new();
    for ev in events {
        let m = by_rank.entry(ev.rank).or_insert_with(|| RankMetrics {
            rank: ev.rank,
            ..RankMetrics::default()
        });
        m.events += 1;
        match ev.kind {
            Kind::Span => cat_ivals
                .entry((ev.rank, ev.cat.index()))
                .or_default()
                .push((ev.ts_us, ev.ts_us + ev.dur_us)),
            Kind::Instant => match ev.name {
                names::SEND => {
                    m.traced_sends += 1;
                    m.traced_bytes_sent += ev.a1;
                }
                names::HALO_LOST => m.traced_halos_lost += 1,
                _ => {}
            },
        }
    }
    for ((rank, cat), ivals) in cat_ivals {
        by_rank.get_mut(&rank).expect("rank seen above").busy_us[cat] = union_us(ivals);
    }
    for (&rank, &dropped) in dropped_by_rank {
        by_rank
            .entry(rank)
            .or_insert_with(|| RankMetrics {
                rank,
                ..RankMetrics::default()
            })
            .dropped = dropped;
    }
    let mut out: Vec<RankMetrics> = by_rank.into_values().collect();
    out.sort_by_key(|m| {
        if m.rank == DRIVER_RANK {
            u64::MAX
        } else {
            m.rank as u64
        }
    });
    out
}

/// Renders a fixed-width summary table, one row per rank (driver row last).
pub fn format_table(rows: &[RankMetrics]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>6} {:>9} {:>10} {:>10} {:>10} {:>10} {:>11} {:>6} {:>6}\n",
        "rank", "events", "train_ms", "infer_ms", "nn_ms", "comm_ms", "sent_bytes", "lost", "drop"
    ));
    for m in rows {
        let rank = if m.rank == DRIVER_RANK {
            "drv".to_string()
        } else {
            m.rank.to_string()
        };
        out.push_str(&format!(
            "{:>6} {:>9} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>11} {:>6} {:>6}\n",
            rank,
            m.events,
            m.seconds_in(Category::Train) * 1e3,
            m.seconds_in(Category::Infer) * 1e3,
            m.seconds_in(Category::Nn) * 1e3,
            m.seconds_in(Category::Comm) * 1e3,
            m.traced_bytes_sent,
            m.traced_halos_lost,
            m.dropped,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_ev(rank: u32, cat: Category, name: &'static str, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            rank,
            cat,
            kind: Kind::Span,
            name,
            ts_us: ts,
            dur_us: dur,
            a0: 0,
            a1: 0,
            req: 0,
        }
    }

    fn inst_ev(rank: u32, name: &'static str, a0: u64, a1: u64) -> TraceEvent {
        TraceEvent {
            rank,
            cat: Category::Comm,
            kind: Kind::Instant,
            name,
            ts_us: 0,
            dur_us: 0,
            a0,
            a1,
            req: 0,
        }
    }

    #[test]
    fn sums_bytes_waits_and_halo_outcomes_per_rank() {
        let events = [
            inst_ev(0, names::SEND, 1, 48),
            inst_ev(0, names::SEND, 1, 16),
            span_ev(0, Category::Comm, names::RECV, 0, 250),
            span_ev(0, Category::Comm, names::BARRIER, 300, 100),
            span_ev(0, Category::Train, names::EPOCH, 500, 900),
            inst_ev(1, names::HALO_LOST, 0, 0),
            span_ev(1, Category::Comm, names::HALO_RECV, 0, 40),
        ];
        let rows = summarize(&events, &HashMap::new());
        assert_eq!(rows.len(), 2);
        let r0 = &rows[0];
        assert_eq!(r0.rank, 0);
        assert_eq!(r0.traced_sends, 2);
        assert_eq!(r0.traced_bytes_sent, 64);
        assert_eq!(r0.busy_us[Category::Comm.index()], 350);
        assert_eq!(r0.busy_us[Category::Train.index()], 900);
        let r1 = &rows[1];
        assert_eq!(r1.traced_halos_lost, 1);
        assert_eq!(r1.busy_us[Category::Comm.index()], 40);
    }

    #[test]
    fn nested_spans_do_not_double_count_busy_time() {
        // An epoch [0, 1000) containing two batches, and a timed halo_recv
        // [0, 60) wrapping its inner recv [5, 45): `busy_us` reports wall
        // coverage, not the sum of the span durations.
        let events = [
            span_ev(0, Category::Train, names::EPOCH, 0, 1000),
            span_ev(0, Category::Train, names::BATCH, 10, 400),
            span_ev(0, Category::Train, names::BATCH, 450, 500),
            span_ev(0, Category::Comm, names::HALO_RECV, 0, 60),
            span_ev(0, Category::Comm, names::RECV, 5, 40),
        ];
        let rows = summarize(&events, &HashMap::new());
        let m = &rows[0];
        assert_eq!(m.busy_us[Category::Train.index()], 1000);
        assert_eq!(m.seconds_in(Category::Train), 1e-3);
        assert_eq!(m.busy_us[Category::Comm.index()], 60);
        // Disjoint intervals still sum exactly.
        assert_eq!(union_us(vec![(10, 20), (30, 40)]), 20);
        // Touching intervals merge without a gap or overlap error.
        assert_eq!(union_us(vec![(0, 10), (10, 25)]), 25);
    }

    #[test]
    fn driver_row_sorts_last_and_dropped_counts_surface() {
        let events = [
            span_ev(DRIVER_RANK, Category::Train, "setup", 0, 5),
            span_ev(2, Category::Train, names::EPOCH, 0, 5),
        ];
        let mut dropped = HashMap::new();
        dropped.insert(2u32, 9u64);
        let rows = summarize(&events, &dropped);
        assert_eq!(rows[0].rank, 2);
        assert_eq!(rows[0].dropped, 9);
        assert_eq!(rows[1].rank, DRIVER_RANK);
        let table = format_table(&rows);
        assert!(table.contains("drv"));
    }
}
