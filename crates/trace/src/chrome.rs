//! Chrome-trace (Trace Event Format) exporter.
//!
//! Emits the JSON object form `{"traceEvents": [...]}` accepted by Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`. Every rank becomes a
//! named thread track under one process, so comm stalls line up visually
//! against compute spans on neighbouring ranks. Timestamps are microseconds,
//! the unit the format specifies.
//!
//! A multi-process world exports one *shard* per process via
//! [`chrome_trace_json_for_pid`] (every event under that process's `pid`),
//! and [`merge_chrome_shards`] splices the shards into a single file whose
//! `pid` field keeps the processes apart — a 4-process rollout opens in
//! Perfetto as four process groups on one shared time axis.

use crate::{names, Kind, TraceEvent, DRIVER_RANK};

/// Exported tid for driver-thread events; ranks use their own number. Kept
/// far above any plausible world size so the driver row sorts last.
const DRIVER_TID: u64 = 1_000_000;

/// Human-meaningful arg key names per event, falling back to `a0`/`a1`.
fn arg_keys(name: &str) -> (&'static str, &'static str) {
    match name {
        names::SEND => ("dest", "bytes"),
        names::RECV | names::HALO_RECV | names::HALO_LOST | names::HALO_PEER_DEAD => {
            ("src", "bytes")
        }
        names::EPOCH | names::BATCH | names::STEP | names::ASSEMBLE => ("index", "a1"),
        names::FWD | names::BWD => ("layer", "fused_act"),
        names::GEMM => ("flops", "bytes_packed"),
        _ => ("a0", "a1"),
    }
}

fn tid(rank: u32) -> u64 {
    if rank == DRIVER_RANK {
        DRIVER_TID
    } else {
        rank as u64
    }
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Serializes events into Chrome-trace JSON under `pid` 0. Includes
/// `thread_name` and `thread_sort_index` metadata so ranks appear as
/// ordered "rank N" rows. See [`chrome_trace_json_for_pid`] for the
/// multi-process shard form.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    chrome_trace_json_for_pid(events, 0)
}

/// Serializes events into Chrome-trace JSON with every row under process
/// id `pid` — one shard of a multi-process world (the convention: a
/// process's shard pid is its world rank). A `process_name` metadata row
/// labels the process group in Perfetto; events recorded under a serving
/// request carry a `"req"` arg so a merged trace greps by request id.
pub fn chrome_trace_json_for_pid(events: &[TraceEvent], pid: u64) -> String {
    let mut ranks: Vec<u32> = events.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();

    // Rough sizing: ~160 bytes per event keeps reallocation negligible.
    let mut out = String::with_capacity(64 + ranks.len() * 128 + events.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    };

    sep(&mut out, &mut first);
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"pdeml proc {pid}\"}}}}",
    ));
    sep(&mut out, &mut first);
    out.push_str(&format!(
        "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"sort_index\":{pid}}}}}",
    ));
    for &rank in &ranks {
        let label = if rank == DRIVER_RANK {
            "driver".to_string()
        } else {
            format!("rank {rank}")
        };
        sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            tid(rank),
            label
        ));
        sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"sort_index\":{}}}}}",
            tid(rank),
            tid(rank)
        ));
    }

    for ev in events {
        sep(&mut out, &mut first);
        let (k0, k1) = arg_keys(ev.name);
        out.push_str("{\"name\":\"");
        push_escaped(&mut out, ev.name);
        out.push_str("\",\"cat\":\"");
        out.push_str(ev.cat.as_str());
        out.push_str("\",\"ph\":\"");
        match ev.kind {
            Kind::Span => {
                out.push_str(&format!("X\",\"ts\":{},\"dur\":{}", ev.ts_us, ev.dur_us));
            }
            Kind::Instant => {
                out.push_str(&format!("i\",\"s\":\"t\",\"ts\":{}", ev.ts_us));
            }
        }
        out.push_str(&format!(
            ",\"pid\":{pid},\"tid\":{},\"args\":{{\"{}\":{},\"{}\":{}",
            tid(ev.rank),
            k0,
            ev.a0,
            k1,
            ev.a1
        ));
        if ev.req != 0 {
            out.push_str(&format!(",\"req\":{}", ev.req));
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// Merges per-process Chrome-trace shards — each produced by
/// [`chrome_trace_json_for_pid`] with a distinct pid — into one Chrome
/// Trace Event file. Shards already share a time axis (each process stamps
/// microseconds from its own trace epoch, which for a lockstep world start
/// within the rendezvous window), so the merge is a pure splice of each
/// shard's `traceEvents` array: no event is re-parsed, re-stamped, or
/// dropped, and merged event count == the sum of shard event counts.
///
/// Shards that are empty or not in the exporter's format are skipped
/// rather than corrupting the output.
pub fn merge_chrome_shards<S: AsRef<str>>(shards: &[S]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for shard in shards {
        let shard = shard.as_ref();
        // The exporter's envelope is fixed: everything between the first
        // '[' and the last ']' is the comma-separated event list.
        let Some(open) = shard.find('[') else {
            continue;
        };
        let Some(close) = shard.rfind(']') else {
            continue;
        };
        if close <= open {
            continue;
        }
        let inner = shard[open + 1..close].trim();
        if inner.is_empty() {
            continue;
        }
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
        out.push_str(inner);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Category;

    fn ev(rank: u32, kind: Kind, name: &'static str) -> TraceEvent {
        TraceEvent {
            rank,
            cat: Category::Comm,
            kind,
            name,
            ts_us: 10,
            dur_us: 5,
            a0: 1,
            a1: 64,
            req: 0,
        }
    }

    #[test]
    fn exports_span_instant_and_metadata_rows() {
        let events = [
            ev(0, Kind::Span, names::RECV),
            ev(1, Kind::Instant, names::HALO_LOST),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"ph\":\"X\",\"ts\":10,\"dur\":5"));
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\",\"ts\":10"));
        assert!(json.contains("\"src\":1,\"bytes\":64"));
        assert!(json.trim_end().ends_with("]}"));
        // Balanced braces — cheap structural sanity without a JSON parser.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn driver_rank_gets_its_own_track() {
        let json = chrome_trace_json(&[ev(DRIVER_RANK, Kind::Span, "setup")]);
        assert!(json.contains("\"tid\":1000000"));
        assert!(json.contains("\"name\":\"driver\""));
    }

    #[test]
    fn pid_parameter_reaches_every_row_and_req_is_an_arg() {
        let mut tagged = ev(0, Kind::Span, names::STEP);
        tagged.req = 7;
        let json = chrome_trace_json_for_pid(&[tagged, ev(1, Kind::Span, names::RECV)], 3);
        assert!(!json.contains("\"pid\":0"), "no row escapes the pid");
        assert_eq!(
            json.matches("\"pid\":3").count(),
            8,
            "process meta (2) + per-rank meta (2x2) + events (2)"
        );
        assert!(json.contains("\"name\":\"pdeml proc 3\""));
        assert!(json.contains("\"req\":7"), "request id exported as an arg");
        // Untagged events stay req-free (the common case stays compact).
        assert_eq!(json.matches("\"req\":").count(), 1);
    }

    #[test]
    fn merged_shards_keep_every_event_under_its_source_pid() {
        let shard0 = chrome_trace_json_for_pid(&[ev(0, Kind::Span, names::RECV)], 0);
        let shard1 = chrome_trace_json_for_pid(
            &[
                ev(0, Kind::Span, names::RECV),
                ev(0, Kind::Instant, names::HALO_LOST),
            ],
            1,
        );
        let merged = merge_chrome_shards(&[shard0.as_str(), shard1.as_str()]);
        assert!(merged.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(merged.trim_end().ends_with("]}"));
        // Spans + instants survive the splice, still under their pids.
        assert_eq!(merged.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(merged.matches("\"ph\":\"i\"").count(), 1);
        let shard0_rows = shard0.matches("\"pid\":0").count();
        let shard1_rows = shard1.matches("\"pid\":1").count();
        assert_eq!(merged.matches("\"pid\":0").count(), shard0_rows);
        assert_eq!(merged.matches("\"pid\":1").count(), shard1_rows);
        // Structural validity: balanced braces, no trailing comma.
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
        assert!(!merged.contains(",\n]"));
    }

    #[test]
    fn merge_skips_empty_and_malformed_shards() {
        let good = chrome_trace_json_for_pid(&[ev(0, Kind::Span, names::RECV)], 2);
        let empty = chrome_trace_json_for_pid(&[], 5);
        let merged = merge_chrome_shards(&[good.as_str(), "not json at all", "", empty.as_str()]);
        assert!(merged.contains("\"ph\":\"X\""));
        // The empty shard still contributes its process metadata rows.
        assert!(merged.contains("\"pdeml proc 5\""));
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
    }
}
