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

/// A merged Chrome trace and what the merge did with the shards' rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergedTrace {
    /// The Chrome Trace Event document.
    pub json: String,
    /// Event rows spliced in (metadata rows included).
    pub kept: usize,
    /// Partial rows left out: the row a truncated shard was cut inside.
    pub dropped: usize,
}

/// Merges per-process Chrome-trace shards — each produced by
/// [`chrome_trace_json_for_pid`] with a distinct pid — into one Chrome
/// Trace Event file. Shards already share a time axis (each process stamps
/// microseconds from its own trace epoch, which for a lockstep world start
/// within the rendezvous window), so the merge is a splice of each shard's
/// event rows: no event is re-stamped, and for whole shards the merged
/// event count is the sum of the shard event counts.
///
/// The exporter writes one row a line after the envelope's `[`. A shard
/// cut short — its process died while writing it — keeps every row it
/// holds whole; the row the cut went through is dropped and counted.
/// Shards without the envelope's `[` contribute nothing.
pub fn merge_chrome_shards<S: AsRef<str>>(shards: &[S]) -> MergedTrace {
    let mut json = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let (mut kept, mut dropped) = (0, 0);
    for shard in shards {
        let shard = shard.as_ref();
        let Some(open) = shard.find('[') else {
            continue;
        };
        for line in shard[open + 1..].lines() {
            let row = line.strip_suffix(',').unwrap_or(line);
            // Blank lines and the envelope's closing `]}` are not rows.
            if row.is_empty() || row.starts_with(']') {
                continue;
            }
            if !is_whole_object(row) {
                dropped += 1;
                continue;
            }
            if kept > 0 {
                json.push(',');
            }
            json.push('\n');
            json.push_str(row);
            kept += 1;
        }
    }
    json.push_str("\n]}\n");
    MergedTrace {
        json,
        kept,
        dropped,
    }
}

/// Whether `row` is one whole JSON object: it opens with `{`, and its
/// braces outside strings close for the first time at its last byte.
fn is_whole_object(row: &str) -> bool {
    if !row.starts_with('{') {
        return false;
    }
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, b) in row.bytes().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1 == row.len();
                }
            }
            _ => {}
        }
    }
    false
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
        let merged = merge_chrome_shards(&[shard0.as_str(), shard1.as_str()]).json;
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
        assert_eq!(merged.dropped, 0);
        let merged = merged.json;
        assert!(merged.contains("\"ph\":\"X\""));
        // The empty shard still contributes its process metadata rows.
        assert!(merged.contains("\"pdeml proc 5\""));
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
    }

    #[test]
    fn a_shard_cut_at_any_byte_keeps_exactly_its_whole_rows() {
        let whole = chrome_trace_json_for_pid(&[ev(0, Kind::Span, names::RECV)], 0);
        let mut tagged = ev(1, Kind::Span, names::STEP);
        tagged.req = 9;
        let events = [tagged, ev(1, Kind::Instant, names::HALO_LOST)];
        let cut = chrome_trace_json_for_pid(&events, 1);
        // The rows of the shard that gets cut, each with the byte offsets
        // where it starts and ends (its separating comma excluded).
        let start = cut.find('[').unwrap() + 1;
        let rows: Vec<(usize, usize, &str)> = cut[start..]
            .lines()
            .scan(start, |at, line| {
                let from = *at;
                *at += line.len() + 1;
                let row = line.trim_end_matches(',');
                Some((from, from + row.len(), row))
            })
            .filter(|(_, _, row)| row.starts_with('{'))
            .collect();
        assert_eq!(
            rows.len(),
            6,
            "process meta (2), rank 1 meta (2), events (2)"
        );
        let whole_rows = merge_chrome_shards(&[whole.as_str()]).kept;
        for at in 0..=cut.len() {
            let merged = merge_chrome_shards(&[whole.as_str(), &cut[..at]]);
            let complete: Vec<&str> = rows
                .iter()
                .filter(|&&(_, end, _)| end <= at)
                .map(|&(_, _, row)| row)
                .collect();
            let started = rows.iter().any(|&(from, end, _)| from < at && at < end);
            let json = &merged.json;
            assert_eq!(merged.kept, whole_rows + complete.len(), "cut at {at}");
            assert_eq!(merged.dropped, usize::from(started), "cut at {at}");
            // The merged rows are the whole shard's, then the cut shard's
            // complete rows, in order.
            let body = &json[json.find('[').unwrap() + 1..];
            let merged_rows: Vec<&str> = body
                .lines()
                .map(|l| l.trim_end_matches(','))
                .filter(|l| l.starts_with('{'))
                .collect();
            assert_eq!(merged_rows[whole_rows..], complete[..], "cut at {at}");
            assert_eq!(
                json.matches('{').count(),
                json.matches('}').count(),
                "cut at {at}: unbalanced braces"
            );
            assert!(!json.contains(",\n]"), "cut at {at}: trailing comma");
            assert!(json.ends_with("\n]}\n"), "cut at {at}");
        }
    }
}
