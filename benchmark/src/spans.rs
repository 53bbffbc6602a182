//! The benchmark's own spans: recorded around calls into each layer, kept in
//! memory, written as one Chrome-trace JSON when the run ends. Nothing in
//! the program under test is instrumented by this file.

use std::sync::OnceLock;
use std::time::Instant;

/// The instant every span time is measured from; first called at process
/// start, so it also anchors `setup_s`.
pub fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    process_start().elapsed().as_nanos() as u64
}

/// One closed span: name, start, end, the span that caused it and the
/// request it served (0 = none).
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl SpanRec {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The spans of one thread (one Chrome-trace track). Each measured thread
/// owns its recorder and hands it back when it ends, so recording never
/// takes a lock; a recorder that is off runs the closure and nothing else.
pub struct Spans {
    on: bool,
    track: u32,
    req: u64,
    open: Vec<usize>,
    recs: Vec<SpanRec>,
}

impl Spans {
    /// A recorder for track `track`, sized so that recording does not
    /// allocate inside measured loops.
    pub fn new(on: bool, track: u32) -> Self {
        let cap = if on { 1 << 16 } else { 0 };
        Spans {
            on,
            track,
            req: 0,
            open: Vec::with_capacity(16),
            recs: Vec::with_capacity(cap),
        }
    }

    /// Switches recording on or off from here on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Stamps the spans that follow with request id `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    /// Runs `f` inside a span named `name`, child of the span open now.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.recs.len();
        self.recs.push(SpanRec {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.recs[idx].end_ns = now_ns();
        out
    }

    /// Durations in ms of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(SpanRec::ms)
            .collect()
    }

    /// Summed duration in ms of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Self time in ms of the spans named `name`: their duration minus the
    /// part their direct children cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (i, r) in self.recs.iter().enumerate() {
            if r.name == name {
                let children: f64 = self
                    .recs
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(SpanRec::ms)
                    .sum();
                total += r.ms() - children;
            }
        }
        total
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }
}

/// All tracks as one Chrome-trace document (`ph: "X"` complete events,
/// microsecond times, `tid` = track, parent index and request id in `args`).
pub fn chrome_json(tracks: &[Spans]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for t in tracks {
        for (i, r) in t.recs.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = r.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
                r.name,
                t.track,
                r.start_ns as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3,
                r.req
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut s = Spans::new(true, 3);
        s.set_request(9);
        s.scope("outer", |s| {
            s.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.scope("inner", |_| ());
        });
        assert_eq!(s.len(), 3);
        assert_eq!(s.recs[0].parent, None);
        assert_eq!(s.recs[1].parent, Some(0));
        assert_eq!(s.recs[2].parent, Some(0));
        assert!(s.recs.iter().all(|r| r.req == 9 && r.end_ns >= r.start_ns));
        assert!(s.total_ms("inner") >= 2.0);
        assert!(s.self_ms("outer") <= s.total_ms("outer") - 2.0 + 1e-9);
        let json = chrome_json(&[s]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"tid\":3") && json.contains("\"parent\":0"));
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut s = Spans::new(false, 0);
        assert_eq!(s.scope("x", |_| 5), 5);
        assert_eq!(s.len(), 0);
    }
}
