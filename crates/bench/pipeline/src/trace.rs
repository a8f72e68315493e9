//! Bench-side spans for the traced run.
//!
//! Every call the benchmark makes into a layer is wrapped in
//! [`Recorder::span`], which records a [`ppd_obs::SpanRecord`] with the
//! layer as `cat`, the called function as `name`, and the pass id and
//! parent span as args. The spans never go through the program's own
//! span gate (`ppd_obs::enable_spans` stays off), so the libraries run
//! exactly as in the untraced run. A layer's self time is its span time
//! minus the time of the spans nested in it; what no layer span covers
//! inside a pass is the bench's own, unattributed time.

use ppd_obs::SpanRecord;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// The layers spans are charged to: the workspace crates whose work a
/// call performs. A `ppd-core` entry point that only forwards to one
/// layer (`PpdSession::execute` to the runtime, `Controller::races` to
/// the race scan) is charged to that layer.
pub const LAYERS: [&str; 6] = ["lang", "analysis", "runtime", "log", "core", "graph"];

/// The category of the per-pass root span; its self time is the bench's.
pub const BENCH: &str = "bench";

/// Span sink: a no-op when off, an in-memory span list when on.
pub struct Recorder {
    state: Option<RefCell<State>>,
}

#[derive(Default)]
struct State {
    records: Vec<SpanRecord>,
    /// Index of each record's parent in `records`.
    parents: Vec<Option<usize>>,
    open: Vec<usize>,
    pass: u64,
}

impl Recorder {
    /// A recorder that records nothing (the untraced run).
    pub fn off() -> Recorder {
        Recorder { state: None }
    }

    /// A recorder that keeps every span in memory.
    pub fn on() -> Recorder {
        Recorder { state: Some(RefCell::new(State::default())) }
    }

    /// Tags the spans that follow with pass number `pass`.
    pub fn set_pass(&self, pass: u64) {
        if let Some(st) = &self.state {
            st.borrow_mut().pass = pass;
        }
    }

    /// Runs `f` inside a span charged to layer `cat`.
    pub fn span<R>(&self, cat: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(st) = &self.state else { return f() };
        let idx = st.borrow_mut().begin(cat, name);
        let out = f();
        st.borrow_mut().end(idx);
        out
    }

    /// Self time per category, in nanoseconds.
    pub fn self_ns_by_cat(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        if let Some(st) = &self.state {
            let st = st.borrow();
            for (i, ns) in st.self_ns().into_iter().enumerate() {
                *out.entry(st.records[i].cat).or_insert(0) += ns;
            }
        }
        out
    }

    /// Call count and total time per `(cat, name)`, in nanoseconds.
    pub fn totals_by_call(&self) -> BTreeMap<(&'static str, String), (u64, u64)> {
        let mut out = BTreeMap::new();
        if let Some(st) = &self.state {
            for r in &st.borrow().records {
                let e = out.entry((r.cat, r.name.to_string())).or_insert((0, 0));
                e.0 += 1;
                e.1 += r.dur_ns;
            }
        }
        out
    }

    /// Every recorded span, in start order (the `(tid, seq)` order the
    /// Chrome writer expects).
    pub fn records(&self) -> Vec<SpanRecord> {
        self.state.as_ref().map(|st| st.borrow().records.clone()).unwrap_or_default()
    }
}

impl State {
    fn begin(&mut self, cat: &'static str, name: &'static str) -> usize {
        let idx = self.records.len();
        let parent = self.open.last().copied();
        let parent_arg = parent.map_or(Cow::Borrowed("-"), |p| Cow::Owned(p.to_string()));
        self.records.push(SpanRecord {
            cat,
            name: Cow::Borrowed(name),
            tid: 1,
            seq: idx as u64,
            depth: self.open.len() as u32,
            start_ns: ppd_obs::now_ns(),
            dur_ns: 0,
            instant: false,
            args: vec![("pass", Cow::Owned(self.pass.to_string())), ("parent", parent_arg)],
        });
        self.parents.push(parent);
        self.open.push(idx);
        idx
    }

    fn end(&mut self, idx: usize) {
        let now = ppd_obs::now_ns();
        let rec = &mut self.records[idx];
        rec.dur_ns = now.saturating_sub(rec.start_ns);
        self.open.pop();
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.records.len()];
        for (i, parent) in self.parents.iter().enumerate() {
            if let Some(p) = parent {
                child_ns[*p] += self.records[i].dur_ns;
            }
        }
        self.records.iter().zip(child_ns).map(|(r, c)| r.dur_ns.saturating_sub(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn off_recorder_records_nothing() {
        let r = Recorder::off();
        assert_eq!(r.span("core", "x", || 7), 7);
        assert!(r.records().is_empty());
        assert!(r.self_ns_by_cat().is_empty());
    }

    #[test]
    fn self_time_excludes_nested_spans() {
        let r = Recorder::on();
        r.span(BENCH, "pass", || {
            r.span("core", "start", || {
                spin(4);
                r.span("log", "decode", || spin(6));
            })
        });
        let by_cat = r.self_ns_by_cat();
        let ms = |c: &str| by_cat[c] as f64 / 1e6;
        assert!(ms("log") >= 6.0, "log {}", ms("log"));
        assert!(ms("core") >= 4.0 && ms("core") < 6.0, "core {}", ms("core"));
        assert!(ms(BENCH) < 1.0, "bench {}", ms(BENCH));
        let recs = r.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].depth, 2);
        assert_eq!(recs[2].args[1].1, "1", "decode's parent is start");
        let json = ppd_obs::chrome::trace_json(&recs, &[(1, "pipeline".into())]);
        assert!(json.contains("\"cat\":\"log\""));
    }
}
