//! Always-on flight recorder: a fixed-capacity ring of recent events.
//!
//! Unlike spans (gated, buffered per thread, drained in bulk), the
//! flight recorder is **always on** and holds only the last `N`
//! events process-wide, so a crashed or wedged session still leaves a
//! black-box trace of what it was doing. Events are noted only at
//! coarse boundaries (command start, run end, store open, each
//! top-level query, errors, panic), almost all on the command's own
//! thread, so a note is one push onto a ring under one uncontended
//! mutex.
//!
//! The [`global`] recorder is dumped to JSON automatically on panic
//! once [`install_panic_hook`] has run (the CLI installs it at
//! startup), and on demand via `ppd ... --flight-out FILE`.

use crate::metrics::json_string;
use crate::span::now_ns;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock, PoisonError};

/// Default capacity (events) of the [`global`] recorder's ring.
pub const DEFAULT_CAPACITY: usize = 1024;

/// File the panic hook writes when no dump path was configured.
pub const DEFAULT_PANIC_DUMP: &str = "ppd-flight-panic.json";

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// 1-based global sequence number (total order of recording).
    pub seq: u64,
    /// Nanoseconds since the process obs epoch ([`now_ns`]).
    pub ts_ns: u64,
    /// Small per-thread id (first-record order, starting at 1).
    pub tid: u64,
    /// Static category, e.g. `"query"`, `"log"`, `"panic"`.
    pub cat: &'static str,
    /// Event name.
    pub name: Cow<'static, str>,
    /// Free-form detail (args, latency, error text); may be empty.
    pub detail: String,
}

impl FlightEvent {
    /// Single-line JSON object for this event.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"ts_ns\":{},\"tid\":{},\"cat\":{},\"name\":{},\"detail\":{}}}",
            self.seq,
            self.ts_ns,
            self.tid,
            json_string(self.cat),
            json_string(&self.name),
            json_string(&self.detail)
        )
    }
}

/// The ring and the count of every event ever recorded.
struct Ring {
    events: VecDeque<FlightEvent>,
    recorded: u64,
}

/// A fixed-capacity ring of recent [`FlightEvent`]s.
///
/// Local instances are independent (used by tests); production code
/// records into [`global`] via [`note`] / [`note_with`].
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity.max(1)` events.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let ring = Ring { events: VecDeque::new(), recorded: 0 };
        FlightRecorder { ring: Mutex::new(ring), capacity: capacity.max(1) }
    }

    /// The ring; never blocks panic-time recording on a poisoned lock.
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records an event with empty detail.
    #[inline]
    pub fn note(&self, cat: &'static str, name: impl Into<Cow<'static, str>>) {
        self.note_with(cat, name, String::new());
    }

    /// Records an event. Overwrites the oldest event once the ring is
    /// full.
    pub fn note_with(&self, cat: &'static str, name: impl Into<Cow<'static, str>>, detail: String) {
        let (tid, name) = (flight_tid(), name.into());
        let mut ring = self.ring();
        ring.recorded += 1;
        let ev = FlightEvent { seq: ring.recorded, ts_ns: now_ns(), tid, cat, name, detail };
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(ev);
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.ring().recorded
    }

    /// Events overwritten (lost) so far.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity as u64)
    }

    /// The surviving events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.ring().events.iter().cloned().collect()
    }

    /// Dumps the ring as a single JSON object:
    /// `{"format":"ppd-flight","version":1,"recorded":..,"dropped":..,"events":[..]}`.
    pub fn dump_json(&self) -> String {
        let ring = self.ring();
        let mut out = format!(
            "{{\"format\":\"ppd-flight\",\"version\":1,\"recorded\":{},\"dropped\":{},\"events\":[",
            ring.recorded,
            ring.recorded - ring.events.len() as u64
        );
        for (i, e) in ring.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", e.to_json());
        }
        out.push_str("]}");
        out.push('\n');
        out
    }
}

/// The process-wide recorder ([`DEFAULT_CAPACITY`] events).
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_CAPACITY))
}

/// Records an event (empty detail) into the [`global`] recorder.
#[inline]
pub fn note(cat: &'static str, name: impl Into<Cow<'static, str>>) {
    global().note(cat, name);
}

/// Records an event with detail into the [`global`] recorder.
#[inline]
pub fn note_with(cat: &'static str, name: impl Into<Cow<'static, str>>, detail: String) {
    global().note_with(cat, name, detail);
}

fn dump_path_cell() -> &'static Mutex<Option<PathBuf>> {
    static PATH: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

/// Sets where the panic hook (and on-error dumps) write the flight
/// recorder; `None` reverts to [`DEFAULT_PANIC_DUMP`].
pub fn set_panic_dump_path(path: Option<PathBuf>) {
    *dump_path_cell().lock().unwrap_or_else(PoisonError::into_inner) = path;
}

/// The currently configured panic-dump path, if any.
pub fn panic_dump_path() -> Option<PathBuf> {
    dump_path_cell().lock().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Installs (once) a panic hook that records the panic as a flight
/// event, dumps the [`global`] recorder to the configured path (or
/// [`DEFAULT_PANIC_DUMP`]), and then chains to the previous hook.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            let loc = info
                .location()
                .map(|l| format!(" at {}:{}", l.file(), l.line()))
                .unwrap_or_default();
            note_with("panic", "panic", format!("{msg}{loc}"));
            let path = panic_dump_path().unwrap_or_else(|| PathBuf::from(DEFAULT_PANIC_DUMP));
            if std::fs::write(&path, global().dump_json()).is_ok() {
                eprintln!(
                    "flight recorder: dumped {} events to {}",
                    global().snapshot().len(),
                    path.display()
                );
            }
            prev(info);
        }));
    });
}

fn flight_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_details() {
        let r = FlightRecorder::with_capacity(16);
        r.note("cli", "start");
        r.note_with("query", "flowback", "node=3".to_string());
        let events = r.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "start");
        assert_eq!(events[1].detail, "node=3");
        assert!(events[0].seq < events[1].seq);
        assert!(events[0].ts_ns <= events[1].ts_ns);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn wraparound_keeps_newest_events() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..20u64 {
            r.note_with("t", "e", i.to_string());
        }
        assert_eq!(r.recorded(), 20);
        assert_eq!(r.dropped(), 12);
        let events = r.snapshot();
        assert_eq!(events.len(), 8);
        // The last 8 events survive, in order.
        for (k, e) in events.iter().enumerate() {
            assert_eq!(e.seq, 13 + k as u64);
            assert_eq!(e.detail, (12 + k as u64).to_string());
        }
    }

    #[test]
    fn concurrent_notes_never_lose_the_ring_shape() {
        let r = std::sync::Arc::new(FlightRecorder::with_capacity(32));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        r.note_with("t", "e", i.to_string());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.recorded(), 400);
        let events = r.snapshot();
        assert!(events.len() <= 32);
        // Strictly increasing seq after sort, no duplicates.
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn dump_json_is_well_formed() {
        let r = FlightRecorder::with_capacity(4);
        r.note_with("q", "weird \"name\"", "line\nbreak".to_string());
        let json = r.dump_json();
        assert!(json.starts_with("{\"format\":\"ppd-flight\",\"version\":1,"), "{json}");
        assert!(json.contains("\"dropped\":0"), "{json}");
        assert!(json.contains("\\\"name\\\""), "{json}");
        assert!(json.contains("line\\nbreak"), "{json}");
        assert!(json.trim_end().ends_with("]}"), "{json}");
    }

    #[test]
    fn panic_hook_dumps_to_configured_path() {
        let dir = std::env::temp_dir().join(format!("ppd-flight-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("panic-dump.json");
        set_panic_dump_path(Some(path.clone()));
        install_panic_hook();
        note("test", "before-panic");
        let t = std::thread::spawn(|| panic!("flight-recorder test panic"));
        assert!(t.join().is_err());
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(dump.contains("\"cat\":\"panic\""), "{dump}");
        assert!(dump.contains("flight-recorder test panic"), "{dump}");
        assert!(dump.contains("before-panic"), "{dump}");
        set_panic_dump_path(None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
