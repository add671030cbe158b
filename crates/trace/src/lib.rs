//! # feir-trace
//!
//! Zero-dependency structured tracing and metrics for the FEIR project —
//! the observability layer under the distributed solvers, the process
//! transport and the recovery engine.
//!
//! The environment vendors no registry crates, so this is hand-rolled like
//! `feir-wire`: a runtime level switch, thread-local bounded event sinks,
//! RAII span guards, a counter/gauge/histogram [`Metrics`] registry and a
//! Chrome-trace-event exporter, all on `std` alone.
//!
//! ## Levels
//!
//! The probe cost is governed by [`TraceLevel`], read once from the
//! `FEIR_TRACE` environment variable (`off` | `counters` | `spans`,
//! default `off`) and overridable with [`set_level`]:
//!
//! * **off** — every probe is a single relaxed atomic load and a branch.
//!   No clock reads, no allocation, no floating-point work: the
//!   bitwise-identity and performance contracts of the solvers are
//!   untouched.
//! * **counters** — probes bump named counters in the global [`Metrics`]
//!   registry ([`metrics()`]); still no clock reads on the hot path.
//! * **spans** — probes record timed [`Event`]s (two monotonic clock reads
//!   per span) into the calling thread's bounded sink.
//!
//! ## Spans and sinks
//!
//! [`span`] returns a guard that records a completed event when dropped, so
//! spans stay balanced even under panic unwinding — the guard's `Drop` runs
//! during unwind and closes the span. The span *stack* is the program stack
//! itself: nested guards drop in reverse order, which is exactly the
//! begin/end nesting the Chrome trace viewer expects.
//!
//! Every thread writes to its own bounded ring buffer ([`set_capacity`];
//! drop-oldest, with a dropped-events counter), registered in a process-wide
//! list so [`drain_all`] / [`drain_rank`] can collect a rank's events from
//! every thread that recorded them. Rank attribution: solver threads call
//! [`set_thread_rank`]; worker processes call [`set_process_rank`] once,
//! which covers every untagged thread of the process.
//!
//! ## Clock
//!
//! Timestamps are nanoseconds from a process-wide monotonic origin
//! ([`now_ns`]). The origin's wall-clock instant is captured once as unix
//! microseconds ([`origin_unix_micros`]) and shipped alongside each rank's
//! events, which is what lets rank 0 merge per-process streams onto a
//! shared timeline (see [`export::SolveTrace`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod metrics;

pub use export::{PhaseStat, RankTrace, SolveTrace, TraceSummary};
pub use metrics::{Histogram, Metrics, StateBreakdown};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

// ----- level switch ---------------------------------------------------------

/// How much the probes record (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceLevel {
    /// Probes compile to one atomic load + branch; nothing is recorded.
    Off = 0,
    /// Probes bump named counters in the global [`Metrics`] registry.
    Counters = 1,
    /// Probes record timed events into the per-thread sinks.
    Spans = 2,
}

impl TraceLevel {
    /// Parses the `FEIR_TRACE` value; unknown strings mean [`TraceLevel::Off`].
    pub fn parse(s: &str) -> TraceLevel {
        match s.trim().to_ascii_lowercase().as_str() {
            "counters" | "1" => TraceLevel::Counters,
            "spans" | "2" | "on" | "full" => TraceLevel::Spans,
            _ => TraceLevel::Off,
        }
    }

    fn from_u8(v: u8) -> TraceLevel {
        match v {
            1 => TraceLevel::Counters,
            2 => TraceLevel::Spans,
            _ => TraceLevel::Off,
        }
    }
}

/// Sentinel meaning "not yet read from the environment".
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The active trace level: the `FEIR_TRACE` environment variable, read once,
/// unless overridden by [`set_level`]. This is the one branch every probe
/// pays when tracing is off.
#[inline]
pub fn level() -> TraceLevel {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != LEVEL_UNSET {
        return TraceLevel::from_u8(v);
    }
    init_level_from_env()
}

#[cold]
fn init_level_from_env() -> TraceLevel {
    let parsed = std::env::var("FEIR_TRACE")
        .map(|v| TraceLevel::parse(&v))
        .unwrap_or(TraceLevel::Off);
    // Another thread may have raced the init or called set_level; keep
    // whichever value landed first.
    match LEVEL.compare_exchange(
        LEVEL_UNSET,
        parsed as u8,
        Ordering::Relaxed,
        Ordering::Relaxed,
    ) {
        Ok(_) => parsed,
        Err(existing) => TraceLevel::from_u8(existing),
    }
}

/// Overrides the trace level for this process (tests, examples, tools).
pub fn set_level(level: TraceLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

// ----- phases ---------------------------------------------------------------

/// The typed event kinds of the solver/transport/recovery stack. The `u8`
/// values are the wire encoding of the `TraceDump` message — append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// One solver iteration (outermost span of the rank loop body).
    Iteration = 0,
    /// Local sparse matrix-vector product (incl. the fused dot partial).
    Spmv = 1,
    /// Halo exchange of the vector the matvec reads.
    Halo = 2,
    /// A blocking scalar or vector allreduce, entry to exit.
    Allreduce = 3,
    /// Posting the local partial of a split-phase allreduce.
    AllreducePost = 4,
    /// Waiting for (and finishing) a split-phase allreduce.
    AllreduceWait = 5,
    /// Planning page reconstructions from a read-only snapshot.
    RecoveryPlan = 6,
    /// A coupled-row reconstruction solve (exact or lossy).
    RecoveryReconstruct = 7,
    /// Installing a recovery plan into the live solver state.
    RecoveryInstall = 8,
    /// A reliability-layer frame retransmission (instant event).
    Retransmit = 9,
    /// Elastic rejoin: barrier, re-handshake and state repair.
    Rejoin = 10,
}

impl Phase {
    /// Every phase, in `u8` order.
    pub const ALL: [Phase; 11] = [
        Phase::Iteration,
        Phase::Spmv,
        Phase::Halo,
        Phase::Allreduce,
        Phase::AllreducePost,
        Phase::AllreduceWait,
        Phase::RecoveryPlan,
        Phase::RecoveryReconstruct,
        Phase::RecoveryInstall,
        Phase::Retransmit,
        Phase::Rejoin,
    ];

    /// Stable display name (also the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Iteration => "iteration",
            Phase::Spmv => "spmv",
            Phase::Halo => "halo",
            Phase::Allreduce => "allreduce",
            Phase::AllreducePost => "allreduce_post",
            Phase::AllreduceWait => "allreduce_wait",
            Phase::RecoveryPlan => "recovery_plan",
            Phase::RecoveryReconstruct => "recovery_reconstruct",
            Phase::RecoveryInstall => "recovery_install",
            Phase::Retransmit => "retransmit",
            Phase::Rejoin => "rejoin",
        }
    }

    /// Decodes the wire byte; `None` for values from a newer protocol.
    pub fn from_u8(v: u8) -> Option<Phase> {
        Phase::ALL.get(v as usize).copied()
    }
}

/// One recorded event: a completed span (`dur_ns > 0` possible) or an
/// instant marker (`dur_ns == 0` by convention for [`instant`] probes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub phase: Phase,
    /// Nanoseconds since this process's trace origin.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
}

// ----- clock ----------------------------------------------------------------

static ORIGIN: OnceLock<(Instant, u64)> = OnceLock::new();

fn origin() -> &'static (Instant, u64) {
    ORIGIN.get_or_init(|| {
        let wall = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        (Instant::now(), wall)
    })
}

/// Monotonic nanoseconds since the process-wide trace origin.
#[inline]
pub fn now_ns() -> u64 {
    origin().0.elapsed().as_nanos() as u64
}

/// The wall-clock instant of the trace origin, in unix microseconds — the
/// per-process `t0` the cross-rank merge aligns streams on.
pub fn origin_unix_micros() -> u64 {
    origin().1
}

// ----- sinks ----------------------------------------------------------------

/// Default per-thread ring-buffer capacity, in events.
pub const DEFAULT_CAPACITY: usize = 65_536;

static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

/// Rank every untagged thread in this process reports as (`u32::MAX` =
/// unset). One-rank worker processes set this once at startup.
static PROCESS_RANK: AtomicU32 = AtomicU32::new(u32::MAX);

struct SinkInner {
    rank: Option<u32>,
    events: VecDeque<Event>,
    dropped: u64,
}

static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<SinkInner>>>>> = OnceLock::new();

fn registry() -> &'static Mutex<Vec<Arc<Mutex<SinkInner>>>> {
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static SINK: Arc<Mutex<SinkInner>> = {
        let sink = Arc::new(Mutex::new(SinkInner {
            rank: None,
            events: VecDeque::new(),
            dropped: 0,
        }));
        registry().lock().unwrap().push(sink.clone());
        sink
    };
}

/// Caps every sink's ring buffer at `capacity` events (drop-oldest beyond
/// it). Applies to subsequent records; existing buffered events stay.
pub fn set_capacity(capacity: usize) {
    CAPACITY.store(capacity.max(1), Ordering::Relaxed);
}

/// Tags the calling thread's events with `rank` (in-process backends: one
/// solver thread per rank).
pub fn set_thread_rank(rank: u32) {
    SINK.with(|sink| sink.lock().unwrap().rank = Some(rank));
}

/// Tags every *untagged* thread of this process with `rank` (process
/// backend: one rank per worker, whose threads need not call
/// [`set_thread_rank`]).
pub fn set_process_rank(rank: u32) {
    PROCESS_RANK.store(rank, Ordering::Relaxed);
}

fn record(event: Event) {
    let cap = CAPACITY.load(Ordering::Relaxed);
    SINK.with(|sink| {
        let mut inner = sink.lock().unwrap();
        if inner.events.len() >= cap {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    });
}

// ----- probes ---------------------------------------------------------------

/// A RAII span guard: records a completed [`Event`] when dropped (including
/// during panic unwinding, which is what keeps begin/end pairs balanced).
/// At [`TraceLevel::Off`] and [`TraceLevel::Counters`] the guard is inert.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct Span(Option<(Phase, u64)>);

/// Opens a span for `phase`. One branch when tracing is off; a counter bump
/// at `counters`; two clock reads and a ring-buffer push at `spans`.
#[inline]
pub fn span(phase: Phase) -> Span {
    match level() {
        TraceLevel::Off => Span(None),
        TraceLevel::Counters => {
            metrics().inc(phase.name());
            Span(None)
        }
        TraceLevel::Spans => Span(Some((phase, now_ns()))),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((phase, start_ns)) = self.0.take() {
            let dur_ns = now_ns().saturating_sub(start_ns).max(1);
            record(Event {
                phase,
                start_ns,
                dur_ns,
            });
        }
    }
}

/// Records an instant (zero-duration) event for `phase` — retransmissions,
/// faults, anything without a meaningful extent.
#[inline]
pub fn instant(phase: Phase) {
    match level() {
        TraceLevel::Off => {}
        TraceLevel::Counters => metrics().inc(phase.name()),
        TraceLevel::Spans => record(Event {
            phase,
            start_ns: now_ns(),
            dur_ns: 0,
        }),
    }
}

/// The process-global [`Metrics`] registry the `counters` level feeds.
pub fn metrics() -> &'static Metrics {
    static GLOBAL: OnceLock<Metrics> = OnceLock::new();
    GLOBAL.get_or_init(Metrics::new)
}

// ----- draining -------------------------------------------------------------

fn effective_rank(tagged: Option<u32>) -> Option<u32> {
    tagged.or({
        let p = PROCESS_RANK.load(Ordering::Relaxed);
        (p != u32::MAX).then_some(p)
    })
}

/// Drains every sink whose effective rank is `rank` into one [`RankTrace`]
/// (events sorted by start time). Draining empties the buffers, so two
/// consecutive solves don't double-report.
pub fn drain_rank(rank: u32) -> RankTrace {
    let mut events = Vec::new();
    let mut dropped = 0;
    for sink in registry().lock().unwrap().iter() {
        let mut inner = sink.lock().unwrap();
        if effective_rank(inner.rank) == Some(rank) {
            events.extend(inner.events.drain(..));
            dropped += inner.dropped;
            inner.dropped = 0;
        }
    }
    events.sort_by_key(|e| e.start_ns);
    RankTrace {
        rank,
        origin_micros: origin_unix_micros(),
        dropped,
        events,
        link_frames: 0,
        link_retransmits: 0,
        link_faults: 0,
        link_rejected: 0,
        link_dup_received: 0,
    }
}

/// Drains every tagged sink of the process, grouped by rank, in rank order.
/// Untagged sinks with no process rank set are left untouched.
pub fn drain_all() -> Vec<RankTrace> {
    let mut ranks: Vec<u32> = Vec::new();
    for sink in registry().lock().unwrap().iter() {
        let inner = sink.lock().unwrap();
        if let Some(rank) = effective_rank(inner.rank) {
            if !inner.events.is_empty() && !ranks.contains(&rank) {
                ranks.push(rank);
            }
        }
    }
    ranks.sort_unstable();
    ranks.into_iter().map(drain_rank).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The level, sinks and registry are process-global, so every test that
    // records events serializes on this lock and restores `Off` at the end.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_spans<R>(f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_level(TraceLevel::Spans);
        set_capacity(DEFAULT_CAPACITY);
        let out = f();
        set_level(TraceLevel::Off);
        out
    }

    #[test]
    fn off_level_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_level(TraceLevel::Off);
        set_thread_rank(91);
        let _s = span(Phase::Spmv);
        drop(_s);
        instant(Phase::Retransmit);
        assert!(drain_rank(91).events.is_empty());
    }

    #[test]
    fn spans_nest_and_balance_under_panic_unwind() {
        with_spans(|| {
            set_thread_rank(92);
            drop(drain_rank(92)); // clear anything earlier tests left
            let result = std::panic::catch_unwind(|| {
                let _outer = span(Phase::Iteration);
                let _inner = span(Phase::Spmv);
                panic!("solver died mid-iteration");
            });
            assert!(result.is_err());
            let trace = drain_rank(92);
            // Both guards dropped during unwind: two completed events, the
            // inner one contained in the outer one.
            assert_eq!(trace.events.len(), 2);
            let outer = trace
                .events
                .iter()
                .find(|e| e.phase == Phase::Iteration)
                .unwrap();
            let inner = trace
                .events
                .iter()
                .find(|e| e.phase == Phase::Spmv)
                .unwrap();
            assert!(inner.start_ns >= outer.start_ns);
            assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        });
    }

    #[test]
    fn ring_buffer_overflow_drops_oldest_and_counts() {
        with_spans(|| {
            set_thread_rank(93);
            drop(drain_rank(93));
            set_capacity(8);
            for _ in 0..20 {
                instant(Phase::Retransmit);
            }
            set_capacity(DEFAULT_CAPACITY);
            let trace = drain_rank(93);
            assert_eq!(trace.events.len(), 8);
            assert_eq!(trace.dropped, 12);
            // The retained events are the newest ones.
            assert!(trace
                .events
                .windows(2)
                .all(|w| w[0].start_ns <= w[1].start_ns));
        });
    }

    #[test]
    fn counters_level_feeds_the_global_registry() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_level(TraceLevel::Counters);
        set_thread_rank(94);
        let before = metrics().counter_value("halo");
        {
            let _s = span(Phase::Halo);
        }
        instant(Phase::Halo);
        set_level(TraceLevel::Off);
        assert_eq!(metrics().counter_value("halo"), before + 2);
        assert!(
            drain_rank(94).events.is_empty(),
            "counters record no events"
        );
    }

    #[test]
    fn drain_groups_by_thread_rank() {
        with_spans(|| {
            set_thread_rank(95);
            drop(drain_rank(95));
            drop(drain_rank(96));
            instant(Phase::Rejoin);
            std::thread::spawn(|| {
                set_level(TraceLevel::Spans);
                set_thread_rank(96);
                instant(Phase::Halo);
            })
            .join()
            .unwrap();
            assert_eq!(drain_rank(95).events.len(), 1);
            let other = drain_rank(96);
            assert_eq!(other.events.len(), 1);
            assert_eq!(other.events[0].phase, Phase::Halo);
        });
    }

    #[test]
    fn level_parse_accepts_the_documented_values() {
        assert_eq!(TraceLevel::parse("off"), TraceLevel::Off);
        assert_eq!(TraceLevel::parse("counters"), TraceLevel::Counters);
        assert_eq!(TraceLevel::parse("SPANS"), TraceLevel::Spans);
        assert_eq!(TraceLevel::parse("garbage"), TraceLevel::Off);
    }

    #[test]
    fn phase_wire_bytes_round_trip() {
        for phase in Phase::ALL {
            assert_eq!(Phase::from_u8(phase as u8), Some(phase));
        }
        assert_eq!(Phase::from_u8(200), None);
    }
}
