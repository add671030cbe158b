//! Spans recorded by the harness around its calls into the program, the
//! per-phase times folded out of the `SolveTrace` the program already
//! returns, and the Chrome-format file both end up in.
//!
//! Nothing here adds a probe to the program: harness spans wrap public
//! calls from outside, and the program-side phases are the ones `feir-trace`
//! has had since PR 8.

use std::fmt::Write as _;

use feir_trace::{Event, Phase, RankTrace, SolveTrace};

/// One harness span: a call into a layer, on the `feir_trace::now_ns` clock
/// the in-process ranks also use.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing harness span.
    pub parent: Option<usize>,
    /// Which traced solve the span belongs to (0 for probes).
    pub solve: u32,
}

/// In-memory span log of one traced pass; written out once, at the end.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    solve: u32,
    /// Program-side streams of the traced solves, already shifted onto the
    /// harness clock, tagged with their solve id.
    program: Vec<(u32, RankTrace)>,
}

impl Recorder {
    /// Starts the next traced solve; spans opened from here on carry its id.
    pub fn next_solve(&mut self) {
        self.solve += 1;
    }

    /// Records `f` as a span named `name`, nested inside whatever span is
    /// open. `f` receives the recorder back so it can open children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start_ns: feir_trace::now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            solve: self.solve,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = feir_trace::now_ns();
        out
    }

    /// Records a span whose ends were already stamped (the timed solve path
    /// stamps them whether or not anyone records). Returns its index, for
    /// use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            solve: self.solve,
        });
        self.spans.len() - 1
    }

    /// Folds in the trace a solve returned. Worker processes stamp events
    /// against their own clock origin; shift them onto the harness's.
    pub fn absorb(&mut self, trace: &SolveTrace) {
        let harness_origin = feir_trace::origin_unix_micros();
        for rank in &trace.ranks {
            let shift_ns = (rank.origin_micros as i64 - harness_origin as i64) * 1_000;
            let mut shifted = rank.clone();
            for e in &mut shifted.events {
                e.start_ns = (e.start_ns as i64 + shift_ns).max(0) as u64;
            }
            self.program.push((self.solve, shifted));
        }
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): harness spans
    /// on their own track, each program rank on its own.
    pub fn chrome_json(&self) -> String {
        const HARNESS_TID: u32 = 1000;
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{HARNESS_TID},\
             \"args\":{{\"name\":\"harness\"}}}}"
        );
        let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{HARNESS_TID},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"solve\":{}}}}}",
                s.name,
                us(s.start_ns),
                us(s.end_ns.saturating_sub(s.start_ns)),
                s.solve
            );
        }
        for (solve, rank) in &self.program {
            for e in &rank.events {
                let ph = if e.dur_ns == 0 { "i" } else { "X" };
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
                     \"args\":{{\"solve\":{solve}}}}}",
                    e.phase.name(),
                    us(e.start_ns),
                    us(e.dur_ns),
                    rank.rank
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-phase times of one rank's stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTimes {
    /// Σ span durations, children included.
    pub total_ns: [u64; Phase::ALL.len()],
    /// Σ span durations minus the part covered by spans nested inside them —
    /// the phases partition the traced time, so sums never count twice.
    pub self_ns: [u64; Phase::ALL.len()],
    /// Instants and spans seen.
    pub events: u64,
}

impl PhaseTimes {
    pub fn total_ms(&self, phase: Phase) -> f64 {
        self.total_ns[phase as usize] as f64 * 1e-6
    }

    pub fn self_ms(&self, phase: Phase) -> f64 {
        self.self_ns[phase as usize] as f64 * 1e-6
    }

    pub fn add(&mut self, other: &PhaseTimes) {
        for i in 0..Phase::ALL.len() {
            self.total_ns[i] += other.total_ns[i];
            self.self_ns[i] += other.self_ns[i];
        }
        self.events += other.events;
    }
}

/// Folds one rank's events into per-phase total and self times. A span is a
/// child of the innermost earlier span that fully contains it; spans that
/// merely overlap (another thread of the same rank) count as siblings.
pub fn phase_times(events: &[Event]) -> PhaseTimes {
    let mut sorted: Vec<&Event> = events.iter().collect();
    // Outer spans first at equal start times.
    sorted.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
    let mut times = PhaseTimes {
        events: events.len() as u64,
        ..PhaseTimes::default()
    };
    let mut open: Vec<&Event> = Vec::new();
    for e in sorted {
        if e.dur_ns == 0 {
            continue;
        }
        let end = e.start_ns + e.dur_ns;
        while open
            .last()
            .is_some_and(|top| end > top.start_ns + top.dur_ns)
        {
            open.pop();
        }
        let idx = e.phase as usize;
        times.total_ns[idx] += e.dur_ns;
        times.self_ns[idx] += e.dur_ns;
        if let Some(parent) = open.last() {
            let p = parent.phase as usize;
            times.self_ns[p] = times.self_ns[p].saturating_sub(e.dur_ns);
        }
        open.push(e);
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(phase: Phase, start_ns: u64, dur_ns: u64) -> Event {
        Event {
            phase,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_excludes_nested_spans_and_sums_to_the_outer_total() {
        // iteration [0,100) ⊃ halo [10,30), allreduce [40,90) ⊃ post [40,45), wait [45,90)
        let events = vec![
            ev(Phase::AllreduceWait, 45, 45),
            ev(Phase::Iteration, 0, 100),
            ev(Phase::Halo, 10, 20),
            ev(Phase::Allreduce, 40, 50),
            ev(Phase::AllreducePost, 40, 5),
            ev(Phase::Retransmit, 50, 0),
        ];
        let t = phase_times(&events);
        assert_eq!(t.total_ns[Phase::Iteration as usize], 100);
        assert_eq!(t.self_ns[Phase::Iteration as usize], 30);
        assert_eq!(t.self_ns[Phase::Allreduce as usize], 0);
        assert_eq!(t.self_ns[Phase::AllreduceWait as usize], 45);
        assert_eq!(t.self_ns.iter().sum::<u64>(), 100);
        assert_eq!(t.events, 6);
    }

    #[test]
    fn overlapping_spans_from_another_thread_are_siblings() {
        let events = vec![ev(Phase::Iteration, 0, 100), ev(Phase::Spmv, 90, 50)];
        let t = phase_times(&events);
        assert_eq!(t.self_ns[Phase::Iteration as usize], 100);
        assert_eq!(t.self_ns[Phase::Spmv as usize], 50);
    }

    #[test]
    fn recorder_nests_spans_and_exports_them() {
        let mut rec = Recorder::default();
        rec.next_solve();
        rec.span("outer", |rec| rec.span("inner", |_| ()));
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[0].parent, None);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        let json = rec.chrome_json();
        assert!(crate::json::parse(&json).is_ok(), "{json}");
        assert!(json.contains("\"name\":\"inner\""));
    }
}
