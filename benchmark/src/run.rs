//! One measurement: set-up, warm-up, the timed closed loop, and — in a
//! traced run — the reference solves, the traced pass and the layer probes.

use std::path::Path;
use std::time::{Duration, Instant};

use feir_trace::{Phase, TraceLevel};

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::json::Value;
use crate::probes;
use crate::spans::{phase_times, PhaseTimes, Recorder};
use crate::stats::{median_or_zero, Summary};
use feir_dist::NetStats;

use crate::workloads::{Kind, Outcome, Scale, Variant, Workload, RANKS};

/// Threads of the work-stealing pool (`FEIR_NUM_THREADS`), pinned by `main`.
pub const POOL_THREADS: usize = 2;
/// Shares of `--seconds` a traced run spends on untraced timed solves and on
/// reference solves; the rest goes to the traced pass and the probes.
const TRACED_RUN_TIMED_SHARE: f64 = 0.4;
const TRACED_RUN_REFERENCE_SHARE: f64 = 0.15;

/// What one run of one workload produced.
pub struct Measurement {
    pub kind: Kind,
    /// Measured-configuration solves run, warm-ups and traced ones included;
    /// every one of them went through the gate.
    pub attempted: u64,
    pub failed: u64,
    pub setup: Summary,
    /// Present unless every timed solve failed.
    pub solve: Option<Summary>,
    /// CPU-seconds per solve: harness plus reaped workers, user + system,
    /// over the timed window ÷ the solves run in it.
    pub cpu_s: f64,
    /// Traced runs only: every per-layer metric, in `PER_LAYER` order.
    pub layers: Option<Vec<f64>>,
}

impl Measurement {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.solve.is_some()
    }

    pub fn end_to_end(&self) -> [f64; 3] {
        [
            self.setup.median,
            self.solve.map_or(0.0, |s| s.median),
            self.cpu_s,
        ]
    }

    /// The object the acceptance pipeline reads off the last line of stdout:
    /// end-to-end metrics from an untraced run, per-layer from a traced one.
    pub fn driver_line(&self) -> Value {
        let metric = |value: f64, unit: &str| {
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit.into())),
            ])
        };
        let metrics = match &self.layers {
            None => Value::obj(
                END_TO_END
                    .iter()
                    .zip(self.end_to_end())
                    .map(|(m, v)| (m.name, metric(v, m.unit))),
            ),
            Some(layers) => Value::obj(
                PER_LAYER
                    .iter()
                    .zip(layers)
                    .map(|(m, v)| (m.name, metric(*v, m.unit))),
            ),
        };
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
    }
}

/// Accumulates the timed closed loop: one client, solves back to back.
#[derive(Default)]
struct Timed {
    attempted: u64,
    failed: u64,
    /// The workload's first passing solve: every later one must equal it.
    first: Option<Outcome>,
    /// `(index, seconds)` of each passing timed solve.
    wall: Vec<(usize, f64)>,
    launch: Vec<f64>,
    join: Vec<f64>,
    /// CPU-seconds of the timed passes, and the solves run in them (failed
    /// ones included: they burned CPU in the same window).
    cpu_total: f64,
    cpu_solves: usize,
    /// Link counters of each passing timed solve.
    net: Vec<NetStats>,
    next_index: usize,
}

impl Timed {
    /// Runs one measured solve through the gate. Returns the outcome when it
    /// passed.
    fn solve(&mut self, w: &Workload, index: usize) -> Option<Outcome> {
        self.attempted += 1;
        let verdict = w.solve(Variant::Measured, index).and_then(|outcome| {
            w.gate(&outcome, self.first.as_ref().unwrap_or(&outcome))
                .map(|()| outcome)
        });
        match verdict {
            Ok(outcome) => Some(outcome),
            Err(why) => {
                self.failed += 1;
                eprintln!("{}: solve {index} failed: {why}", w.kind.name());
                None
            }
        }
    }

    fn warm_up(&mut self, w: &Workload) {
        for index in 0..w.scale.warmups {
            if let Some(outcome) = self.solve(w, index) {
                self.first.get_or_insert(outcome);
            }
        }
    }

    /// Timed solves until `budget` is spent, `at_least` of them. The loop is
    /// one CPU-accounting window: per-solve reads of the 10 ms tick counters
    /// would add a rounding error per solve instead of one per pass.
    fn run(&mut self, w: &Workload, budget: Duration, at_least: usize) {
        let clock = Instant::now();
        let cpu_before = cpu_seconds();
        let mut done = 0;
        while done < at_least || clock.elapsed() < budget {
            let index = self.next_index;
            self.next_index += 1;
            done += 1;
            let Some(outcome) = self.solve(w, index) else {
                continue;
            };
            self.wall.push((index, outcome.wall_s()));
            self.launch.push(outcome.launch_s());
            self.join.push(outcome.join_s());
            self.net.push(outcome.net);
            self.first.get_or_insert(outcome);
        }
        self.cpu_total += cpu_seconds() - cpu_before;
        self.cpu_solves += done;
    }

    fn wall_samples(&self) -> Vec<f64> {
        self.wall.iter().map(|(_, s)| *s).collect()
    }

    /// Median over the timed solves of one link counter.
    fn net_median(&self, counter: impl Fn(&NetStats) -> u64) -> f64 {
        median_or_zero(
            &self
                .net
                .iter()
                .map(|n| counter(n) as f64)
                .collect::<Vec<_>>(),
        )
    }
}

/// Runs `kind` once: `seconds` of measuring on the inputs `seed` generates.
pub fn measure(
    kind: Kind,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    exe: &Path,
) -> Measurement {
    // Restart the peak-RSS watermark, so `--workload all` reports each
    // workload's own peak and not the largest so far. Best effort.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let workload = Workload::prepare(kind, scale, seed, exe);
    let mut timed = Timed::default();
    timed.warm_up(&workload);

    let mut layers = None;
    if traced {
        // Reference solves sit between the two halves of the timed solves,
        // so slow drift of the host lands on both sides of every ratio.
        let half = Duration::from_secs_f64(seconds * TRACED_RUN_TIMED_SHARE / 2.0);
        timed.run(&workload, half, scale.min_timed.div_ceil(2));
        let references = References::take(
            &workload,
            Duration::from_secs_f64(seconds * TRACED_RUN_REFERENCE_SHARE),
        );
        timed.run(&workload, half, scale.min_timed / 2);
        layers = Some(layer_metrics(&workload, &mut timed, &references));
    } else {
        timed.run(&workload, Duration::from_secs_f64(seconds), scale.min_timed);
    }

    let walls = timed.wall_samples();
    Measurement {
        kind,
        attempted: timed.attempted,
        failed: timed.failed,
        setup: Summary::of(&workload.setup_samples),
        solve: (!walls.is_empty()).then(|| Summary::of(&walls)),
        cpu_s: timed.cpu_total / timed.cpu_solves.max(1) as f64,
        layers,
    }
}

/// Median solve times of the configurations the derived metrics divide by.
/// 0 where a configuration does not exist for the workload or failed.
struct References {
    ideal_s: f64,
    fault_free_s: f64,
    plain_s: f64,
}

impl References {
    /// Runs the reference configurations round-robin — so a drift of the host
    /// lands on all of them alike — until `budget` is spent, at least
    /// `ref_solves` rounds.
    fn take(w: &Workload, budget: Duration) -> References {
        let mut variants = vec![Variant::Ideal];
        // On the fault-free workloads the measured loop *is* the fault-free one.
        if w.kind.injects_dues() || w.kind == Kind::LossyWire {
            variants.push(Variant::FaultFree);
        }
        if w.kind.uses_processes() {
            variants.push(Variant::Plain);
        }
        let mut walls: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
        let clock = Instant::now();
        let mut round = 0;
        while round < w.scale.ref_solves || clock.elapsed() < budget {
            for (variant, walls) in variants.iter().zip(&mut walls) {
                match w.solve(*variant, round) {
                    Ok(outcome) if outcome.converged => walls.push(outcome.wall_s()),
                    Ok(_) => eprintln!("{}: reference {variant:?} diverged", w.kind.name()),
                    Err(why) => eprintln!("{}: reference {variant:?} failed: {why}", w.kind.name()),
                }
            }
            round += 1;
        }
        let median_of = |wanted| {
            variants
                .iter()
                .position(|v| *v == wanted)
                .map_or(0.0, |i| median_or_zero(&walls[i]))
        };
        References {
            ideal_s: median_of(Variant::Ideal),
            fault_free_s: median_of(Variant::FaultFree),
            plain_s: median_of(Variant::Plain),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced pass, the probes, and every per-layer metric in catalog order.
fn layer_metrics(w: &Workload, timed: &mut Timed, references: &References) -> Vec<f64> {
    let mut rec = Recorder::default();
    let traced = traced_pass(w, timed, &mut rec);

    let mut m: Vec<(&'static str, f64)> = Vec::new();
    probes::sparse(w, &mut rec, &mut m);
    probes::serial_solve(w, &mut rec, &mut m);
    probes::pagemem(w, &mut rec, &mut m);
    probes::recovery(w, &mut rec, &mut m);
    probes::dist(w, &mut rec, &mut m);
    if w.kind.uses_processes() {
        probes::uds_allreduce(w, &mut rec, &mut m);
        probes::wire(w, &mut rec, &mut m);
    }

    let walls = timed.wall_samples();
    let solve = (!walls.is_empty()).then(|| Summary::of(&walls));
    let solve_s = solve.map_or(0.0, |s| s.median);
    if let Some(first) = &timed.first {
        let iterations = first.iterations as f64;
        let pages = (first.pages_recovered + first.pages_ignored) as f64;
        let data_frames = timed.net_median(|n| n.data_frames);
        let retransmits = timed.net_median(|n| n.retransmits);
        m.extend([
            ("solvers.iterations", iterations),
            ("solvers.residual_rel", first.residual_rel),
            ("pagemem.pages_injected", first.pages_injected as f64),
            ("recovery.pages_recovered", first.pages_recovered as f64),
            ("recovery.pages_ignored", first.pages_ignored as f64),
            ("recovery.pages_coupled", first.pages_coupled as f64),
            ("recovery.cross_rank_values", first.cross_rank_values as f64),
            (
                "recovery.exact_frac",
                ratio(first.pages_recovered as f64, pages),
            ),
            (
                "dist.allreduces_per_iter",
                ratio(first.allreduces as f64, iterations),
            ),
            ("dist.halo_doubles", w.problem.plan.halo_volume() as f64),
            ("process.data_frames", data_frames),
            ("process.frames_per_iter", ratio(data_frames, iterations)),
            ("wire.retransmits", retransmits),
            (
                "wire.injected_faults",
                timed.net_median(|n| n.injected_faults),
            ),
            ("wire.rejected", timed.net_median(|n| n.rejected)),
            ("wire.dup_received", timed.net_median(|n| n.dup_received)),
            (
                "wire.goodput_frac",
                ratio(data_frames, data_frames + retransmits),
            ),
        ]);
        if w.kind == Kind::LossyWire {
            let stall = (solve_s - references.fault_free_s) * 1e3;
            m.push(("wire.retx_stall_ms", ratio(stall, retransmits)));
        }
    }

    // Table 2 (protection on, no errors) and Figure 4 (slowdown under
    // errors), against the unprotected loop on the same backend.
    let protected_ff_s = if references.fault_free_s > 0.0 {
        references.fault_free_s
    } else {
        solve_s
    };
    m.extend([
        ("recovery.ideal_solve_s", references.ideal_s),
        ("recovery.protected_ff_solve_s", protected_ff_s),
        (
            "recovery.protect_overhead_x",
            ratio(protected_ff_s, references.ideal_s),
        ),
        ("recovery.slowdown_x", ratio(solve_s, references.ideal_s)),
    ]);
    let recovery_ms = traced.all_ranks.self_ms(Phase::RecoveryPlan)
        + traced.all_ranks.self_ms(Phase::RecoveryReconstruct)
        + traced.all_ranks.self_ms(Phase::RecoveryInstall);
    if w.kind.injects_dues() {
        // The paper's headline: of the time recovery takes, how much does
        // the caller still see? FEIR shows ≈ all of it by construction.
        let exposed_ms = (solve_s - protected_ff_s) * 1e3;
        m.extend([
            ("recovery.exposed_ms", exposed_ms),
            (
                "recovery.per_page_ms",
                ratio(exposed_ms, w.schedule.len() as f64),
            ),
            (
                "recovery.hidden_frac",
                (1.0 - ratio(exposed_ms, recovery_ms)).clamp(0.0, 1.0),
            ),
        ]);
    }
    m.extend([
        (
            "recovery.plan_ms",
            traced.all_ranks.self_ms(Phase::RecoveryPlan),
        ),
        (
            "recovery.reconstruct_ms",
            traced.all_ranks.self_ms(Phase::RecoveryReconstruct),
        ),
        (
            "recovery.install_ms",
            traced.all_ranks.self_ms(Phase::RecoveryInstall),
        ),
    ]);

    // Where rank 0's iterations go. Self times partition the iteration
    // spans, so what no child phase covers is visible as `unaccounted`.
    let r0 = &traced.rank0;
    let iteration_ms = r0.total_ms(Phase::Iteration);
    let allreduce_ms = r0.self_ms(Phase::Allreduce)
        + r0.self_ms(Phase::AllreducePost)
        + r0.self_ms(Phase::AllreduceWait);
    m.extend([
        ("dist.iteration_ms", iteration_ms),
        ("dist.spmv_ms", r0.self_ms(Phase::Spmv)),
        ("dist.halo_ms", r0.self_ms(Phase::Halo)),
        ("dist.allreduce_ms", allreduce_ms),
        (
            "dist.wait_share",
            ratio(r0.self_ms(Phase::AllreduceWait), iteration_ms),
        ),
        ("dist.unaccounted_ms", r0.self_ms(Phase::Iteration)),
    ]);
    if w.kind.uses_processes() {
        m.extend([
            ("process.launch_ms", median_or_zero(&timed.launch) * 1e3),
            ("process.join_ms", median_or_zero(&timed.join) * 1e3),
            ("process.plain_solve_s", references.plain_s),
            (
                "process.protect_overhead_x",
                ratio(solve_s, references.plain_s),
            ),
            ("process.solve_ms", iteration_ms),
            ("process.nonsolve_ms", traced.wall_s * 1e3 - iteration_ms),
        ]);
    }

    // Tracing overhead against untraced solves that faced the same wire.
    let same_wire: Vec<f64> = timed
        .wall
        .iter()
        .filter(|(index, _)| traced.indices.contains(&w.wire_pattern(*index)))
        .map(|(_, s)| *s)
        .collect();
    let overhead = ratio(traced.wall_s, median_or_zero(&same_wire));
    m.extend([
        (
            "trace.overhead_pct",
            if overhead > 0.0 {
                (overhead - 1.0) * 100.0
            } else {
                0.0
            },
        ),
        ("trace.events", traced.events),
        ("trace.dropped_events", traced.dropped),
        ("bench.samples", walls.len() as f64),
        (
            "bench.solve_iqr_pct",
            solve.map_or(0.0, |s| s.iqr_frac() * 100.0),
        ),
        ("bench.solve_tail_s", solve.map_or(0.0, |s| s.tail)),
        ("bench.tail_q", solve.map_or(0.0, |s| s.tail_q)),
        ("bench.peak_rss_mb", peak_rss_mb()),
        (
            "bench.nproc",
            std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
        ),
        ("bench.threads", POOL_THREADS as f64),
    ]);

    write_chrome_trace(w.kind, &rec);
    in_catalog_order(m)
}

/// Medians over the traced solves.
struct Traced {
    wall_s: f64,
    rank0: PhaseTimes,
    all_ranks: PhaseTimes,
    events: f64,
    dropped: f64,
    /// Wire patterns (see [`Workload::wire_pattern`]) the traced solves ran.
    indices: Vec<usize>,
}

/// A few more solves with `feir-trace` recording spans, in this process and
/// (through the environment) in the workers.
fn traced_pass(w: &Workload, timed: &mut Timed, rec: &mut Recorder) -> Traced {
    std::env::set_var("FEIR_TRACE", "spans");
    feir_trace::set_level(TraceLevel::Spans);
    let mut walls = Vec::new();
    let mut rank0 = Vec::new();
    let mut all_ranks = Vec::new();
    let mut dropped = Vec::new();
    let mut indices = Vec::new();
    for index in 0..w.scale.traced_solves {
        rec.next_solve();
        let Some(outcome) = timed.solve(w, index) else {
            continue;
        };
        let solve = rec.push(w.kind.entry_point(), outcome.start_ns, outcome.end_ns, None);
        if w.kind.uses_processes() {
            rec.push(
                "process.spawn_workers_with",
                outcome.start_ns,
                outcome.launched_ns,
                Some(solve),
            );
            rec.push(
                "process.join",
                outcome.launched_ns,
                outcome.end_ns,
                Some(solve),
            );
        }
        let mut sum = PhaseTimes::default();
        let mut first_rank = PhaseTimes::default();
        if let Some(trace) = &outcome.trace {
            rec.absorb(trace);
            dropped.push(trace.summary().dropped_events as f64);
            for rank in &trace.ranks {
                let times = phase_times(&rank.events);
                if rank.rank == 0 {
                    first_rank = times.clone();
                }
                sum.add(&times);
            }
        }
        walls.push(outcome.wall_s());
        rank0.push(first_rank);
        all_ranks.push(sum);
        indices.push(w.wire_pattern(index));
    }
    feir_trace::set_level(TraceLevel::Off);
    std::env::remove_var("FEIR_TRACE");

    Traced {
        wall_s: median_or_zero(&walls),
        events: median_of(&all_ranks, |t| t.events as f64),
        rank0: median_phase_times(&rank0),
        all_ranks: median_phase_times(&all_ranks),
        dropped: median_or_zero(&dropped),
        indices,
    }
}

fn median_of(samples: &[PhaseTimes], f: impl Fn(&PhaseTimes) -> f64) -> f64 {
    median_or_zero(&samples.iter().map(f).collect::<Vec<_>>())
}

/// Phase by phase, the median over the traced solves.
fn median_phase_times(samples: &[PhaseTimes]) -> PhaseTimes {
    let mut out = PhaseTimes::default();
    for i in 0..Phase::ALL.len() {
        out.total_ns[i] = median_of(samples, |t| t.total_ns[i] as f64) as u64;
        out.self_ns[i] = median_of(samples, |t| t.self_ns[i] as f64) as u64;
    }
    out
}

/// One Chrome-format file per workload under the git-ignored `out/`.
fn write_chrome_trace(kind: Kind, rec: &Recorder) {
    let path = format!("out/{}.trace.json", kind.name());
    let written =
        std::fs::create_dir_all("out").and_then(|()| std::fs::write(&path, rec.chrome_json()));
    if let Err(e) = written {
        eprintln!("{}: could not write {path}: {e}", kind.name());
    }
}

/// Lays the collected values out in catalog order; a metric that does not
/// apply to the workload reads 0.
///
/// # Panics
/// Panics on a value whose name the catalog does not list: a typo here must
/// not turn into a silently missing metric.
fn in_catalog_order(values: Vec<(&'static str, f64)>) -> Vec<f64> {
    for (name, _) in &values {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "metric {name} is not in the catalog"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| {
            let value = values.iter().find(|(name, _)| *name == m.name);
            value.map_or(0.0, |(_, v)| *v)
        })
        .collect()
}

/// User + system CPU seconds of this process and of the children it has
/// reaped (`/proc/self/stat` utime + stime + cutime + cstime).
fn cpu_seconds() -> f64 {
    // Linux reports these fields in USER_HZ ticks, 100 per second on every
    // supported architecture.
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split_ascii_whitespace()
        .skip(11) // state is field 3; utime is field 14
        .take(4)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_SECOND
}

/// Peak resident set of the harness process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Six significant digits, whatever the magnitude (a residual of 1e-8 and a
/// frame count of 1388 share a column).
fn compact(value: f64) -> String {
    if value != 0.0 && value.abs() < 1e-3 {
        format!("{value:.5e}")
    } else {
        format!("{value:.6}")
    }
}

/// One run's table on stderr: every metric by name with its unit, and for
/// the timings median, quartiles, tail and sample count.
pub fn print_table(m: &Measurement) {
    eprintln!(
        "\n== {} ({}) == attempted {} failed {}",
        m.kind.name(),
        if m.layers.is_some() {
            "traced run"
        } else {
            "untraced run"
        },
        m.attempted,
        m.failed
    );
    let row = |name: &str, s: &Summary| {
        eprintln!(
            "  {name:<32} {:>14.6} s       q1 {:.6} q3 {:.6} p{:.0} {:.6} n {}",
            s.median,
            s.q1,
            s.q3,
            s.tail_q * 100.0,
            s.tail,
            s.n
        );
    };
    row("setup_s", &m.setup);
    if let Some(solve) = &m.solve {
        row("solve_s", solve);
    }
    eprintln!("  {:<32} {:>14.6} s", "cpu_s", m.cpu_s);
    for (metric, value) in PER_LAYER.iter().zip(m.layers.iter().flatten()) {
        eprintln!(
            "  {:<32} {:>14} {}",
            metric.name,
            compact(*value),
            metric.unit
        );
    }
}

/// The summary object of `--workload all`: per workload, the end-to-end
/// metrics of its untraced run with quartiles and counts, and every per-layer
/// metric of its traced run. It claims nothing.
pub fn summary_json(seed: u64, runs: &[(Measurement, Measurement)]) -> Value {
    let stat = |s: &Summary, unit: &str| {
        Value::obj([
            ("value", Value::Num(s.median)),
            ("unit", Value::Str(unit.into())),
            ("q1", Value::Num(s.q1)),
            ("q3", Value::Num(s.q3)),
            ("n", Value::Num(s.n as f64)),
        ])
    };
    let workloads = runs.iter().map(|(untraced, traced)| {
        let mut metrics = vec![("setup_s".to_string(), stat(&untraced.setup, "s"))];
        if let Some(solve) = &untraced.solve {
            metrics.push(("solve_s".into(), stat(solve, "s")));
            metrics.push((
                "cpu_s".into(),
                Value::obj([
                    ("value", Value::Num(untraced.cpu_s)),
                    ("unit", Value::Str("s".into())),
                    ("n", Value::Num(solve.n as f64)),
                ]),
            ));
        }
        for (metric, value) in PER_LAYER.iter().zip(traced.layers.iter().flatten()) {
            metrics.push((
                metric.name.to_string(),
                Value::obj([
                    ("value", Value::Num(*value)),
                    ("unit", Value::Str(metric.unit.into())),
                ]),
            ));
        }
        let attempted = untraced.attempted + traced.attempted;
        let failed = untraced.failed + traced.failed;
        (
            untraced.kind.name(),
            Value::obj([
                (
                    "correct",
                    Value::Bool(failed == 0 && untraced.solve.is_some()),
                ),
                ("ops_attempted", Value::Num(attempted as f64)),
                ("ops_failed", Value::Num(failed as f64)),
                ("metrics", Value::Obj(metrics)),
            ]),
        )
    });
    Value::obj([
        ("seed", Value::Num(seed as f64)),
        ("ranks", Value::Num(RANKS as f64)),
        ("workloads", Value::obj(workloads)),
        ("claim", Value::Null),
    ])
}
