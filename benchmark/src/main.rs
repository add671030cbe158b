//! `feir-benchmark`: see `README.md` in this directory.
//!
//! ```text
//! --workload <name>|all   one of ff_kernel ff_wire due_afeir due_feir lossy_wire (default all)
//! --seed <n>              feeds the harness PRNG that generates every input (default 1)
//! --seconds <s>           how long the timed closed loop measures (default 15)
//! --trace 0|1             single workload: 0 = end-to-end metrics, 1 = per-layer metrics
//! --smoke                 tiny grids and a handful of solves
//! --selfcheck             run every workload twice and hold the pair against the bounds
//! ```

use std::process::ExitCode;

use feir_benchmark::catalog::END_TO_END;
use feir_benchmark::run::{measure, print_table, summary_json, Measurement, POOL_THREADS};
use feir_benchmark::workloads::{Kind, Scale};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    /// `None` is `all`.
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // A worker process of one of this harness's own fleets.
    if feir_dist::spawned_as_worker() {
        return feir_dist::worker_main();
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("feir-benchmark: {why}");
            return ExitCode::from(2);
        }
    };

    // The pinned environment, inherited by the workers. Set before any
    // thread exists.
    std::env::set_var("FEIR_NUM_THREADS", POOL_THREADS.to_string());
    std::env::remove_var("FEIR_SPMV_FORMAT");
    std::env::remove_var("FEIR_TRACE");
    // Everything written (rendezvous sockets, trace files) goes under this
    // crate's git-ignored `out/`, addressed relative to the crate directory.
    if let Err(e) = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")) {
        eprintln!(
            "feir-benchmark: cannot enter {}: {e}",
            env!("CARGO_MANIFEST_DIR")
        );
        return ExitCode::FAILURE;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("feir-benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (scale, seconds) = if args.smoke {
        (Scale::SMOKE, 0.0)
    } else {
        (Scale::FULL, args.seconds)
    };
    let run = |kind, traced| measure(kind, scale, args.seed, seconds, traced, &exe);

    if args.selfcheck {
        return selfcheck(|kind| run(kind, false));
    }
    match args.workload {
        Some(kind) => {
            let measurement = run(kind, args.traced);
            print_table(&measurement);
            println!("{}", measurement.driver_line().render());
        }
        None => {
            let runs: Vec<(Measurement, Measurement)> = Kind::ALL
                .into_iter()
                .map(|kind| {
                    let untraced = run(kind, false);
                    print_table(&untraced);
                    let traced = run(kind, true);
                    print_table(&traced);
                    (untraced, traced)
                })
                .collect();
            println!("{}", summary_json(args.seed, &runs).render());
        }
    }
    ExitCode::SUCCESS
}

/// Two back-to-back sets of the same code on the same inputs: each
/// end-to-end metric's relative difference beside its bound. Like the
/// acceptance pipeline, a pair fails when the second is *worse* than the
/// first by more than the bound.
fn selfcheck(run: impl Fn(Kind) -> Measurement) -> ExitCode {
    let first: Vec<Measurement> = Kind::ALL.into_iter().map(&run).collect();
    let second: Vec<Measurement> = Kind::ALL.into_iter().map(&run).collect();
    let mut ok = true;
    println!(
        "{:<11} {:<8} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        if !(a.correct() && b.correct()) {
            println!(
                "{:<11} FAILED OPERATIONS: {} + {}",
                a.kind.name(),
                a.failed,
                b.failed
            );
            ok = false;
        }
        for ((metric, x), y) in END_TO_END.iter().zip(a.end_to_end()).zip(b.end_to_end()) {
            let diff = if x > 0.0 { (y - x) / x } else { f64::INFINITY };
            let within = diff <= metric.bound;
            ok &= within;
            println!(
                "{:<11} {:<8} {x:>12.6} {y:>12.6} {:>+7.1}% {:>6.0}% {}",
                a.kind.name(),
                metric.name,
                diff * 100.0,
                metric.bound * 100.0,
                if within { "" } else { "EXCEEDED" }
            );
        }
        // A spread wider than the bound cannot resolve a change of the
        // bound's size: such a pair is "unresolved", never "unchanged".
        let solve_bound = END_TO_END[1].bound;
        for m in [a, b] {
            if let Some(solve) = m.solve.filter(|s| s.iqr_frac() > solve_bound) {
                println!(
                    "{:<11} warning: solve_s IQR is {:.1}% of its median, wider than the {:.0}% \
                     bound: unresolved",
                    m.kind.name(),
                    solve.iqr_frac() * 100.0,
                    solve_bound * 100.0
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
