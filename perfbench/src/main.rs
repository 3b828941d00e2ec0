//! Host-cost benchmark of the dws simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flagship_2t|starved_2k|traced_why|all> --seed <n> \
//!     --seconds <n> --trace <0|1> [--scale full|small]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (tracing and profiling
//! off), `--trace 1` the per-layer table. Either way the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--workload all` runs every workload in a fresh process at the
//! default seed and at `--seed`, so each peak RSS belongs to its
//! workload. See `perfbench/README.md`.

mod host;
mod passes;
mod workloads;

use passes::PassResult;
use std::process::{Command, ExitCode};
use workloads::{Scale, DEFAULT_SEED, NAMES};

// The `dws` CLI counts allocations the same way, so runs here pay the
// same allocator cost as the runs users make.
#[global_allocator]
static ALLOC: dws_simnet::CountingAlloc = dws_simnet::CountingAlloc;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    /// Internal: make one end-to-end run at this simulation seed and
    /// print its [`passes::ChildReport`] line.
    child_seed: Option<u64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        child_seed: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad(&"must be a finite non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => args.scale = Scale::parse(value)?,
            "--child-seed" => args.child_seed = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {} or all",
            args.workload,
            NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// A number as JSON: every digit Rust's shortest round-trip form has;
/// a missing measurement (no run passed) as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line the contract asks for.
fn result_line(res: &PassResult) -> String {
    let metrics: Vec<String> = res
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.failed == 0,
        res.attempted,
        res.failed,
        metrics.join(", ")
    )
}

/// Run one workload in this process and print its report.
fn run_one(args: &Args) -> ExitCode {
    let w = workloads::by_name(&args.workload, args.scale).expect("name validated");
    let expected = (args.seed == DEFAULT_SEED).then_some(w.recorded);
    let res = if args.trace {
        passes::layers(&w, args.seed, expected, args.seconds)
    } else {
        let exe = std::env::current_exe().expect("current executable path");
        let mut spawn = |sim_seed: u64| {
            let out = Command::new(&exe)
                .args(["--workload", w.name, "--scale", args.scale.name()])
                .args(["--child-seed", &sim_seed.to_string()])
                .output()
                .map_err(|e| format!("cannot start a run: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            match stdout.lines().last() {
                Some(line) if out.status.success() => passes::ChildReport::from_line(line),
                _ => Err(format!(
                    "run exited with {}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim_end()
                )),
            }
        };
        passes::end_to_end(&w, args.seed, expected, args.seconds, &mut spawn)
    };
    println!(
        "== {} (seed {}, {} pass) ==",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "end-to-end" }
    );
    for note in &res.notes {
        println!("{note}");
    }
    for (name, value, unit) in &res.metrics {
        println!("{name:<28} {value:>18.6} {unit}");
    }
    println!(
        "{:<28} {:>18.6} ratio ({} of {} runs failed a check)",
        "failed_ratio",
        res.failed as f64 / res.attempted.max(1) as f64,
        res.failed,
        res.attempted
    );
    for f in &res.failures {
        println!("FAILED {f}");
    }
    println!("{}", result_line(&res));
    ExitCode::SUCCESS
}

/// Run every workload in a child process of its own, at the default
/// seed and at `--seed`, and sum their correctness tallies.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("current executable path");
    let mut seeds = vec![DEFAULT_SEED];
    if args.seed != DEFAULT_SEED {
        seeds.push(args.seed);
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    for seed in seeds {
        for name in NAMES {
            let out = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .args(["--scale", args.scale.name()])
                .output()
                .expect("spawn the benchmark for one workload");
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            let tally = stdout
                .lines()
                .last()
                .and_then(|l| dws_metrics::export::parse(l).ok())
                .and_then(|doc| {
                    let n = |k: &str| doc.get(k)?.as_u64();
                    Some((n("attempted")?, n("failed")?))
                });
            match tally {
                Some((a, f)) if out.status.success() => {
                    attempted += a;
                    failed += f;
                }
                _ => {
                    eprintln!("{name} at seed {seed} produced no result");
                    attempted += 1;
                    failed += 1;
                }
            }
        }
    }
    let ratio = failed as f64 / attempted.max(1) as f64;
    println!("== all workloads ==");
    println!("{:<28} {:>18.6} ratio", "failed_ratio", ratio);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{\"failed_ratio\": {{\"value\": {ratio}, \"unit\": \"ratio\"}}}}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(sim_seed) = args.child_seed {
        let w = workloads::by_name(&args.workload, args.scale).expect("name validated");
        return match passes::child_run(&w, sim_seed) {
            Ok(report) => {
                println!("{}", report.to_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
