//! The two passes over one workload: the end-to-end pass (tracing and
//! profiling off) and the traced pass that fills the per-layer table.
//!
//! Every layer is measured from outside: by timing calls into the
//! crates' public functions and by reading the outputs a run already
//! carries (`profile`, `window_plan`, `engine_steals`, `RunStats`).

use crate::host::{cpu_seconds, median, nproc, peak_rss_bytes, rss_bytes, secs_since};
use crate::workloads::{Signature, Workload};
use dws_core::{run_experiment, ExperimentConfig, ExperimentResult, VictimSelector};
use dws_simnet::DetRng;
use dws_topology::{AllocationPolicy, Job, Machine};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The outcome of one pass: metrics plus the correctness tally.
#[derive(Debug)]
pub struct PassResult {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Runs whose outputs were checked.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Human-readable host facts printed beside the metrics.
    pub notes: Vec<String>,
}

/// The simulation seed of the `i`-th run in a pass: `seed` itself
/// first, then seeds derived from it. Spreading a pass over several
/// inputs keeps its median steady across `--seed` values even where one
/// input's schedule is an outlier.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What a run's correctness checks look at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFacts {
    /// The run reached termination.
    pub completed: bool,
    /// Tree nodes the ranks processed.
    pub total_nodes: u64,
    /// The simulated schedule.
    pub signature: Signature,
}

impl RunFacts {
    /// The facts of a finished run.
    pub fn of(r: &ExperimentResult) -> RunFacts {
        RunFacts {
            completed: r.completed,
            total_nodes: r.total_nodes,
            signature: Signature::of(r),
        }
    }
}

/// Checks every run of one workload: it completed, processed the whole
/// tree, and reproduced the schedule signature of its simulation seed.
pub struct Checker {
    tree_nodes: u64,
    /// Signature per simulation seed: recorded, or the first run's.
    expected: BTreeMap<u64, Signature>,
    attempted: u64,
    failures: Vec<String>,
}

impl Checker {
    /// `recorded` pins signatures known in advance (the default seed's);
    /// any other seed's first run sets the signature its repeats must
    /// reproduce.
    pub fn new(tree_nodes: u64, recorded: Option<(u64, Signature)>) -> Checker {
        Checker {
            tree_nodes,
            expected: recorded.into_iter().collect(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Check one run at simulation seed `seed`; `Err` is a run that
    /// panicked, crashed or whose outputs did not verify. Returns
    /// whether the run passed.
    pub fn check(&mut self, label: &str, seed: u64, run: Result<RunFacts, String>) -> bool {
        self.attempted += 1;
        let verdict = run.and_then(|r| {
            if !r.completed {
                return Err("run did not complete".into());
            }
            if r.total_nodes != self.tree_nodes {
                return Err(format!(
                    "processed {} nodes, tree has {}",
                    r.total_nodes, self.tree_nodes
                ));
            }
            let want = *self.expected.entry(seed).or_insert(r.signature);
            if want != r.signature {
                return Err(format!(
                    "schedule signature {:?} differs from expected {want:?}",
                    r.signature
                ));
            }
            Ok(())
        });
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.failures.push(format!("{label} (seed {seed}): {e}"));
                false
            }
        }
    }

    fn finish(self, metrics: Vec<Metric>, notes: Vec<String>) -> PassResult {
        PassResult {
            metrics,
            attempted: self.attempted,
            failed: self.failures.len() as u64,
            failures: self.failures,
            notes,
        }
    }
}

/// Run `f`, turning a panic (the runner's integrity asserts) into an
/// error so one bad run cannot abort the benchmark.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Host cost of one timed call.
#[derive(Debug, Clone, Copy)]
struct Timed {
    wall_s: f64,
    cpu_s: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = secs_since(t0);
    let cpu_s = cpu_seconds() - cpu0;
    (out, Timed { wall_s, cpu_s })
}

/// What the observability stages of the traced workload produced.
#[derive(Debug, Clone, Copy, Default)]
struct ObsCost {
    blame_s: f64,
    chrome_export_s: f64,
    chrome_trace_bytes: f64,
    report_export_s: f64,
    report_bytes: f64,
    parse_s: f64,
}

/// `dws trace --json` followed by `dws why <report>`, on a finished
/// run: blame, the Chrome document serialized to bytes, the run report
/// serialized, and the report parsed back and its blame section
/// verified. Untraced runs have no blame or Chrome document; their
/// calls are still timed and yield no bytes.
fn explain(r: &ExperimentResult) -> Result<ObsCost, String> {
    let (blame, blame_t) = timed(|| r.blame_report());
    let (chrome, chrome_t) = timed(|| r.chrome_trace_json().map(|d| d.to_string()));
    let (report, report_t) = timed(|| r.json_report().to_string());
    let (doc, parse_t) = timed(|| dws_metrics::export::parse(&report));
    let doc = doc.map_err(|e| format!("run report does not parse: {e}"))?;
    if blame.is_some() {
        dws_metrics::blame::verify_report(&doc)
            .map_err(|e| format!("blame section fails verification: {e}"))?;
    }
    black_box(&doc);
    Ok(ObsCost {
        blame_s: blame_t.wall_s,
        chrome_export_s: chrome_t.wall_s,
        chrome_trace_bytes: chrome.map_or(0, |c| c.len()) as f64,
        report_export_s: report_t.wall_s,
        report_bytes: report.len() as f64,
        parse_s: parse_t.wall_s,
    })
}

/// One user-visible operation: the simulated run, plus — for the traced
/// workload — explaining it. Returns the result, the operation's host
/// cost, the `run_experiment` share of it, and the observability costs.
fn operation(
    w: &Workload,
    cfg: &ExperimentConfig,
) -> Result<(ExperimentResult, Timed, f64, ObsCost), String> {
    guarded(|| {
        let ((r, run_t, obs), op_t) = timed(|| {
            let (r, run_t) = timed(|| run_experiment(cfg));
            let obs = if w.traced {
                explain(&r).map(Some)
            } else {
                Ok(None)
            };
            (r, run_t, obs)
        });
        let obs = obs?.unwrap_or_default();
        Ok((r, op_t, run_t.wall_s, obs))
    })
}

/// The machine `run_experiment` would place the job on.
fn machine_for(cfg: &ExperimentConfig) -> Machine {
    if cfg.alloc == AllocationPolicy::TorusFill {
        Machine::torus_for_nodes(cfg.n_nodes)
    } else if cfg.n_nodes <= Machine::k_computer().node_count() {
        Machine::k_computer()
    } else {
        Machine::with_capacity(cfg.n_nodes)
    }
}

/// One set-up: `Job::place`, then `VictimPolicy::prepare` and a
/// selector `build` for every rank, exactly as `run_experiment` does
/// before simulating. Returns the placed job and selectors (so memory
/// can be read while they are alive) and the two timings.
fn setup_once(cfg: &ExperimentConfig) -> (Arc<Job>, Vec<VictimSelector>, f64, f64) {
    let t0 = Instant::now();
    let job = Arc::new(Job::place(
        machine_for(cfg),
        cfg.n_nodes,
        cfg.alloc,
        cfg.mapping,
        cfg.latency.clone(),
    ));
    let place_s = secs_since(t0);
    let t1 = Instant::now();
    let ctx = cfg.victim.prepare(&job);
    let selectors: Vec<VictimSelector> = (0..job.n_ranks())
        .map(|me| cfg.victim.build(&job, me, &ctx))
        .collect();
    let prepare_s = secs_since(t1);
    (job, selectors, place_s, prepare_s)
}

/// Set-up timings: median place, prepare+build and total over at least
/// `MIN_SETUPS` repetitions and `budget_s` seconds, plus the RSS with
/// the last set-up still alive.
struct SetupCost {
    place_s: f64,
    prepare_s: f64,
    total_s: f64,
    rss_bytes: u64,
}

const MIN_SETUPS: usize = 5;

fn measure_setup(cfg: &ExperimentConfig, budget_s: f64) -> SetupCost {
    let (mut place, mut prepare, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut rss = 0;
    while place.len() < MIN_SETUPS || secs_since(t0) < budget_s {
        let (job, selectors, p, q) = setup_once(cfg);
        rss = rss_bytes();
        black_box((&job, &selectors));
        place.push(p);
        prepare.push(q);
        total.push(p + q);
    }
    SetupCost {
        place_s: median(&place),
        prepare_s: median(&prepare),
        total_s: median(&total),
        rss_bytes: rss,
    }
}

/// Host facts printed with every result, and the flag for a parallel
/// run that did not get the cores it asked for.
fn host_notes(w: &Workload, cores_used: f64) -> Vec<String> {
    let mut notes = vec![format!(
        "host: nproc {}, workload threads {}, cores used (cpu_s / wall_s) {:.2}",
        nproc(),
        w.threads,
        cores_used
    )];
    if w.threads > 1 && (nproc() < w.threads || cores_used < 0.75 * w.threads as f64) {
        notes.push(format!(
            "WARNING: core-starved run — {} threads got {:.2} cores; \
             its wall time does not show the parallel driver on real cores",
            w.threads, cores_used
        ));
    }
    notes
}

/// What one end-to-end run, made in a process of its own, reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildReport {
    /// Median set-up time of the child's set-ups.
    pub setup_s: f64,
    /// Host wall time of the operation.
    pub wall_s: f64,
    /// User + system CPU time of the operation.
    pub cpu_s: f64,
    /// Simulated events.
    pub events: u64,
    /// The child's peak RSS after the operation.
    pub peak_rss_bytes: u64,
    /// What the correctness checks look at.
    pub facts: RunFacts,
}

/// Seconds of set-up timing a child makes before its operation.
const CHILD_SETUP_BUDGET_S: f64 = 0.2;

/// One end-to-end run in this process: time the set-up, then the
/// operation at simulation seed `sim_seed`.
pub fn child_run(w: &Workload, sim_seed: u64) -> Result<ChildReport, String> {
    let cfg = w.config(sim_seed);
    let setup = measure_setup(&cfg, CHILD_SETUP_BUDGET_S);
    let (r, op, _, _) = operation(w, &cfg)?;
    Ok(ChildReport {
        setup_s: setup.total_s,
        wall_s: op.wall_s,
        cpu_s: op.cpu_s,
        events: r.report.events,
        peak_rss_bytes: peak_rss_bytes(),
        facts: RunFacts::of(&r),
    })
}

impl ChildReport {
    /// The one-line form a child prints for its parent.
    pub fn to_line(self) -> String {
        let s = self.facts.signature;
        format!(
            "child {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            self.setup_s,
            self.wall_s,
            self.cpu_s,
            self.events,
            self.peak_rss_bytes,
            self.facts.completed,
            self.facts.total_nodes,
            s.makespan_ns,
            s.events,
            s.steal_attempts,
            s.steals_ok,
            s.steals_failed,
            s.chunks_given,
            s.nodes_given
        )
    }

    /// Parse [`to_line`](Self::to_line) output.
    pub fn from_line(line: &str) -> Result<ChildReport, String> {
        let bad = || format!("malformed child report {line:?}");
        let f: Vec<&str> = line
            .strip_prefix("child ")
            .ok_or_else(bad)?
            .split_whitespace()
            .collect();
        if f.len() != 14 {
            return Err(bad());
        }
        let float = |i: usize| f[i].parse::<f64>().map_err(|_| bad());
        let int = |i: usize| f[i].parse::<u64>().map_err(|_| bad());
        Ok(ChildReport {
            setup_s: float(0)?,
            wall_s: float(1)?,
            cpu_s: float(2)?,
            events: int(3)?,
            peak_rss_bytes: int(4)?,
            facts: RunFacts {
                completed: f[5].parse().map_err(|_| bad())?,
                total_nodes: int(6)?,
                signature: Signature {
                    makespan_ns: int(7)?,
                    events: int(8)?,
                    steal_attempts: int(9)?,
                    steals_ok: int(10)?,
                    steals_failed: int(11)?,
                    chunks_given: int(12)?,
                    nodes_given: int(13)?,
                },
            },
        })
    }
}

/// The end-to-end pass. Each run is one operation made by `child` (in
/// the benchmark, a fresh process: where a process's memory lands
/// moves memory-bound runs by ±10%, so figures over several processes
/// are steadier than any number of repeats in one). Runs go over
/// sub-seeds 0, 1, 2, … while another run still fits in `seconds`;
/// a last run repeats sub-seed 0 to check that its schedule
/// reproduces. Reports means over all runs.
pub fn end_to_end(
    w: &Workload,
    seed: u64,
    recorded: Option<Signature>,
    seconds: f64,
    child: &mut dyn FnMut(u64) -> Result<ChildReport, String>,
) -> PassResult {
    let mut checker = Checker::new(w.tree_nodes, recorded.map(|sig| (seed, sig)));
    let mut ok: Vec<ChildReport> = Vec::new();
    let mut run = |i: u64, checker: &mut Checker| {
        let s = sub_seed(seed, i);
        let label = format!("run {}", checker.attempted + 1);
        let t0 = Instant::now();
        let report = child(s);
        let facts = report.as_ref().map(|c| c.facts).map_err(Clone::clone);
        if let (true, Ok(c)) = (checker.check(&label, s, facts), report) {
            ok.push(c);
        }
        secs_since(t0)
    };
    let t0 = Instant::now();
    let mut seeds = 1;
    let mut last = run(0, &mut checker);
    while secs_since(t0) + 2.0 * last < seconds {
        last = run(seeds, &mut checker);
        seeds += 1;
    }
    run(0, &mut checker);

    // Means, not medians: a run's seeds split between a fast and a slow
    // termination schedule, and the median of such a mix jumps between
    // the two modes from one `--seed` to the next.
    let mean = |f: fn(&ChildReport) -> f64| ok.iter().map(f).sum::<f64>() / ok.len() as f64;
    let wall_s = mean(|c| c.wall_s);
    let cpu_s = mean(|c| c.cpu_s);
    let mut notes = host_notes(w, cpu_s / wall_s);
    notes.push(format!(
        "runs: {} processes over {seeds} seeds; ranks {}; wall_s per run {:.3?}",
        checker.attempted,
        w.ranks(),
        ok.iter().map(|c| c.wall_s).collect::<Vec<_>>()
    ));
    let metrics = vec![
        ("wall_s", wall_s, "s"),
        ("setup_s", mean(|c| c.setup_s), "s"),
        ("cpu_s", cpu_s, "s"),
        (
            "sim_events_per_s",
            mean(|c| c.events as f64 / c.wall_s),
            "1/s",
        ),
        ("peak_rss_mb", mean(|c| c.peak_rss_bytes as f64 / 1e6), "MB"),
    ];
    checker.finish(metrics, notes)
}

/// Phase totals of a profiled run, by name.
fn phase(r: &ExperimentResult, name: &str) -> (u64, u64) {
    r.profile
        .as_ref()
        .and_then(|p| p.phases.iter().find(|(n, _, _)| n == name))
        .map_or((0, 0), |&(_, calls, ns)| (calls, ns))
}

/// Median nanoseconds per node of a sequential UTS search over the
/// workload's tree, capped at `UTS_BUDGET` nodes.
fn uts_ns_per_node(tree: &dws_uts::Workload) -> f64 {
    const UTS_BUDGET: u64 = 400_000;
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let (stats, t) = timed(|| dws_uts::search::search_with_limit(tree, UTS_BUDGET));
            // `None` means the budget was hit after UTS_BUDGET + 1 nodes.
            let nodes = stats.map_or(UTS_BUDGET + 1, |s| s.nodes);
            t.wall_s * 1e9 / nodes as f64
        })
        .collect();
    median(&samples)
}

/// Median nanoseconds per `next_victim` draw on the workload's placed
/// job, over a spread of drawing ranks.
fn victim_ns_per_draw(cfg: &ExperimentConfig, seed: u64) -> f64 {
    const DRAWS: u32 = 1 << 20;
    let (job, mut selectors, _, _) = setup_once(cfg);
    let n = job.n_ranks();
    let samples: Vec<f64> = (0..5u32)
        .map(|k| {
            let me = (k * n / 5) as usize;
            let mut rng = DetRng::for_rank(seed, me as u32);
            let sel = &mut selectors[me];
            let (sum, t) =
                timed(|| (0..DRAWS).fold(0u64, |acc, _| acc + sel.next_victim(&mut rng) as u64));
            black_box(sum);
            t.wall_s * 1e9 / DRAWS as f64
        })
        .collect();
    median(&samples)
}

/// The traced pass. Each round runs, at one sub-seed, the plain
/// operation, the same run profiled, and the run with tracing flipped;
/// rounds repeat while `seconds` have not passed. Every run is checked
/// like the end-to-end pass, so the profile and tracing switches must
/// not move the signature. The outside probes run once at the end.
pub fn layers(w: &Workload, seed: u64, recorded: Option<Signature>, seconds: f64) -> PassResult {
    let cfg = w.config(seed);
    let setup = measure_setup(&cfg, 1.0);
    let mut checker = Checker::new(w.tree_nodes, recorded.map(|sig| (seed, sig)));

    let (mut plain_run, mut plain_op, mut plain_cpu) = (Vec::new(), Vec::new(), Vec::new());
    let (mut profiled_run, mut flipped_run, mut obs) = (Vec::new(), Vec::new(), Vec::new());
    let mut run_peak = 0u64;
    let mut first_profiled: Option<ExperimentResult> = None;
    let t0 = Instant::now();
    let mut round = 0;
    while round == 0 || secs_since(t0) < seconds {
        let s = sub_seed(seed, round);
        round += 1;
        match operation(w, &w.config(s)) {
            Ok((r, op, run_s, o)) => {
                if checker.check(&format!("plain run {round}"), s, Ok(RunFacts::of(&r))) {
                    plain_run.push(run_s);
                    plain_op.push(op.wall_s);
                    plain_cpu.push(op.cpu_s);
                    if w.traced {
                        obs.push(o);
                    }
                }
            }
            Err(e) => {
                checker.check(&format!("plain run {round}"), s, Err(e));
            }
        }
        // Peak of the user-visible operation alone, before the
        // comparison runs below can raise it.
        if round == 1 {
            run_peak = peak_rss_bytes();
        }
        let mut profiled_cfg = w.config(s);
        profiled_cfg.profile = true;
        match guarded(|| Ok(timed(|| run_experiment(&profiled_cfg)))) {
            Ok((r, t)) => {
                if checker.check(&format!("profiled run {round}"), s, Ok(RunFacts::of(&r))) {
                    profiled_run.push(t.wall_s);
                    first_profiled.get_or_insert(r);
                }
            }
            Err(e) => {
                checker.check(&format!("profiled run {round}"), s, Err(e));
            }
        }
        // Untraced workloads export and parse their run report once: at
        // thousands of ranks the parse alone can take a minute.
        let flip = guarded(|| {
            let (r, t) = timed(|| run_experiment(&w.flipped_tracing(s)));
            let o = if w.traced || round > 1 {
                None
            } else {
                Some(explain(&r)?)
            };
            Ok((r, t, o))
        });
        match flip {
            Ok((r, t, o)) => {
                if checker.check(
                    &format!("tracing-flipped run {round}"),
                    s,
                    Ok(RunFacts::of(&r)),
                ) {
                    flipped_run.push(t.wall_s);
                    obs.extend(o);
                }
            }
            Err(e) => {
                checker.check(&format!("tracing-flipped run {round}"), s, Err(e));
            }
        }
    }
    let uts = uts_ns_per_node(&w.tree);
    let draw = victim_ns_per_draw(&cfg, seed);

    let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    let obs_med = |f: fn(&ObsCost) -> f64| med(&obs.iter().map(f).collect::<Vec<_>>());
    let plain_s = med(&plain_run);
    let profiled_s = med(&profiled_run);
    let tracing_overhead_s = if w.traced {
        plain_s - med(&flipped_run)
    } else {
        med(&flipped_run) - plain_s
    };

    let Some(r) = first_profiled else {
        return checker.finish(Vec::new(), vec!["no profiled run passed its checks".into()]);
    };
    let prof = r.profile.as_ref().expect("profiled run carries a profile");
    let total = r.stats.total();
    let events = r.report.events as f64;
    let thread_s = prof.wall_ns as f64 * cfg.threads as f64;
    let (dispatch_calls, dispatch_ns) = phase(&r, "dispatch");
    let (_, barrier_ns) = phase(&r, "barrier_wait");
    let (_, exchange_ns) = phase(&r, "exchange");
    let (victim_draws, _) = phase(&r, "victim_draw");
    let share = |ns: u64| ns as f64 / thread_s;
    let cores_used = med(&plain_cpu) / med(&plain_op);

    let metrics = vec![
        ("uts.ns_per_node", uts, "ns"),
        ("core.victim_ns_per_draw", draw, "ns"),
        ("core.victim_draws", victim_draws as f64, "count"),
        ("core.steal_attempts", total.steal_attempts as f64, "count"),
        (
            "core.steal_success_ratio",
            total.steals_ok as f64 / total.steal_attempts.max(1) as f64,
            "ratio",
        ),
        (
            "core.events_per_node",
            events / r.total_nodes as f64,
            "count",
        ),
        ("core.victim_prepare_s", setup.prepare_s, "s"),
        ("topology.place_s", setup.place_s, "s"),
        ("simnet.windows", r.window_plan.1 as f64, "count"),
        (
            "simnet.events_per_window",
            events / r.window_plan.1.max(1) as f64,
            "count",
        ),
        ("simnet.rebalances", r.engine_steals as f64, "count"),
        ("simnet.barrier_share", share(barrier_ns), "ratio"),
        ("simnet.exchange_share", share(exchange_ns), "ratio"),
        ("simnet.dispatch_share", share(dispatch_ns), "ratio"),
        (
            "simnet.unattributed_share",
            1.0 - share(dispatch_ns + barrier_ns + exchange_ns),
            "ratio",
        ),
        (
            "simnet.dispatch_ns_per_event",
            dispatch_ns as f64 / dispatch_calls.max(1) as f64,
            "ns",
        ),
        ("simnet.allocs_per_event", prof.allocs_per_event(), "count"),
        ("simnet.profile_overhead_s", profiled_s - plain_s, "s"),
        ("mem.setup_rss_mb", setup.rss_bytes as f64 / 1e6, "MB"),
        (
            "mem.run_bytes_per_rank",
            run_peak.saturating_sub(setup.rss_bytes) as f64 / w.ranks() as f64,
            "B",
        ),
        ("metrics.tracing_overhead_s", tracing_overhead_s, "s"),
        ("metrics.blame_s", obs_med(|o| o.blame_s), "s"),
        (
            "metrics.chrome_export_s",
            obs_med(|o| o.chrome_export_s),
            "s",
        ),
        (
            "metrics.chrome_trace_bytes",
            obs_med(|o| o.chrome_trace_bytes),
            "B",
        ),
        (
            "metrics.report_export_s",
            obs_med(|o| o.report_export_s),
            "s",
        ),
        (
            "metrics.parse_ns_per_byte",
            obs_med(|o| o.parse_s * 1e9 / o.report_bytes),
            "ns",
        ),
        ("host.nproc", nproc() as f64, "count"),
        ("host.cores_used", cores_used, "ratio"),
    ];
    let mut notes = host_notes(w, cores_used);
    notes.push(format!(
        "overheads: profiling {:+.4} s on a {:.4} s run; tracing {:+.4} s",
        profiled_s - plain_s,
        plain_s,
        tracing_overhead_s
    ));
    notes.push(format!(
        "rounds: {round} (plain + profiled + tracing-flipped); phase shares are of \
         wall x threads; victim_draw, fault_eval and trace_record nest inside dispatch"
    ));
    checker.finish(metrics, notes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, Scale, DEFAULT_SEED};

    #[test]
    fn wrong_recorded_signature_fails_the_run() {
        let w = by_name("traced_why", Scale::Small).expect("workload");
        let wrong = Signature {
            makespan_ns: w.recorded.makespan_ns + 1,
            ..w.recorded
        };
        let res = end_to_end(&w, DEFAULT_SEED, Some(wrong), 0.0, &mut |s| {
            child_run(&w, s)
        });
        assert_eq!(res.attempted, 2, "one run plus the repeat of sub-seed 0");
        assert_eq!(res.failed, res.attempted);
        assert!(res.failures.iter().all(|f| f.contains("signature")));

        let good = end_to_end(&w, DEFAULT_SEED, Some(w.recorded), 0.0, &mut |s| {
            child_run(&w, s)
        });
        assert_eq!((good.attempted, good.failed), (2, 0), "{:?}", good.failures);
    }

    #[test]
    fn checker_pins_the_first_signature_of_each_seed() {
        let w = by_name("starved_2k", Scale::Small).expect("workload");
        let facts = RunFacts {
            completed: true,
            total_nodes: w.tree_nodes,
            signature: w.recorded,
        };
        let mut c = Checker::new(w.tree_nodes, None);
        assert!(c.check("a", 7, Ok(facts)));
        assert!(c.check("b", 7, Ok(facts)));
        let moved = RunFacts {
            signature: Signature {
                events: facts.signature.events + 1,
                ..facts.signature
            },
            ..facts
        };
        assert!(!c.check("c", 7, Ok(moved)), "a repeat must reproduce");
        assert!(c.check("d", 8, Ok(moved)), "another seed pins its own");
        let short = RunFacts {
            total_nodes: w.tree_nodes - 1,
            ..facts
        };
        assert!(!c.check("e", 7, Ok(short)));
        let stuck = RunFacts {
            completed: false,
            ..facts
        };
        assert!(!c.check("f", 7, Ok(stuck)));
        assert!(!c.check("g", 7, Err("crashed".into())));
        assert_eq!((c.attempted, c.failures.len()), (7, 4));
    }

    #[test]
    fn child_report_round_trips() {
        let w = by_name("flagship_2t", Scale::Small).expect("workload");
        let report = ChildReport {
            setup_s: 0.00123,
            wall_s: 1.5,
            cpu_s: 2.75,
            events: 40_065,
            peak_rss_bytes: 29_757_440,
            facts: RunFacts {
                completed: true,
                total_nodes: w.tree_nodes,
                signature: w.recorded,
            },
        };
        assert_eq!(ChildReport::from_line(&report.to_line()), Ok(report));
        assert!(ChildReport::from_line("child 1 2 3").is_err());
        assert!(ChildReport::from_line("garbage").is_err());
    }
}
