//! Hot-path microbenchmarks for the engine overhaul, measuring the
//! three quantities the overhaul targets:
//!
//! 1. **Event throughput** — the engine loop on a deep-queue churn
//!    workload (131,072 concurrently pending timers), and the same
//!    key stream with 48-byte payloads fed straight into the calendar
//!    queue and into a reference `BinaryHeap`, where the heap pays its
//!    full `O(log n)` sift on every event while the calendar queue
//!    stays amortized `O(1)`. The binary asserts the queue-level
//!    speedup in-process as a backstop; the recorded metrics feed the
//!    `dws diff` CI gate.
//! 2. **Allocations per event** — the steady-state allocation rate of a
//!    full profiled experiment (event arena + freelist, pooled
//!    outboxes, pooled steal chunks), via the same `CountingAlloc`
//!    probe `dws profile` uses.
//! 3. **Victim-draw cost** — ns per draw for the shared offset-alias
//!    table (torus-symmetric jobs), the per-rank alias table, and the
//!    rejection oracle.
//!
//! Like `micro`, results go to `results/BENCH_hotpath.json` and can be
//! appended to the trajectory store with `--trajectory`.

use dws_core::{run_experiment, ExperimentConfig, StealAmount, VictimPolicy, VictimSelector};
use dws_metrics::perflab::{self, BenchMetric, BenchRecord, Polarity};
use dws_simnet::{
    Actor, CalendarQueue, ConstantLatency, Ctx, DetRng, EvKey, Rank, SimConfig, SimTime, Simulation,
};
use dws_topology::{AllocationPolicy, Job, LatencyParams, Machine, RankMapping};
use dws_uts::presets;
use std::cmp::{Ordering as CmpOrdering, Reverse};
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counting allocator: the allocs-per-event probe below needs it.
#[global_allocator]
static ALLOC: dws_simnet::CountingAlloc = dws_simnet::CountingAlloc;

static TRIAL_SEED: AtomicU64 = AtomicU64::new(0);

fn trial_seed() -> u64 {
    TRIAL_SEED.load(Ordering::Relaxed)
}

/// Concurrently pending events in the churn workload: deep enough that
/// a binary heap pays ~15 sift levels per pop and its backing array
/// (`PENDING × sizeof(Event)` ≈ 3 MB) spills out of L2, as in the
/// paper's large simulations.
const PENDING: u64 = 131_072;
/// Re-arm delays are uniform in `[1, SPREAD]` ns.
const SPREAD: u64 = 131_072;
/// Simulated horizon: each pending timer re-fires every `SPREAD/2` ns
/// on average, so ≈ `PENDING * LIMIT / (SPREAD/2)` ≈ 1M events.
const LIMIT_NS: u64 = 2_000_000;
/// Timed trials per measurement; the minimum is reported.
const TRIALS: usize = 5;

/// Message payload sized like the worker protocol's largest variant
/// (`Msg::StealReply`: two ids plus a chunk vector, 48 bytes). A heap
/// stores its payloads inline and moves them on every sift level; the
/// calendar queue parks them in the arena and moves each exactly
/// twice. The payload size is part of the workload even for timer
/// events — the engine's event kind is an enum, so every event is as
/// large as the largest message.
type FatMsg = [u64; 6];

/// One actor keeping [`PENDING`] timers in flight forever: every fired
/// timer re-arms itself at a deterministic pseudo-random delay. Pure
/// queue churn — each event is one pop and one push.
struct Churn;

impl Actor for Churn {
    type Msg = FatMsg;
    fn on_start(&mut self, ctx: &mut Ctx<'_, FatMsg>) {
        for t in 0..PENDING {
            let d = 1 + ctx.rng().next_below(SPREAD);
            ctx.set_timer(d, t);
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, FatMsg>, _from: Rank, _msg: FatMsg) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, FatMsg>, token: u64) {
        let d = 1 + ctx.rng().next_below(SPREAD);
        ctx.set_timer(d, token);
    }
}

/// Master seed of the churn workload.
fn churn_seed() -> u64 {
    0x40_77A9 ^ trial_seed()
}

/// Run the churn workload once through the engine; returns
/// `(events, wall_ns)` for the simulation loop only.
fn churn_run() -> (u64, u64) {
    let cfg = SimConfig {
        seed: churn_seed(),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(vec![Churn], ConstantLatency(100), cfg);
    let wall = Instant::now();
    let report = sim.run_with_limits(Some(SimTime(LIMIT_NS)), None);
    let wall_ns = wall.elapsed().as_nanos() as u64;
    (report.events, wall_ns)
}

/// A pending-event set the queue-level churn can drive.
trait ChurnQueue {
    fn push(&mut self, key: EvKey, msg: FatMsg);
    fn pop(&mut self) -> Option<(EvKey, FatMsg)>;
}

impl ChurnQueue for CalendarQueue<FatMsg> {
    fn push(&mut self, key: EvKey, msg: FatMsg) {
        CalendarQueue::push(self, key, msg);
    }
    fn pop(&mut self) -> Option<(EvKey, FatMsg)> {
        CalendarQueue::pop(self)
    }
}

/// Reference heap entry, ordered by its key alone.
struct HeapEntry(EvKey, FatMsg);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.0.cmp(&other.0)
    }
}

impl ChurnQueue for BinaryHeap<Reverse<HeapEntry>> {
    fn push(&mut self, key: EvKey, msg: FatMsg) {
        BinaryHeap::push(self, Reverse(HeapEntry(key, msg)));
    }
    fn pop(&mut self) -> Option<(EvKey, FatMsg)> {
        BinaryHeap::pop(self).map(|Reverse(HeapEntry(k, m))| (k, m))
    }
}

/// Replay the engine churn's key stream on `q` alone: the same RNG
/// draws as [`Churn`] (rank 0's actor stream), so the same keys in the
/// same order. Returns `(events, wall_ns)`, the initial fill excluded.
fn queue_churn(mut q: impl ChurnQueue) -> (u64, u64) {
    let mut rng = DetRng::for_rank(churn_seed(), 0);
    let key = |t, sseq| EvKey {
        t,
        dst: 0,
        src: 0,
        sseq,
    };
    for sseq in 0..PENDING {
        q.push(key(1 + rng.next_below(SPREAD), sseq), [sseq; 6]);
    }
    let mut sseq = PENDING;
    let mut events = 0;
    let wall = Instant::now();
    while let Some((k, msg)) = q.pop() {
        if k.t > LIMIT_NS {
            break;
        }
        events += 1;
        q.push(key(k.t + 1 + rng.next_below(SPREAD), sseq), black_box(msg));
        sseq += 1;
    }
    (events, wall.elapsed().as_nanos() as u64)
}

fn bench_queue_throughput(metrics: &mut Vec<BenchMetric>) {
    println!("-- event queue: {PENDING} pending timers, {LIMIT_NS} ns horizon --");
    // Interleave the trials so load and frequency drift hit every
    // variant evenly; report the best rate of each.
    churn_run(); // warm-up
    let rate = |(ev, wall_ns): (u64, u64)| ev as f64 / (wall_ns as f64 / 1e9);
    let mut engine = 0.0f64;
    let mut cal = 0.0f64;
    let mut heap = 0.0f64;
    let mut events = 0;
    for _ in 0..TRIALS {
        let run = churn_run();
        events = run.0;
        engine = engine.max(rate(run));
        let run = queue_churn(CalendarQueue::new());
        assert_eq!(
            run.0, events,
            "queue-level churn must replay the engine's events"
        );
        cal = cal.max(rate(run));
        let run = queue_churn(BinaryHeap::new());
        assert_eq!(
            run.0, events,
            "queue-level churn must replay the engine's events"
        );
        heap = heap.max(rate(run));
    }
    let speedup = cal / heap;
    println!("engine loop         {:>12.0} events/s", engine);
    println!("calendar queue      {:>12.0} events/s", cal);
    println!("reference heap      {:>12.0} events/s", heap);
    println!("speedup             {speedup:>12.2} x  ({events} events/run)");
    assert!(
        speedup >= 1.5,
        "calendar queue must beat the reference heap by ≥1.5x on deep churn \
         (got {speedup:.2}x) — hot-path regression"
    );
    metrics.push(BenchMetric::point(
        "churn_events_per_sec_calendar",
        "events/s",
        Polarity::HigherIsBetter,
        engine,
    ));
    metrics.push(BenchMetric::point(
        "churn_events_per_sec_reference_heap",
        "events/s",
        Polarity::Neutral,
        heap,
    ));
    metrics.push(BenchMetric::point(
        "churn_calendar_speedup",
        "x",
        Polarity::HigherIsBetter,
        speedup,
    ));
}

fn bench_allocs_per_event(metrics: &mut Vec<BenchMetric>) {
    println!("-- steady-state allocations (profiled 64-rank experiment) --");
    let mut cfg = ExperimentConfig::new(presets::t3sim_l(), 64)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
        .with_steal(StealAmount::Half);
    cfg.seed = cfg.seed.wrapping_add(trial_seed());
    cfg.collect_trace = false;
    cfg.profile = true;
    let result = run_experiment(&cfg);
    let p = result.profile.expect("profile was requested");
    println!(
        "allocs/event        {:>12.4}  ({} allocs / {} events, {:.0} events/s)",
        p.allocs_per_event(),
        p.allocs,
        p.events,
        p.events_per_sec()
    );
    metrics.push(BenchMetric::point(
        "profile_allocs_per_event",
        "allocs/event",
        Polarity::LowerIsBetter,
        p.allocs_per_event(),
    ));
    metrics.push(BenchMetric::point(
        "profile_events_per_sec",
        "events/s",
        Polarity::HigherIsBetter,
        p.events_per_sec(),
    ));
}

/// Best-of-[`TRIALS`] ns per victim draw.
fn draw_cost(sel: &mut VictimSelector, seed: u64) -> f64 {
    const DRAWS: u64 = 200_000;
    let mut best = f64::INFINITY;
    for trial in 0..=TRIALS {
        let mut rng = DetRng::new(seed ^ trial as u64);
        let wall = Instant::now();
        for _ in 0..DRAWS {
            black_box(sel.next_victim(&mut rng));
        }
        let ns = wall.elapsed().as_nanos() as f64 / DRAWS as f64;
        if trial > 0 {
            // Trial 0 is the warm-up.
            best = best.min(ns);
        }
    }
    best
}

fn bench_victim_draws(metrics: &mut Vec<BenchMetric>) {
    println!("-- victim draws (1,020-rank torus-symmetric job) --");
    let ranks = 1_020u32; // divisible by 12: every cube fully occupied
    let policy = VictimPolicy::DistanceSkewed { alpha: 1.0 };
    let symmetric = Arc::new(Job::place(
        Machine::torus_for_nodes(ranks),
        ranks,
        AllocationPolicy::TorusFill,
        RankMapping::OneToOne,
        LatencyParams::default(),
    ));
    let compact = Arc::new(Job::compact(ranks, RankMapping::OneToOne));
    let ctx = policy.prepare(&symmetric);
    assert!(
        ctx.uses_shared_table(),
        "TorusFill job must take the shared offset-alias path"
    );
    let cases: [(&str, VictimSelector); 3] = [
        ("shared_offset_alias", policy.build(&symmetric, 3, &ctx)),
        (
            "per_rank_alias",
            policy.build(&compact, 3, &policy.prepare(&compact)),
        ),
        (
            "rejection_oracle",
            VictimSelector::SkewedRejection {
                job: Arc::clone(&compact),
                me: 3,
                alpha: 1.0,
            },
        ),
    ];
    for (name, mut sel) in cases {
        let ns = draw_cost(&mut sel, 7 ^ trial_seed());
        println!("{name:20} {ns:>12.1} ns/draw");
        metrics.push(BenchMetric::point(
            &format!("victim_ns_per_draw_{name}"),
            "ns/draw",
            Polarity::LowerIsBetter,
            ns,
        ));
    }
}

fn build_record(started: Instant, metrics: Vec<BenchMetric>) -> BenchRecord {
    let names: String = metrics.iter().map(|m| m.name.as_str()).collect();
    let mut metrics = metrics;
    metrics.push(BenchMetric::point(
        "wall_s_total",
        "s",
        Polarity::LowerIsBetter,
        started.elapsed().as_secs_f64(),
    ));
    BenchRecord {
        schema: perflab::BENCH_SCHEMA_VERSION,
        bench: "micro_hotpath".to_string(),
        git_rev: perflab::git_rev(),
        fingerprint: perflab::fingerprint(&names),
        trial_seed: trial_seed(),
        unix_time_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        trials: TRIALS as u64,
        threads: 1,
        metrics,
    }
}

fn write_record(path: &str, record: &BenchRecord) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, format!("{}\n", record.to_json()))
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = Some("results/BENCH_hotpath.json".to_string());
    let mut trajectory: Option<String> = None;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_path = it.next().or(json_path),
            "--no-json" => json_path = None,
            "--trajectory" => trajectory = it.next(),
            "--trial-seed" => {
                let seed: u64 = it
                    .next()
                    .expect("--trial-seed needs a value")
                    .parse()
                    .expect("--trial-seed must be an integer");
                TRIAL_SEED.store(seed, Ordering::Relaxed);
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let mut metrics = Vec::new();
    bench_queue_throughput(&mut metrics);
    bench_allocs_per_event(&mut metrics);
    bench_victim_draws(&mut metrics);
    let record = build_record(started, metrics);
    if let Some(path) = json_path {
        match write_record(&path, &record) {
            Ok(()) => println!("[results written to {path}]"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    if let Some(path) = trajectory {
        match perflab::append_record(&path, &record) {
            Ok(()) => println!("[record appended to {path}]"),
            Err(e) => eprintln!("warning: could not append to {path}: {e}"),
        }
    }
}
