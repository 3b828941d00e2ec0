//! End-to-end checks of the observability subsystem: span/counter
//! reconciliation, Chrome trace well-formedness, the machine-readable
//! run report, the report parser's linear time and robustness, every
//! artifact reader's robustness to byte mutations, and the
//! zero-overhead guarantee when tracing is off.

use dws::core::{run_experiment, ExperimentConfig, StealAmount, VictimPolicy};
use dws::metrics::export::{chrome_trace, parse, MAX_NESTING};
use dws::metrics::perflab::{self, BenchMetric, BenchRecord, Polarity, BENCH_SCHEMA_VERSION};
use dws::metrics::{
    blame, read_stream, JsonValue, ShardSnap, Snapshot, SpanTrace, SNAPSHOT_SCHEMA_VERSION,
};
use dws::simnet::{
    write_flight_dump, Crash, DetRng, EventKind, EventRecord, FaultPlan, FlightRecorder, SimTime,
};
use dws::uts::presets;

fn traced_config(ranks: u32) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(presets::t3sim_s(), ranks)
        .with_victim(VictimPolicy::DistanceSkewed { alpha: 1.0 })
        .with_steal(StealAmount::Half);
    cfg.seed = 0x0B5E_55ED;
    cfg.collect_spans = true;
    cfg
}

/// The tentpole acceptance check: on a seeded 64-rank run, span counts
/// must equal the scheduler's own `StealStats` counters *exactly*, per
/// rank — spans are recorded at the counter-increment sites, so any
/// drift is a bug, not noise.
#[test]
fn spans_reconcile_with_counters_64_ranks() {
    let r = run_experiment(&traced_config(64));
    assert!(r.completed);
    let spans = r.spans.as_ref().expect("spans collected");
    spans
        .reconcile(&r.stats)
        .expect("span counts must match StealStats counters");
    assert!(spans.count(|k| matches!(k, dws::metrics::SpanKind::StealOk { .. })) > 0);
}

/// Reconciliation still holds under message faults and the
/// failure-tolerant protocol, where timeouts, retransmissions, and
/// abandoned requests enter the books.
#[test]
fn spans_reconcile_under_faults() {
    let mut cfg = traced_config(32);
    cfg.fault_plan = FaultPlan::message_faults(0.05, 0.02, 0.05);
    let r = run_experiment(&cfg);
    assert!(r.completed);
    let spans = r.spans.as_ref().expect("spans collected");
    spans
        .reconcile(&r.stats)
        .expect("span counts must match StealStats counters under faults");
    let t = r.stats.total();
    assert!(
        t.steal_timeouts + t.retransmits > 0,
        "a 5% drop rate must exercise the recovery paths"
    );
}

/// The Chrome trace document must be well-formed: it parses as JSON,
/// every duration-begin event has a matching end, per-rank timestamps
/// are monotone, flow steps/ends bind to an emitted flow start, and
/// the critical-path track tiles `[0, makespan]` exactly.
#[test]
fn chrome_trace_is_well_formed() {
    let mut cfg = traced_config(16);
    // A crash leaves orphaned steal attempts; they must still be closed.
    cfg.fault_plan.crashes.push(Crash {
        rank: 5,
        at_ns: 2_000_000,
    });
    let r = run_experiment(&cfg);
    let doc = r.chrome_trace_json().expect("spans collected");
    let text = format!("{doc}");
    let parsed = parse(&text).expect("chrome trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let n_ranks = r.n_ranks as usize;
    let mut b_minus_e = 0i64; // thread-duration nesting per trace
    let mut async_open: Vec<(String, String)> = Vec::new();
    let mut flow_started: Vec<(String, String)> = Vec::new();
    // tid n_ranks is the synthetic "critical path" track.
    let mut last_ts = vec![f64::NEG_INFINITY; n_ranks + 1];
    let mut critpath_cursor = 0.0f64; // µs tiling cursor
    let mut critpath_slices = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph");
        let tid = ev.get("tid").and_then(|v| v.as_u64()).expect("tid") as usize;
        assert!(tid <= n_ranks, "tid {tid} out of range");
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let cat = ev.get("cat").and_then(|v| v.as_str()).unwrap_or("");
        assert!(
            tid < n_ranks || cat == "critpath",
            "only critical-path slices may sit on the synthetic track"
        );
        let ts = ev.get("ts").and_then(|v| v.as_num()).expect("ts");
        assert!(
            ts >= last_ts[tid],
            "rank {tid}: timestamps must be monotone ({ts} < {})",
            last_ts[tid]
        );
        last_ts[tid] = ts;
        match ph {
            "B" => b_minus_e += 1,
            "E" => {
                b_minus_e -= 1;
                assert!(b_minus_e >= 0, "E without a matching B");
            }
            "b" => {
                let cat = ev.get("cat").and_then(|v| v.as_str()).expect("cat");
                let id = ev.get("id").and_then(|v| v.as_str()).expect("async id");
                async_open.push((cat.to_string(), id.to_string()));
            }
            "e" => {
                let cat = ev.get("cat").and_then(|v| v.as_str()).expect("cat");
                let id = ev.get("id").and_then(|v| v.as_str()).expect("async id");
                let pos = async_open
                    .iter()
                    .position(|(c, i)| c == cat && i == id)
                    .expect("async end must match an open begin");
                async_open.swap_remove(pos);
            }
            "s" => {
                let id = ev.get("id").and_then(|v| v.as_str()).expect("flow id");
                flow_started.push((cat.to_string(), id.to_string()));
            }
            "t" | "f" => {
                let id = ev.get("id").and_then(|v| v.as_str()).expect("flow id");
                assert!(
                    flow_started.iter().any(|(c, i)| c == cat && i == id),
                    "flow {ph} ({cat}, {id}) must follow its flow start"
                );
                if ph == "f" {
                    assert_eq!(
                        ev.get("bp").and_then(|v| v.as_str()),
                        Some("e"),
                        "flow ends must bind to the enclosing slice"
                    );
                }
            }
            "X" => {
                assert_eq!(cat, "critpath", "only the critical path emits X slices");
                let dur = ev.get("dur").and_then(|v| v.as_num()).expect("dur");
                assert!(
                    (ts - critpath_cursor).abs() < 1e-6,
                    "critical-path slices must tile contiguously \
                     ({ts} after cursor {critpath_cursor})"
                );
                critpath_cursor = ts + dur;
                critpath_slices += 1;
            }
            "n" | "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(b_minus_e, 0, "every B must have a matching E");
    assert!(
        async_open.is_empty(),
        "every steal-attempt span must be closed (even crash-orphaned ones): \
         {async_open:?}"
    );
    assert!(
        flow_started.iter().any(|(c, _)| c == "steal-flow"),
        "steal chains must carry flow arrows"
    );
    assert!(critpath_slices > 0, "critical-path track must be present");
    let makespan_us = r.makespan.ns() as f64 / 1e3;
    assert!(
        (critpath_cursor - makespan_us).abs() < 1e-6,
        "critical-path track must end at the makespan \
         ({critpath_cursor} vs {makespan_us})"
    );
}

/// The machine-readable report round-trips through our own parser and
/// repeats the numbers the typed result carries.
#[test]
fn json_report_round_trips() {
    let r = run_experiment(&traced_config(16));
    let text = format!("{}", r.json_report());
    let doc = parse(&text).expect("report must be valid JSON");
    assert_eq!(
        doc.get("makespan_ns").and_then(|v| v.as_u64()),
        Some(r.makespan.ns())
    );
    assert_eq!(
        doc.get("total_nodes").and_then(|v| v.as_u64()),
        Some(r.total_nodes)
    );
    let totals = doc.get("totals").expect("totals object");
    assert_eq!(
        totals.get("steal_attempts").and_then(|v| v.as_u64()),
        Some(r.stats.total().steal_attempts)
    );
    let per_rank = doc
        .get("per_rank")
        .and_then(|v| v.as_arr())
        .expect("per_rank array");
    assert_eq!(per_rank.len(), r.n_ranks as usize);
    // Span counts in the report reconcile with the counters too.
    let counts = doc.get("span_counts").expect("span_counts present");
    assert_eq!(
        counts.get("steal_request_sent").and_then(|v| v.as_u64()),
        Some(r.stats.total().steal_attempts)
    );
    // The network section is present on a traced run.
    let network = doc.get("network").expect("network present");
    assert!(network.get("messages").and_then(|v| v.as_u64()).unwrap() > 0);
}

/// Zero-overhead guarantee: collecting spans must not change the event
/// schedule — makespan, event counts, and every per-rank counter are
/// identical with the tracer on and off.
#[test]
fn tracing_does_not_perturb_the_run() {
    let mut with = traced_config(32);
    let mut without = traced_config(32);
    without.collect_spans = false;
    with.jitter = 0.2;
    without.jitter = 0.2;
    let a = run_experiment(&with);
    let b = run_experiment(&without);
    assert_eq!(a.makespan, b.makespan, "makespan must be unaffected");
    assert_eq!(a.report.events, b.report.events);
    assert_eq!(a.report.messages, b.report.messages);
    assert_eq!(a.report.timers, b.report.timers);
    assert_eq!(a.stats.per_rank, b.stats.per_rank);
    assert!(a.spans.is_some() && b.spans.is_none());
}

/// Latency histograms distilled from the spans agree with the
/// counters' aggregate view where they overlap.
#[test]
fn histograms_agree_with_counters() {
    let r = run_experiment(&traced_config(16));
    let h = r.latency_histograms().expect("histograms available");
    let t = r.stats.total();
    assert_eq!(h.steal_rtt_ns.count(), t.steals_ok + t.steals_failed);
    assert_eq!(h.session_ns.count(), t.sessions);
    assert_eq!(h.session_ns.sum(), t.session_ns as u128);
    assert_eq!(h.msg_delivery_ns.count(), r.report.messages);
}

/// The parser runs in linear time on string-heavy documents: several MB
/// of long strings (plain ASCII, multi-byte UTF-8 and escapes) parse
/// well inside a loose debug-build bound, and round-trip exactly.
#[test]
fn parser_is_linear_on_string_heavy_documents() {
    let plain = "steal_request rank=17 victim=42 ".repeat(40);
    let mixed = "latence réseau — 遅延 😀 \"quoted\" \\ tab\t end\n".repeat(20);
    let doc = JsonValue::Arr(
        (0..4_000)
            .map(|i| {
                JsonValue::obj(vec![
                    ("name", format!("{plain}{i}").into()),
                    ("args", mixed.as_str().into()),
                ])
            })
            .collect(),
    );
    let text = doc.to_string();
    assert!(text.len() > 4_000_000, "document is {} bytes", text.len());
    let start = std::time::Instant::now();
    let back = parse(&text).expect("well-formed document");
    let elapsed = start.elapsed();
    assert_eq!(back, doc);
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "parsing {} bytes took {elapsed:?}",
        text.len()
    );
}

/// Every truncation of a well-formed document is rejected with an
/// error, never a panic: cut inside a string run, an escape, a `\u`
/// escape or surrogate pair, a number, a literal or between tokens.
#[test]
fn parser_rejects_every_truncation() {
    let doc = JsonValue::obj(vec![
        ("plain", "run of text".into()),
        ("utf8", "é 遅延 😀".into()),
        ("escapes", "q\"b\\n\nt\tc\u{1}".into()),
        (
            "nums",
            JsonValue::Arr(vec![JsonValue::Num(-12.5e-3), 7u64.into()]),
        ),
        (
            "lits",
            JsonValue::Arr(vec![true.into(), false.into(), JsonValue::Null]),
        ),
        (
            "nested",
            JsonValue::obj(vec![("empty", JsonValue::Arr(vec![]))]),
        ),
    ]);
    // The writer emits non-ASCII raw; add `\u` escapes and a surrogate
    // pair by hand so truncations land inside them too.
    let text = doc
        .to_string()
        .replacen('{', r#"{"u":"\u00e9\ud83d\ude00",  "#, 1);
    assert!(parse(&text).is_ok(), "base document parses: {text}");
    for cut in (0..text.len()).filter(|&n| text.is_char_boundary(n)) {
        assert!(
            parse(&text[..cut]).is_err(),
            "prefix of {cut} bytes parsed: {:?}",
            &text[..cut]
        );
    }
}

/// Deep nesting is refused with an error instead of recursing until the
/// stack overflows: 200,000 `[` then 200,000 `]` (400 KB) used to abort
/// `dws why` and `dws diff`.
#[test]
fn parser_rejects_nesting_past_the_limit() {
    let nest = |open: &str, close: &str, depth: usize| open.repeat(depth) + &close.repeat(depth);
    assert!(parse(&nest("[", "]", MAX_NESTING)).is_ok());
    assert!(parse(&nest(r#"{"a":"#, "}", MAX_NESTING - 1).replace(":}", ":{}}")).is_ok());
    for doc in [
        nest("[", "]", MAX_NESTING + 1),
        nest("[", "]", 200_000),
        nest(r#"{"a":"#, "}", 200_000),
        "[".repeat(200_000),
    ] {
        let err = parse(&doc).expect_err("nesting past the limit must be refused");
        assert!(err.contains("nesting"), "{err}");
    }
}

/// Apply one to three random byte mutations to `base` — flip a bit,
/// delete a byte, insert a byte (usually a JSON structural one), or
/// truncate — and hand the result to a `&str` reader as lossy UTF-8.
fn mutate(rng: &mut DetRng, base: &[u8]) -> String {
    const STRUCTURAL: &[u8] = b"{}[],:\"\\-+.eE0u ";
    let mut b = base.to_vec();
    for _ in 0..=rng.next_below(3) {
        let at = rng.next_below(b.len() as u64 + 1) as usize;
        match rng.next_below(4) {
            0 if at < b.len() => b[at] ^= 1 << rng.next_below(8),
            1 if at < b.len() => {
                b.remove(at);
            }
            2 => {
                let byte = if rng.next_below(4) == 0 {
                    rng.next_u64() as u8
                } else {
                    STRUCTURAL[rng.next_below(STRUCTURAL.len() as u64) as usize]
                };
                b.insert(at, byte);
            }
            _ => b.truncate(at),
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Every artifact reader returns `Ok` or `Err` — never panics, never
/// hangs — on byte-mutated input: a run report (parsed, then read by
/// `dws diff` and `dws why`), a small Chrome trace, a bench trajectory,
/// a snapshot line, and — through the `dws top` reader, line by line —
/// a multi-line snapshot stream and a real flight dump. The mutations
/// run on a worker thread so a hang fails the test instead of stalling
/// it.
#[test]
fn artifact_readers_survive_byte_mutations() {
    const MUTATIONS: usize = 2_000;
    let mut cfg = ExperimentConfig::new(presets::t3sim_xs(), 4);
    cfg.collect_spans = true;
    let r = run_experiment(&cfg);
    let report = r.json_report().to_string();
    let spans = r.spans.as_ref().expect("spans collected");
    let head = SpanTrace::from_per_rank(vec![spans.records()[..40].to_vec()]);
    let chrome = chrome_trace(&head, None, r.makespan.ns()).to_string();
    let record = BenchRecord {
        schema: BENCH_SCHEMA_VERSION,
        // Escapes in the text, so mutations also land inside them.
        bench: "fuzz \"q\" \\ \u{1} é".to_string(),
        git_rev: "abc1234".to_string(),
        fingerprint: perflab::fingerprint("fuzz-config"),
        trial_seed: 1,
        unix_time_s: 1_754_000_000,
        trials: 3,
        threads: 2,
        metrics: vec![
            BenchMetric::from_samples("lat", "ns", Polarity::LowerIsBetter, &[10.0, 11.5, 12.0]),
            BenchMetric::point("rate", "1/s", Polarity::HigherIsBetter, 1e6),
        ],
    };
    let trajectory = format!("{}\n{}\n", record.to_json(), record.to_json());
    let snap = Snapshot {
        schema: SNAPSHOT_SCHEMA_VERSION,
        seq: 3,
        n_ranks: 32,
        wall_ms: 1500,
        sim_ns: 2_000_000,
        events: 123_456,
        events_per_sec: 2.5e6,
        queue_depth: 42,
        ready_chunks: 17,
        steals_ok: 900,
        steals_empty: 100,
        quarantined: 2,
        active_workers: 30,
        w_max: 32,
        shards: vec![ShardSnap {
            shard: 0,
            now_ns: 2_000_000,
            windows: 50,
            events: 70_000,
            queue_depth: 20,
            busy_ns: 5_000,
            wait_ns: 100,
        }],
    };
    let snapshot = snap.to_json().to_string();
    // A multi-line snapshot stream, as `dws run --snapshots` writes it.
    let stream: String = (0..5)
        .map(|seq| {
            format!(
                "{}\n",
                Snapshot {
                    seq,
                    ..snap.clone()
                }
                .to_json()
            )
        })
        .collect();
    // A real flight dump: header, final snapshot, one ring event per
    // record kind.
    let ring = std::sync::Arc::new(FlightRecorder::new(16));
    let kinds = [
        EventKind::Sent {
            from: 1,
            to: 2,
            bytes: 64,
            deliver_at: SimTime(1_500),
        },
        EventKind::Delivered { from: 1, to: 2 },
        EventKind::Timer { rank: 3, token: 7 },
        EventKind::Dropped {
            from: 2,
            to: 0,
            brownout: true,
        },
        EventKind::Partitioned { from: 0, to: 3 },
        EventKind::Duplicated { from: 3, to: 1 },
        EventKind::Delayed {
            from: 1,
            to: 0,
            spike_ns: 900,
        },
        EventKind::CrashLost {
            rank: 2,
            timer: false,
        },
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        ring.record(&EventRecord {
            at: SimTime(1_000 + i as u64),
            kind,
        });
    }
    let dump_path =
        std::env::temp_dir().join(format!("dws_fuzz_dump_{}.jsonl", std::process::id()));
    write_flight_dump(&dump_path, "wall_budget", &[ring], Some(&snap)).expect("dump written");
    let dump = std::fs::read_to_string(&dump_path).expect("dump readable");
    let _ = std::fs::remove_file(&dump_path);
    // The unmutated artifacts read cleanly.
    let doc = parse(&report).expect("report parses");
    blame::verify_report(&doc).expect("report blame verifies");
    parse(&chrome).expect("chrome trace parses");
    assert_eq!(perflab::parse_trajectory(&trajectory).unwrap().len(), 2);
    Snapshot::from_json(&parse(&snapshot).unwrap()).expect("snapshot reads");
    let read = read_stream(&stream);
    assert_eq!(read.snapshots.len(), 5);
    assert_eq!(read.other_lines, 0);
    let read = read_stream(&dump);
    assert_eq!(read.snapshots, vec![snap]);
    assert_eq!(
        read.other_lines,
        1 + 8,
        "header plus one line per ring event"
    );
    for line in dump.lines() {
        parse(line).expect("every dump line is JSON");
    }

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut rng = DetRng::new(0xF022_2026);
        let mut oks = 0usize;
        let (mut lines_read, mut snapshots_kept) = (0usize, 0usize);
        for _ in 0..MUTATIONS {
            if let Ok(doc) = parse(&mutate(&mut rng, report.as_bytes())) {
                perflab::metrics_from_run_report(&doc);
                oks += blame::verify_report(&doc).is_ok() as usize;
            }
            oks += parse(&mutate(&mut rng, chrome.as_bytes())).is_ok() as usize;
            oks += perflab::parse_trajectory(&mutate(&mut rng, trajectory.as_bytes())).is_ok()
                as usize;
            if let Ok(doc) = parse(&mutate(&mut rng, snapshot.as_bytes())) {
                oks += Snapshot::from_json(&doc).is_ok() as usize;
            }
            // The `dws top` reader takes every line of a stream or a
            // dump; a mutation spoils at most a few of them.
            for text in [&stream, &dump] {
                let read = read_stream(&mutate(&mut rng, text.as_bytes()));
                lines_read += read.snapshots.len() + read.other_lines;
                snapshots_kept += read.snapshots.len();
            }
        }
        done_tx.send((oks, lines_read, snapshots_kept)).ok();
    });
    let (oks, lines_read, snapshots_kept) = done_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a reader panicked or hung on mutated input");
    // Six snapshot lines per mutation round: mutations spoil some, and
    // the lines they miss still read.
    assert!(lines_read > 0);
    assert!(
        snapshots_kept > 0 && snapshots_kept < 6 * MUTATIONS,
        "{snapshots_kept} of {} snapshots survived",
        6 * MUTATIONS
    );
    // Some mutations are harmless (a digit flipped inside a number);
    // most must be refused.
    assert!(
        oks > 0 && oks < 4 * MUTATIONS,
        "{oks} of {} accepted",
        4 * MUTATIONS
    );
}
