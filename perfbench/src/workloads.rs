//! The benchmark's workloads: which simulated run each one builds, the
//! tree size it must find, and the simulated schedule recorded for the
//! default seed.
//!
//! Why these three (see `perfbench/README.md` for the full rationale):
//!
//! - `flagship_2t` is the 512-rank run the figure suite repeats most and
//!   the only one that drives the parallel engine; UTS SHA-1 expansion
//!   is most of its thread-time.
//! - `starved_2k` gives 2,048 ranks a tree that feeds ~50, so its events
//!   are steal protocol, victim draws, network model and event queue,
//!   and its memory grows with ranks².
//! - `traced_why` is `dws trace --json` followed by `dws why <report>`:
//!   spans, blame, Chrome export and the JSON parser do most of its work.

use dws_core::{ExperimentConfig, ExperimentResult, StealAmount, VictimPolicy};
use dws_topology::{AllocationPolicy, RankMapping};
use dws_uts::presets;

/// The seed the recorded signatures belong to.
pub const DEFAULT_SEED: u64 = 1;

/// Every workload name, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["flagship_2t", "starved_2k", "traced_why"];

/// Paper-size runs, or scaled-down copies that finish in seconds (for
/// the benchmark's own tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workloads the benchmark reports.
    Full,
    /// Same shapes on small trees and rank counts.
    Small,
}

impl Scale {
    /// Parse `full` or `small`.
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "full" => Ok(Scale::Full),
            "small" => Ok(Scale::Small),
            _ => Err(format!("unknown scale {s:?} (expected full or small)")),
        }
    }

    /// The name [`parse`](Self::parse) accepts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Small => "small",
        }
    }
}

/// The simulated outcome that must repeat exactly for a fixed seed:
/// makespan, event count and the steal/chunk counter totals. (The
/// window-plan digest is deliberately left out: engine changes may move
/// it without changing the schedule.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Simulated makespan in ns.
    pub makespan_ns: u64,
    /// Engine events processed.
    pub events: u64,
    /// Steal requests sent, over all ranks.
    pub steal_attempts: u64,
    /// Steal requests answered with work.
    pub steals_ok: u64,
    /// Steal requests answered empty.
    pub steals_failed: u64,
    /// Chunks handed to thieves.
    pub chunks_given: u64,
    /// Tree nodes handed to thieves.
    pub nodes_given: u64,
}

impl Signature {
    /// The signature of a finished run.
    pub fn of(r: &ExperimentResult) -> Signature {
        let t = r.stats.total();
        Signature {
            makespan_ns: r.makespan.ns(),
            events: r.report.events,
            steal_attempts: t.steal_attempts,
            steals_ok: t.steals_ok,
            steals_failed: t.steals_failed,
            chunks_given: t.chunks_given,
            nodes_given: t.nodes_given,
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// The UTS tree.
    pub tree: dws_uts::Workload,
    /// Nodes the tree realizes; every run must process exactly these.
    pub tree_nodes: u64,
    /// Physical nodes allocated.
    pub n_nodes: u32,
    /// Rank placement.
    pub mapping: RankMapping,
    /// Node allocation policy.
    pub alloc: AllocationPolicy,
    /// Victim selection.
    pub victim: VictimPolicy,
    /// Steal amount.
    pub steal: StealAmount,
    /// Simulation threads.
    pub threads: u32,
    /// Whether the user-visible operation traces the run and explains
    /// it (`dws trace --json` + `dws why`).
    pub traced: bool,
    /// Signature recorded at [`DEFAULT_SEED`].
    pub recorded: Signature,
}

const TOFU: VictimPolicy = VictimPolicy::DistanceSkewed { alpha: 1.0 };
const EIGHT_G: RankMapping = RankMapping::Grouped { ppn: 8 };

/// Signatures at [`DEFAULT_SEED`], as `(full, small)` per workload.
const FLAGSHIP_SIG: (Signature, Signature) = (
    Signature {
        makespan_ns: 223_240_780,
        events: 14_328_854,
        steal_attempts: 2_751_629,
        steals_ok: 104_466,
        steals_failed: 2_647_163,
        chunks_given: 104_747,
        nodes_given: 2_094_940,
    },
    Signature {
        makespan_ns: 5_983_082,
        events: 40_065,
        steal_attempts: 11_468,
        steals_ok: 124,
        steals_failed: 11_344,
        chunks_given: 158,
        nodes_given: 3_160,
    },
);
const STARVED_SIG: (Signature, Signature) = (
    Signature {
        makespan_ns: 29_334_895,
        events: 2_559_000,
        steal_attempts: 843_658,
        steals_ok: 397,
        steals_failed: 843_261,
        chunks_given: 397,
        nodes_given: 7_940,
    },
    Signature {
        makespan_ns: 4_062_281,
        events: 70_877,
        steal_attempts: 23_079,
        steals_ok: 24,
        steals_failed: 23_055,
        chunks_given: 24,
        nodes_given: 480,
    },
);
const TRACED_SIG: (Signature, Signature) = (
    Signature {
        makespan_ns: 9_793_519,
        events: 135_272,
        steal_attempts: 37_009,
        steals_ok: 490,
        steals_failed: 36_519,
        chunks_given: 718,
        nodes_given: 14_360,
    },
    Signature {
        makespan_ns: 2_731_716,
        events: 9_010,
        steal_attempts: 2_596,
        steals_ok: 24,
        steals_failed: 2_572,
        chunks_given: 31,
        nodes_given: 620,
    },
);

/// Look a workload up by name at the given scale.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    let full = scale == Scale::Full;
    let pick = |sig: (Signature, Signature)| if full { sig.0 } else { sig.1 };
    let w = match name {
        "flagship_2t" => Workload {
            name: "flagship_2t",
            tree: if full {
                presets::t3wl()
            } else {
                presets::t3sim_s()
            },
            tree_nodes: if full { 24_578_855 } else { 22_235 },
            n_nodes: if full { 64 } else { 8 },
            mapping: EIGHT_G,
            alloc: AllocationPolicy::CompactRectangle,
            victim: TOFU,
            steal: StealAmount::Half,
            threads: 2,
            traced: false,
            recorded: pick(FLAGSHIP_SIG),
        },
        "starved_2k" => Workload {
            name: "starved_2k",
            tree: if full {
                presets::t3sim_m()
            } else {
                presets::t3sim_xs()
            },
            tree_nodes: if full { 96_891 } else { 4_575 },
            n_nodes: if full { 2048 } else { 256 },
            mapping: RankMapping::OneToOne,
            alloc: AllocationPolicy::TorusFill,
            victim: TOFU,
            steal: StealAmount::OneChunk,
            threads: 1,
            traced: false,
            recorded: pick(STARVED_SIG),
        },
        "traced_why" => Workload {
            name: "traced_why",
            tree: if full {
                presets::t3sim_m()
            } else {
                presets::t3sim_xs()
            },
            tree_nodes: if full { 96_891 } else { 4_575 },
            n_nodes: if full { 16 } else { 4 },
            mapping: EIGHT_G,
            alloc: AllocationPolicy::CompactRectangle,
            victim: TOFU,
            steal: StealAmount::Half,
            threads: 1,
            traced: true,
            recorded: pick(TRACED_SIG),
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// Ranks in the job.
    pub fn ranks(&self) -> u32 {
        self.mapping.rank_count(self.n_nodes)
    }

    /// The configuration of the user-visible operation at `seed`:
    /// tracing on for the traced workload, off (`--no-trace`) for the
    /// others, and profiling off.
    pub fn config(&self, seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(self.tree.clone(), self.n_nodes)
            .with_mapping(self.mapping)
            .with_victim(self.victim)
            .with_steal(self.steal);
        cfg.alloc = self.alloc;
        cfg.seed = seed;
        cfg.threads = self.threads;
        cfg.collect_trace = self.traced;
        cfg.collect_spans = self.traced;
        cfg
    }

    /// The same run with the observability layer flipped: untraced for
    /// the traced workload, and with the activity trace `dws run`
    /// records by default for the others. The schedule is identical.
    pub fn flipped_tracing(&self, seed: u64) -> ExperimentConfig {
        let mut cfg = self.config(seed);
        cfg.collect_trace = !self.traced;
        cfg.collect_spans = false;
        cfg
    }
}
