//! The roster of all seven schedulers, buildable by name.

use dts_core::{PnConfig, PnScheduler};
use dts_ga::Evaluator;
use dts_model::Scheduler;
use dts_schedulers::{
    EarliestFinish, LightestLoaded, MaxMin, MinMin, RoundRobin, ZoConfig, Zomaya,
};

/// The seven schedulers of §4, identified as in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Earliest finish (immediate).
    Ef,
    /// Lightest loaded (immediate).
    Ll,
    /// Round robin (immediate).
    Rr,
    /// Zomaya & Teh's GA (batch).
    Zo,
    /// The paper's scheduler (batch).
    Pn,
    /// Min-min (batch).
    Mm,
    /// Max-min (batch).
    Mx,
}

/// All seven, in the order of the paper's bar charts (Figs. 6, 8–11).
pub const ALL_SCHEDULERS: [SchedulerKind; 7] = [
    SchedulerKind::Ef,
    SchedulerKind::Ll,
    SchedulerKind::Rr,
    SchedulerKind::Zo,
    SchedulerKind::Pn,
    SchedulerKind::Mm,
    SchedulerKind::Mx,
];

impl SchedulerKind {
    /// The figure label ("PN", "EF", …).
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Ef => "EF",
            SchedulerKind::Ll => "LL",
            SchedulerKind::Rr => "RR",
            SchedulerKind::Zo => "ZO",
            SchedulerKind::Pn => "PN",
            SchedulerKind::Mm => "MM",
            SchedulerKind::Mx => "MX",
        }
    }

    /// Parses a figure label (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "EF" => Some(SchedulerKind::Ef),
            "LL" => Some(SchedulerKind::Ll),
            "RR" => Some(SchedulerKind::Rr),
            "ZO" => Some(SchedulerKind::Zo),
            "PN" => Some(SchedulerKind::Pn),
            "MM" => Some(SchedulerKind::Mm),
            "MX" => Some(SchedulerKind::Mx),
            _ => None,
        }
    }

    /// A stable per-kind tag (FNV-1a of the label) folded into the
    /// scheduler seed by [`crate::Scenario::run`], so every scheduler sees
    /// the same clusters/workloads per replication while the GA
    /// schedulers' private RNG streams stay decorrelated across kinds.
    pub fn seed_tag(self) -> u64 {
        self.label().bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Builds a fresh instance with default (paper) configurations.
    pub fn build(self, n_procs: usize, seed: u64) -> Box<dyn Scheduler> {
        self.build_with(n_procs, seed, &BuildOptions::default())
    }

    /// Builds with explicit options (batch sizes, GA caps).
    pub fn build_with(self, n_procs: usize, seed: u64, opts: &BuildOptions) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Ef => Box::new(EarliestFinish::new(n_procs)),
            SchedulerKind::Ll => Box::new(LightestLoaded::new(n_procs)),
            SchedulerKind::Rr => Box::new(RoundRobin::new(n_procs)),
            SchedulerKind::Mm => Box::new(MinMin::with_batch_size(n_procs, opts.batch_size)),
            SchedulerKind::Mx => Box::new(MaxMin::with_batch_size(n_procs, opts.batch_size)),
            SchedulerKind::Zo => {
                let mut cfg = ZoConfig {
                    batch_size: opts.batch_size,
                    ..ZoConfig::default()
                };
                cfg.ga.max_generations = opts.max_generations;
                cfg.ga.evaluator = opts.evaluator;
                cfg.seed = seed;
                Box::new(Zomaya::new(n_procs, cfg))
            }
            SchedulerKind::Pn => {
                let mut cfg = opts.pn.clone();
                cfg.initial_batch = opts.batch_size;
                // §4.3 pins the batch size (200) for the efficiency
                // sweeps; Fig. 6's dynamic-batch run raises `max_batch`
                // through `BuildOptions::pn` instead.
                cfg.max_batch = cfg.max_batch.min(opts.batch_size);
                cfg.ga.max_generations = opts.max_generations;
                cfg.ga.evaluator = opts.evaluator;
                cfg.seed = seed;
                Box::new(PnScheduler::new(n_procs, cfg))
            }
        }
    }
}

/// Options shared across roster builds so every scheduler sees the same
/// batch size and GA budget.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Batch size for all batch-mode schedulers (paper: 200).
    pub batch_size: usize,
    /// GA generation cap for ZO and PN (paper: 1000).
    pub max_generations: u32,
    /// Fitness-evaluation strategy for the GA schedulers (ZO and PN).
    /// Serial by default; `DTS_EVAL_WORKERS` overrides it in scenarios.
    pub evaluator: Evaluator,
    /// Base PN configuration (rebalances, init fraction, …).
    pub pn: PnConfig,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            batch_size: 200,
            max_generations: 1000,
            evaluator: Evaluator::Serial,
            pn: PnConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for kind in ALL_SCHEDULERS {
            assert_eq!(SchedulerKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(SchedulerKind::parse("nope"), None);
        assert_eq!(SchedulerKind::parse("pn"), Some(SchedulerKind::Pn));
    }

    #[test]
    fn builds_all_schedulers() {
        for kind in ALL_SCHEDULERS {
            let s = kind.build(4, 1);
            assert_eq!(s.name(), kind.label());
        }
    }

    #[test]
    fn build_options_propagate() {
        let opts = BuildOptions {
            batch_size: 32,
            ..BuildOptions::default()
        };
        for kind in [SchedulerKind::Mm, SchedulerKind::Zo, SchedulerKind::Pn] {
            let s = kind.build_with(4, 1, &opts);
            assert_eq!(s.name(), kind.label());
        }
    }

    #[test]
    fn seed_tags_are_distinct_and_stable() {
        let tags: std::collections::HashSet<u64> =
            ALL_SCHEDULERS.iter().map(|k| k.seed_tag()).collect();
        assert_eq!(tags.len(), ALL_SCHEDULERS.len(), "tag collision");
        assert_eq!(
            SchedulerKind::Pn.seed_tag(),
            SchedulerKind::Pn.seed_tag(),
            "tags must be stable across calls"
        );
    }
}
