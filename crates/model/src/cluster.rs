//! Cluster generation: heterogeneous processors plus their links.
//!
//! The paper schedules "10,000 tasks on up to 50 heterogeneous processors"
//! (§4.2) with a dedicated extra processor hosting the scheduler. A
//! [`ClusterSpec`] captures the knobs; [`ClusterSpec::build`] materialises a
//! concrete, seeded [`Cluster`].

use dts_distributions::{Prng, SeedSequence};

use crate::link::{CommCostSpec, Link};
use crate::processor::{AvailabilityModel, Processor, ProcessorId};
use crate::workload::SizeDistribution;

/// Declarative description of a cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of worker processors (the scheduler host is extra and
    /// implicit).
    pub processors: usize,
    /// Distribution of per-processor Linpack ratings, in Mflop/s.
    pub rating: SizeDistribution,
    /// Availability dynamics applied to every processor.
    pub availability: AvailabilityModel,
    /// Communication environment between clients and the scheduler.
    pub comm: CommCostSpec,
}

impl ClusterSpec {
    /// The configuration used throughout the paper's §4 experiments:
    /// `n` dedicated processors with ratings uniform in [50, 150) Mflop/s
    /// and the given global mean communication cost.
    pub fn paper_defaults(processors: usize, mean_comm_cost: f64) -> Self {
        Self {
            processors,
            rating: SizeDistribution::Uniform {
                lo: 50.0,
                hi: 150.0,
            },
            availability: AvailabilityModel::Dedicated,
            comm: CommCostSpec::with_mean(mean_comm_cost),
        }
    }

    /// Builds a concrete cluster; identical `(spec, seed)` pairs produce
    /// identical clusters.
    ///
    /// # Panics
    ///
    /// Panics on zero processors, on rating parameters that fail
    /// [`SizeDistribution::validate`], and on a link cost spread that makes
    /// a per-link normal non-finite (see [`CommCostSpec::draw_link_mean`]).
    pub fn build(&self, seed: u64) -> Cluster {
        assert!(
            self.processors > 0,
            "a cluster needs at least one processor"
        );
        if let Err(e) = self.rating.validate() {
            panic!("invalid processor-rating distribution: {e}");
        }
        let mut seq = SeedSequence::new(seed);
        let mut rng = Prng::seed_from(seq.next_seed());
        let mut processors = Vec::with_capacity(self.processors);
        let mut links = Vec::with_capacity(self.processors);
        for i in 0..self.processors {
            let id = ProcessorId(u16::try_from(i).expect("more than u16::MAX processors"));
            // Truncate ratings below at 1 Mflop/s: a processor with a
            // non-positive rating would never finish anything.
            let mut rating = self.rating.sample(&mut rng);
            if !rating.is_finite() || rating < 1.0 {
                rating = 1.0;
            }
            processors.push(Processor::new(id, rating, self.availability.clone()));
            let mean = self.comm.draw_link_mean(&mut rng);
            links.push(Link::new(id, mean, self.comm.message_jitter));
        }
        Cluster {
            processors,
            links,
            availability_seed: seq.next_seed(),
        }
    }
}

/// A concrete, materialised cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The worker processors, indexed by [`ProcessorId`].
    pub processors: Vec<Processor>,
    /// One link per processor, same indexing.
    pub links: Vec<Link>,
    /// Seed stem used by the simulator for availability streams.
    pub availability_seed: u64,
}

impl Cluster {
    /// Number of worker processors.
    pub fn len(&self) -> usize {
        self.processors.len()
    }

    /// True when the cluster has no processors (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.processors.is_empty()
    }

    /// Sum of rated Mflop/s over all processors — the `ΣPⱼ` denominator in
    /// the paper's ψ formula when every machine is fully available.
    pub fn total_rated_mflops(&self) -> f64 {
        self.processors.iter().map(|p| p.rated_mflops).sum()
    }

    /// A quick homogeneous cluster for tests and examples: `n` dedicated
    /// processors all rated `rate` Mflop/s with free communication.
    pub fn homogeneous(n: usize, rate: f64) -> Cluster {
        let processors = (0..n)
            .map(|i| Processor::dedicated(ProcessorId(i as u16), rate))
            .collect::<Vec<_>>();
        let links = (0..n)
            .map(|i| Link::new(ProcessorId(i as u16), 0.0, 0.0))
            .collect();
        Cluster {
            processors,
            links,
            availability_seed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let spec = ClusterSpec::paper_defaults(50, 20.0);
        let a = spec.build(9);
        let b = spec.build(9);
        assert_eq!(a.processors, b.processors);
        assert_eq!(a.links, b.links);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = ClusterSpec::paper_defaults(50, 20.0);
        let a = spec.build(1);
        let b = spec.build(2);
        assert_ne!(a.processors, b.processors);
    }

    #[test]
    fn ratings_within_spec_range() {
        let spec = ClusterSpec::paper_defaults(200, 20.0);
        let c = spec.build(3);
        assert_eq!(c.len(), 200);
        for p in &c.processors {
            assert!((50.0..150.0).contains(&p.rated_mflops));
        }
        assert!(c.total_rated_mflops() > 50.0 * 200.0);
    }

    #[test]
    fn heterogeneity_is_real() {
        let spec = ClusterSpec::paper_defaults(50, 20.0);
        let c = spec.build(4);
        let first = c.processors[0].rated_mflops;
        assert!(c.processors.iter().any(|p| p.rated_mflops != first));
    }

    #[test]
    fn links_carry_positive_means() {
        let spec = ClusterSpec::paper_defaults(50, 20.0);
        let c = spec.build(5);
        assert_eq!(c.links.len(), 50);
        for l in &c.links {
            assert!(l.mean_cost > 0.0);
        }
    }

    #[test]
    fn homogeneous_helper() {
        let c = Cluster::homogeneous(4, 100.0);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.total_rated_mflops(), 400.0);
        // dts-lint: allow(float-eq, "exact constructor value: homogeneous clusters build every link with mean_cost exactly 0.0")
        assert!(c.links.iter().all(|l| l.mean_cost == 0.0));
    }

    #[test]
    #[should_panic]
    fn empty_cluster_rejected() {
        let spec = ClusterSpec::paper_defaults(0, 1.0);
        let _ = spec.build(1);
    }
}
