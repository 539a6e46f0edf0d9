//! The stage-feasibility oracle.
//!
//! "Off-the-shelf solvers cannot determine if a set of NF chains respects
//! hardware constraints, since that requires actually invoking the
//! hardware-specific compiler" (§1). The Placer therefore consults a
//! [`StageOracle`]: the production implementation lives in
//! `lemur-metacompiler` (it synthesizes the unified P4 program and runs
//! `lemur-p4sim`'s stage-packing compiler); [`ModelOracle`] is the cheap
//! per-NF approximation used in unit tests and in the "analytic estimate"
//! comparisons.

use crate::cache::CacheStats;
use crate::placement::{Assignment, PlacementProblem};
use crate::profiles::Platform;
use lemur_nf::NfKind;
use std::cell::Cell;

/// Verdict of a stage-feasibility check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageVerdict {
    /// Fits; reports stages used.
    Fits { stages: usize },
    /// Does not fit; reports the shortfall.
    OutOfStages { required: usize, available: usize },
}

/// A stage-feasibility oracle over switch-resident NFs.
pub trait StageOracle {
    /// Check the PISA program implied by `assignment` for `problem`.
    fn check(&self, problem: &PlacementProblem, assignment: &Assignment) -> StageVerdict;

    /// Memoization counters, if this oracle caches verdicts (see
    /// `lemur-metacompiler`'s cached compiler oracle). `None` for
    /// uncached oracles.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

/// References to oracles are oracles, so searches can wrap a borrowed
/// `&dyn StageOracle` in adapters like [`CountingOracle`].
impl<O: StageOracle + ?Sized> StageOracle for &O {
    fn check(&self, problem: &PlacementProblem, assignment: &Assignment) -> StageVerdict {
        (**self).check(problem, assignment)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        (**self).cache_stats()
    }
}

/// Wraps any oracle and counts invocations, so searches can report how
/// often the (expensive) compiler was consulted — the accounting
/// `placement.rs` promises ("algorithms call that themselves so they can
/// control how often the compiler is invoked").
#[derive(Debug, Default)]
pub struct CountingOracle<O> {
    inner: O,
    calls: Cell<u64>,
}

impl<O: StageOracle> CountingOracle<O> {
    /// Wrap `inner`, starting the counter at zero.
    pub fn new(inner: O) -> CountingOracle<O> {
        CountingOracle {
            inner,
            calls: Cell::new(0),
        }
    }

    /// Number of `check` calls observed so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: StageOracle> StageOracle for CountingOracle<O> {
    fn check(&self, problem: &PlacementProblem, assignment: &Assignment) -> StageVerdict {
        self.calls.set(self.calls.get() + 1);
        self.inner.check(problem, assignment)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }
}

/// A simple analytic model: each switch NF kind costs a fixed number of
/// stages; branch-exclusive NFs share. This over-approximates (it cannot
/// see the packing the real compiler does), mirroring the conservative
/// estimators the paper found wasteful (§5.2).
#[derive(Debug, Clone)]
pub struct ModelOracle {
    /// Stages the coordination logic always occupies (classification +
    /// NSH encap/decap; "we have to burn two P4 stages", §5.3 — plus one
    /// steering stage).
    pub overhead_stages: usize,
    pub available: usize,
}

impl Default for ModelOracle {
    fn default() -> Self {
        ModelOracle {
            overhead_stages: 3,
            available: 12,
        }
    }
}

/// Analytic per-NF stage cost of a switch-resident NF.
pub fn model_stage_cost(kind: NfKind) -> usize {
    match kind {
        NfKind::Nat => 2, // lookup + rewrite
        NfKind::Lb => 2,  // hash-select + rewrite
        NfKind::Acl => 1,
        NfKind::Ipv4Fwd => 1,
        NfKind::Tunnel | NfKind::Detunnel => 1,
        NfKind::Match => 1,
        _ => 1,
    }
}

impl StageOracle for ModelOracle {
    fn check(&self, problem: &PlacementProblem, assignment: &Assignment) -> StageVerdict {
        // Per chain: sum the stage costs along the *longest* decomposed
        // path (exclusive branches overlay). Chains share the pipeline, so
        // chain costs add, minus the shared overhead charged once.
        let mut total = self.overhead_stages;
        for (ci, chain) in problem.chains.iter().enumerate() {
            let per_path: usize = chain
                .graph
                .decompose()
                .iter()
                .map(|lc| {
                    lc.nodes
                        .iter()
                        .filter(|id| matches!(assignment[ci].get(id), Some(Platform::Pisa)))
                        .map(|id| model_stage_cost(chain.graph.node(*id).kind))
                        .sum::<usize>()
                })
                .max()
                .unwrap_or(0);
            total += per_path;
        }
        if total <= self.available {
            StageVerdict::Fits { stages: total }
        } else {
            StageVerdict::OutOfStages {
                required: total,
                available: self.available,
            }
        }
    }
}

/// An oracle that accepts everything — used where the ToR is OpenFlow (no
/// stage constraint) or in tests isolating other mechanisms.
#[derive(Debug, Clone, Default)]
pub struct AlwaysFits;

impl StageOracle for AlwaysFits {
    fn check(&self, _problem: &PlacementProblem, _assignment: &Assignment) -> StageVerdict {
        StageVerdict::Fits { stages: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::NfProfiles;
    use crate::topology::Topology;
    use lemur_core::chains::{canonical_chain, extreme_nat_chain, CanonicalChain};
    use lemur_core::graph::ChainSpec;
    use lemur_core::Slo;
    use std::collections::BTreeMap;

    fn all_pisa_possible(problem: &PlacementProblem) -> Assignment {
        problem
            .chains
            .iter()
            .map(|c| {
                c.graph
                    .nodes()
                    .map(|(id, n)| {
                        let plat = if crate::profiles::capabilities(n.kind)
                            .contains(&crate::profiles::PlatformClass::Pisa)
                        {
                            Platform::Pisa
                        } else {
                            Platform::Server(0)
                        };
                        (id, plat)
                    })
                    .collect::<BTreeMap<_, _>>()
            })
            .collect()
    }

    #[test]
    fn small_chain_fits() {
        let p = PlacementProblem::new(
            vec![ChainSpec {
                name: "c3".into(),
                graph: canonical_chain(CanonicalChain::Chain3),
                slo: Some(Slo::bulk()),
                aggregate: None,
            }],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let a = all_pisa_possible(&p);
        match ModelOracle::default().check(&p, &a) {
            StageVerdict::Fits { stages } => assert!(stages <= 12, "{stages}"),
            other => panic!("expected fit, got {other:?}"),
        }
    }

    #[test]
    fn extreme_nat_chain_overflows_model() {
        // The conservative model cannot pack 11 exclusive NATs; the §5.2
        // experiment shows why the real compiler matters.
        let p = PlacementProblem::new(
            vec![ChainSpec {
                name: "extreme".into(),
                graph: extreme_nat_chain(11),
                slo: Some(Slo::bulk()),
                aggregate: None,
            }],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let a = all_pisa_possible(&p);
        // The model overlays exclusive branches (max, not sum): one NAT
        // path = match(1)+nat(2)+fwd(1) = 4 + overhead 3 = 7, so it *fits*
        // under the model; the true blow-up comes from per-stage resource
        // limits only the real compiler sees. Assert the model's verdict
        // here; the metacompiler integration test asserts the real one.
        assert!(matches!(
            ModelOracle::default().check(&p, &a),
            StageVerdict::Fits { .. }
        ));
    }

    #[test]
    fn many_chains_exhaust_stages() {
        let chains: Vec<ChainSpec> = (0..6)
            .map(|i| ChainSpec {
                name: format!("c{i}"),
                graph: canonical_chain(CanonicalChain::Chain2),
                slo: Some(Slo::bulk()),
                aggregate: None,
            })
            .collect();
        let p = PlacementProblem::new(chains, Topology::testbed(), NfProfiles::table4());
        let a = all_pisa_possible(&p);
        assert!(matches!(
            ModelOracle::default().check(&p, &a),
            StageVerdict::OutOfStages { .. }
        ));
    }

    #[test]
    fn always_fits_is_permissive() {
        let p = PlacementProblem::new(
            vec![ChainSpec {
                name: "x".into(),
                graph: extreme_nat_chain(20),
                slo: Some(Slo::bulk()),
                aggregate: None,
            }],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let a = all_pisa_possible(&p);
        assert_eq!(AlwaysFits.check(&p, &a), StageVerdict::Fits { stages: 0 });
    }
}
