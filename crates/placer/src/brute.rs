//! Brute-force ("Optimal") placement (§3.2).
//!
//! The paper's brute force (a) enumerates placement patterns, (b) searches
//! core allocations per pattern, (c) ranks by maximum marginal throughput
//! via the LP, and (d) walks the ranking calling the PISA compiler until a
//! placement fits the stages. Exhaustive enumeration took ~4 hours for the
//! 4-chain configuration on the authors' machine; like theirs, our search
//! ranks cheaply first and only runs the LP + compiler on the best
//! candidates. A configurable beam bounds the combinatorics (the default
//! is effectively exhaustive for ≤ 2 chains).

use crate::corealloc::{self, CoreStrategy};
use crate::oracle::{CountingOracle, StageOracle, StageVerdict};
use crate::placement::{
    Assignment, EvaluatedPlacement, PlacementError, PlacementProblem, SearchTelemetry,
};
use crate::profiles::{Platform, PlatformClass};
use crate::topology::Tor;
use lemur_core::graph::NodeId;
use std::collections::BTreeMap;

/// A platform choice before a concrete server is picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatPlat {
    Pisa,
    Server,
    SmartNic(usize),
    OpenFlow,
}

/// One per-chain pattern: a platform class per node.
pub type Pattern = Vec<(NodeId, PatPlat)>;

/// Search configuration.
#[derive(Debug, Clone, Copy)]
pub struct BruteConfig {
    /// Cap on enumerated patterns per chain (evenly subsampled beyond).
    pub max_patterns_per_chain: usize,
    /// Beam width while combining chains.
    pub beam_width: usize,
    /// How many ranked candidates get the full LP + stage-oracle check.
    pub candidates: usize,
}

impl Default for BruteConfig {
    fn default() -> Self {
        BruteConfig {
            max_patterns_per_chain: 4096,
            beam_width: 64,
            candidates: 40,
        }
    }
}

/// Enumerate platform patterns for every chain.
pub fn per_chain_patterns(problem: &PlacementProblem, cap: usize) -> Vec<Vec<Pattern>> {
    problem
        .chains
        .iter()
        .map(|chain| {
            let nodes: Vec<(NodeId, Vec<PatPlat>)> = chain
                .graph
                .nodes()
                .map(|(id, n)| {
                    let mut opts = Vec::new();
                    for class in problem.profiles.capabilities(n.kind) {
                        match class {
                            PlatformClass::Pisa if problem.topology.has_pisa() => {
                                opts.push(PatPlat::Pisa)
                            }
                            PlatformClass::Server => opts.push(PatPlat::Server),
                            PlatformClass::SmartNic => {
                                for ni in 0..problem.topology.smartnics.len() {
                                    opts.push(PatPlat::SmartNic(ni));
                                }
                            }
                            PlatformClass::OpenFlow
                                if matches!(problem.topology.tor, Tor::OpenFlow { .. }) =>
                            {
                                opts.push(PatPlat::OpenFlow)
                            }
                            _ => {}
                        }
                    }
                    if opts.is_empty() {
                        // No platform available in this topology: fall back
                        // to Server so the capability check reports it.
                        opts.push(PatPlat::Server);
                    }
                    (id, opts)
                })
                .collect();
            let total: usize = nodes.iter().map(|(_, o)| o.len()).product();
            let take = total.min(cap);
            let stride = (total / take.max(1)).max(1);
            let mut patterns = Vec::with_capacity(take);
            let mut index = 0usize;
            while index < total && patterns.len() < take {
                let mut rem = index;
                let mut pat = Vec::with_capacity(nodes.len());
                for (id, opts) in &nodes {
                    pat.push((*id, opts[rem % opts.len()]));
                    rem /= opts.len();
                }
                patterns.push(pat);
                index += stride;
            }
            patterns
        })
        .collect()
}

/// Turn a pattern into a concrete per-node assignment on `server`.
pub fn materialize(pattern: &Pattern, server: usize) -> BTreeMap<NodeId, Platform> {
    pattern
        .iter()
        .map(|(id, p)| {
            let plat = match p {
                PatPlat::Pisa => Platform::Pisa,
                PatPlat::Server => Platform::Server(server),
                PatPlat::SmartNic(n) => Platform::SmartNic(*n),
                PatPlat::OpenFlow => Platform::OpenFlow,
            };
            (*id, plat)
        })
        .collect()
}

/// Cheap (no-LP) score of a full assignment: water-filled marginal
/// estimate, or `None` if infeasible.
fn quick_score(problem: &PlacementProblem, assignment: &Assignment) -> Option<f64> {
    problem.check_capabilities(assignment).ok()?;
    let mut sgs = problem.form_subgroups(assignment);
    corealloc::allocate(problem, &mut sgs, CoreStrategy::WaterFill).ok()?;
    Some(corealloc::quick_estimate(problem, &sgs))
}

/// Run brute-force placement.
///
/// Successors are generated in nested-loop order (beam partial, pattern,
/// server) and sorted stably, so score ties keep that order. Ranked
/// candidates are then evaluated in rank order: a fit replaces the best
/// only when strictly better by 1e-6, and the last rejection is the error
/// returned when nothing fits.
pub fn optimal(
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
    config: BruteConfig,
) -> Result<EvaluatedPlacement, PlacementError> {
    let oracle = CountingOracle::new(oracle);
    let cache_before = oracle.cache_stats().unwrap_or_default();
    let per_chain = per_chain_patterns(problem, config.max_patterns_per_chain);
    let n_servers = problem.topology.servers.len().max(1);
    let mut pruned: u64 = 0;

    // Beam over (chains so far) × (server choice per chain).
    struct Partial {
        assignment: Assignment,
        score: f64,
    }
    let mut beam: Vec<Partial> = vec![Partial {
        assignment: Vec::new(),
        score: 0.0,
    }];
    for (ci, patterns) in per_chain.iter().enumerate() {
        // Score successors against the partial problem (chains 0..=ci).
        let sub = PlacementProblem::new(
            problem.chains[..=ci].to_vec(),
            problem.topology.clone(),
            problem.profiles.clone(),
        );
        let generated = beam.len() as u64 * patterns.len() as u64 * n_servers as u64;
        let mut next: Vec<Partial> = Vec::new();
        for partial in &beam {
            for pattern in patterns {
                for server in 0..n_servers {
                    let mut assignment = partial.assignment.clone();
                    assignment.push(materialize(pattern, server));
                    if let Some(score) = quick_score(&sub, &assignment) {
                        next.push(Partial { assignment, score });
                    }
                }
            }
        }
        if next.is_empty() {
            return Err(PlacementError::Infeasible(format!(
                "no feasible pattern prefix through chain {ci}"
            )));
        }
        pruned += generated - next.len() as u64;
        next.sort_by(|a, b| b.score.total_cmp(&a.score));
        pruned += next.len().saturating_sub(config.beam_width) as u64;
        next.truncate(config.beam_width);
        beam = next;
    }

    // Full evaluation + stage oracle on the ranked candidates.
    pruned += beam.len().saturating_sub(config.candidates) as u64;
    let ranked = &beam[..beam.len().min(config.candidates)];
    let lp_evals = ranked.len() as u64;
    let mut best: Option<EvaluatedPlacement> = None;
    let mut last_err =
        PlacementError::Infeasible("no candidate survived full evaluation".to_string());
    for partial in ranked {
        let mut out = match problem.evaluate(&partial.assignment, CoreStrategy::WaterFill) {
            Ok(out) => out,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        match oracle.check(problem, &partial.assignment) {
            StageVerdict::Fits { stages } => {
                out.stages_used = Some(stages);
                if best
                    .as_ref()
                    .map(|b| out.marginal_bps > b.marginal_bps + 1e-6)
                    .unwrap_or(true)
                {
                    best = Some(out);
                }
            }
            StageVerdict::OutOfStages {
                required,
                available,
            } => {
                last_err = PlacementError::OutOfStages {
                    required,
                    available,
                }
            }
        }
    }
    let cache_after = oracle.cache_stats().unwrap_or_default();
    let cache = cache_after.since(&cache_before);
    match best {
        Some(mut out) => {
            out.telemetry = Some(SearchTelemetry {
                oracle_calls: oracle.calls(),
                cache_hits: cache.hits,
                cache_misses: cache.misses,
                lp_evals,
                pruned_candidates: pruned,
            });
            Ok(out)
        }
        None => Err(last_err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::AlwaysFits;
    use crate::profiles::NfProfiles;
    use crate::topology::Topology;
    use lemur_core::chains::{canonical_chain, CanonicalChain};
    use lemur_core::graph::ChainSpec;
    use lemur_core::Slo;

    fn problem(which: &[CanonicalChain], delta: f64) -> PlacementProblem {
        let chains = which
            .iter()
            .map(|w| ChainSpec {
                name: format!("chain{}", w.index()),
                graph: canonical_chain(*w),
                slo: None,
                aggregate: None,
            })
            .collect::<Vec<_>>();
        let mut p = PlacementProblem::new(chains, Topology::testbed(), NfProfiles::table4());
        for i in 0..p.chains.len() {
            let base = p.base_rate_bps(i);
            p.chains[i].slo = Some(Slo::elastic_pipe(delta * base, 100e9));
        }
        p
    }

    #[test]
    fn pattern_enumeration_counts() {
        let p = problem(&[CanonicalChain::Chain3], 0.5);
        let pats = per_chain_patterns(&p, 4096);
        // Chain 3 free nodes: ACL {Pisa, Server}, LB {Pisa, Server};
        // Dedup/Limiter server-only, IPv4Fwd Pisa-only → 4 patterns.
        assert_eq!(pats[0].len(), 4);
    }

    #[test]
    fn pattern_cap_subsamples() {
        let p = problem(&[CanonicalChain::Chain1], 0.5);
        let pats = per_chain_patterns(&p, 16);
        assert_eq!(pats[0].len(), 16);
    }

    #[test]
    fn optimal_finds_feasible_chain3() {
        let p = problem(&[CanonicalChain::Chain3], 1.5);
        let out = optimal(&p, &AlwaysFits, BruteConfig::default()).unwrap();
        let t_min = p.chains[0].slo.unwrap().t_min_bps;
        assert!(out.chain_rates_bps[0] + 1.0 >= t_min);
        // δ=1.5 > single-subgroup capacity: the optimal placement must
        // offload ACL/LB to the switch and replicate Dedup.
        let dedup_sg = out
            .subgroups
            .iter()
            .find(|sg| {
                sg.nodes
                    .iter()
                    .any(|id| p.chains[0].graph.node(*id).kind == lemur_nf::NfKind::Dedup)
            })
            .unwrap();
        assert!(dedup_sg.cores >= 2);
    }

    #[test]
    fn optimal_beats_or_matches_single_patterns() {
        let p = problem(&[CanonicalChain::Chain2, CanonicalChain::Chain3], 1.0);
        let opt = optimal(&p, &AlwaysFits, BruteConfig::default()).unwrap();
        let hw = crate::baselines::hw_preferred(&p, &AlwaysFits);
        if let Ok(hw) = hw {
            assert!(
                opt.marginal_bps + 1.0 >= hw.marginal_bps,
                "optimal {:.2}G < hw {:.2}G",
                opt.marginal_bps / 1e9,
                hw.marginal_bps / 1e9
            );
        }
    }

    #[test]
    fn infeasible_when_demand_absurd() {
        let p = problem(&[CanonicalChain::Chain3], 100.0);
        assert!(optimal(&p, &AlwaysFits, BruteConfig::default()).is_err());
    }
}
