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
    Assignment, EvaluatedPlacement, PlacementError, PlacementProblem, SearchTelemetry, SubgroupPlan,
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
            // Saturating: a long chain's pattern count overflows `usize`,
            // and the stride subsampling below only needs a lower bound.
            let total = nodes
                .iter()
                .fold(1usize, |acc, (_, o)| acc.saturating_mul(o.len()));
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
    let (beam, pruned) = beam_search(problem, config)?;
    evaluate_ranked(problem, oracle, config, &beam, pruned)
}

/// One (pattern, server) choice for the chain a beam round adds.
struct ChainOption {
    platforms: BTreeMap<NodeId, Platform>,
    /// The chain's subgroups under `platforms`, as formed (one core each).
    subgroups: Vec<SubgroupPlan>,
}

/// A beam entry: chains `0..ci` assigned, with their subgroups as formed
/// (one core each) kept so successors only form the new chain's.
struct Partial {
    assignment: Assignment,
    subgroups: Vec<SubgroupPlan>,
}

/// The beam over (chains so far) × (pattern, server per chain): the final
/// beam's assignments in rank order, and how many successors it pruned.
///
/// A successor's score is the water-filled marginal estimate of the
/// partial problem (chains `0..=ci`). Its subgroups are the parent's
/// followed by the option's, because subgroups are formed chain by chain
/// and a chain's depend only on its own platforms; so each option is
/// capability-checked and formed once per round, not once per parent.
fn beam_search(
    problem: &PlacementProblem,
    config: BruteConfig,
) -> Result<(Vec<Assignment>, u64), PlacementError> {
    let per_chain = per_chain_patterns(problem, config.max_patterns_per_chain);
    let n_servers = problem.topology.servers.len().max(1);
    let mut pruned: u64 = 0;
    let mut beam = vec![Partial {
        assignment: Vec::new(),
        subgroups: Vec::new(),
    }];
    let mut successor = Vec::new();
    for (ci, patterns) in per_chain.iter().enumerate() {
        let sub = PlacementProblem::new(
            problem.chains[..=ci].to_vec(),
            problem.topology.clone(),
            problem.profiles.clone(),
        );
        let shape = problem.chain_shape(ci);
        let options: Vec<Option<ChainOption>> = patterns
            .iter()
            .flat_map(|pattern| (0..n_servers).map(|server| materialize(pattern, server)))
            .map(|platforms| {
                problem.check_chain_capabilities(ci, &platforms).ok()?;
                let mut subgroups = Vec::new();
                problem.chain_subgroups(ci, &shape, &platforms, &mut subgroups);
                Some(ChainOption {
                    platforms,
                    subgroups,
                })
            })
            .collect();
        let generated = beam.len() as u64 * options.len() as u64;
        // (parent, option, score) per feasible successor.
        let mut next: Vec<(usize, usize, f64)> = Vec::new();
        for (pi, partial) in beam.iter().enumerate() {
            // `allocate` resets every subgroup to one core before it
            // starts, so the prefix is copied once per parent.
            successor.clone_from(&partial.subgroups);
            for (oi, option) in options.iter().enumerate() {
                let Some(option) = option else { continue };
                successor.truncate(partial.subgroups.len());
                successor.extend_from_slice(&option.subgroups);
                if corealloc::allocate(&sub, &mut successor, CoreStrategy::WaterFill).is_ok() {
                    next.push((pi, oi, corealloc::quick_estimate(&sub, &successor)));
                }
            }
        }
        if next.is_empty() {
            return Err(PlacementError::Infeasible(format!(
                "no feasible pattern prefix through chain {ci}"
            )));
        }
        pruned += generated - next.len() as u64;
        next.sort_by(|a, b| b.2.total_cmp(&a.2));
        pruned += next.len().saturating_sub(config.beam_width) as u64;
        next.truncate(config.beam_width);
        beam = next
            .iter()
            .map(|&(pi, oi, _)| {
                let (parent, option) = (&beam[pi], options[oi].as_ref().expect("scored"));
                let mut assignment = parent.assignment.clone();
                assignment.push(option.platforms.clone());
                let mut subgroups = parent.subgroups.clone();
                subgroups.extend_from_slice(&option.subgroups);
                Partial {
                    assignment,
                    subgroups,
                }
            })
            .collect();
    }
    Ok((beam.into_iter().map(|p| p.assignment).collect(), pruned))
}

/// Full evaluation + stage oracle on the first `config.candidates` of the
/// ranked `beam`.
fn evaluate_ranked(
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
    config: BruteConfig,
    beam: &[Assignment],
    mut pruned: u64,
) -> Result<EvaluatedPlacement, PlacementError> {
    let oracle = CountingOracle::new(oracle);
    let cache_before = oracle.cache_stats().unwrap_or_default();
    pruned += beam.len().saturating_sub(config.candidates) as u64;
    let ranked = &beam[..beam.len().min(config.candidates)];
    let lp_evals = ranked.len() as u64;
    let mut best: Option<EvaluatedPlacement> = None;
    let mut last_err =
        PlacementError::Infeasible("no candidate survived full evaluation".to_string());
    for assignment in ranked {
        let mut out = match problem.evaluate(assignment, CoreStrategy::WaterFill) {
            Ok(out) => out,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        match oracle.check(problem, assignment) {
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
    use crate::oracle::{AlwaysFits, ModelOracle};
    use crate::profiles::NfProfiles;
    use crate::topology::Topology;
    use lemur_core::chains::{canonical_chain, CanonicalChain};
    use lemur_core::graph::{ChainSpec, NfGraph};
    use lemur_core::Slo;
    use lemur_nf::{NfKind, NfParams};

    /// The from-scratch beam [`beam_search`] replaced: every successor
    /// clones its parent's assignment and is capability-checked, formed
    /// and scored whole.
    fn reference_beam(
        problem: &PlacementProblem,
        config: BruteConfig,
    ) -> Result<(Vec<Assignment>, u64), PlacementError> {
        fn quick_score(problem: &PlacementProblem, assignment: &Assignment) -> Option<f64> {
            problem.check_capabilities(assignment).ok()?;
            let mut sgs = problem.form_subgroups(assignment);
            corealloc::allocate(problem, &mut sgs, CoreStrategy::WaterFill).ok()?;
            Some(corealloc::quick_estimate(problem, &sgs))
        }
        let per_chain = per_chain_patterns(problem, config.max_patterns_per_chain);
        let n_servers = problem.topology.servers.len().max(1);
        let mut pruned: u64 = 0;
        let mut beam: Vec<(Assignment, f64)> = vec![(Vec::new(), 0.0)];
        for (ci, patterns) in per_chain.iter().enumerate() {
            let sub = PlacementProblem::new(
                problem.chains[..=ci].to_vec(),
                problem.topology.clone(),
                problem.profiles.clone(),
            );
            let generated = beam.len() as u64 * patterns.len() as u64 * n_servers as u64;
            let mut next = Vec::new();
            for (partial, _) in &beam {
                for pattern in patterns {
                    for server in 0..n_servers {
                        let mut assignment = partial.clone();
                        assignment.push(materialize(pattern, server));
                        if let Some(score) = quick_score(&sub, &assignment) {
                            next.push((assignment, score));
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
            next.sort_by(|a, b| b.1.total_cmp(&a.1));
            pruned += next.len().saturating_sub(config.beam_width) as u64;
            next.truncate(config.beam_width);
            beam = next;
        }
        Ok((beam.into_iter().map(|(a, _)| a).collect(), pruned))
    }

    /// The incremental beam ranks exactly what the from-scratch one does,
    /// and `optimal` returns exactly what ranking the reference beam
    /// would, telemetry included.
    fn assert_matches_reference(p: &PlacementProblem, oracle: &dyn StageOracle, cap: usize) {
        let config = BruteConfig {
            max_patterns_per_chain: cap,
            ..BruteConfig::default()
        };
        let want = reference_beam(p, config);
        assert_eq!(format!("{:?}", beam_search(p, config)), format!("{want:?}"));
        let want =
            want.and_then(|(beam, pruned)| evaluate_ranked(p, oracle, config, &beam, pruned));
        assert_eq!(
            format!("{:?}", optimal(p, oracle, config)),
            format!("{want:?}")
        );
    }

    #[test]
    fn incremental_beam_matches_reference_on_four_chains() {
        use CanonicalChain::*;
        for delta in [0.1, 0.8] {
            let p = problem(&[Chain1, Chain2, Chain3, Chain4], delta);
            // The stage model rejects every ranked candidate here (the
            // error path); `AlwaysFits` keeps the best of them.
            assert_matches_reference(&p, &ModelOracle::default(), 32);
            assert_matches_reference(&p, &AlwaysFits, 32);
        }
    }

    #[test]
    fn incremental_beam_matches_reference_across_servers() {
        use CanonicalChain::*;
        let p = problem_on(&[Chain2, Chain3], 0.5, Topology::with_servers(2));
        assert_matches_reference(&p, &AlwaysFits, 64);
    }

    #[test]
    fn incremental_beam_matches_reference_with_smartnic() {
        use CanonicalChain::*;
        let p = problem_on(&[Chain3, Chain5], 0.5, Topology::with_smartnic());
        assert!(per_chain_patterns(&p, 64)
            .iter()
            .flatten()
            .flatten()
            .any(|(_, plat)| matches!(plat, PatPlat::SmartNic(_))));
        assert_matches_reference(&p, &AlwaysFits, 64);
    }

    #[test]
    fn long_chain_pattern_count_saturates() {
        // 70 ACLs, each {Server, Pisa}: 2^70 patterns overflow `usize`.
        let mut graph = NfGraph::new();
        let ids: Vec<NodeId> = (0..70)
            .map(|_| graph.add(NfKind::Acl, NfParams::new()))
            .collect();
        for pair in ids.windows(2) {
            graph.connect(pair[0], pair[1]);
        }
        let chain = ChainSpec {
            name: "acl70".to_string(),
            graph,
            slo: None,
            aggregate: None,
        };
        let p = PlacementProblem::new(vec![chain], Topology::testbed(), NfProfiles::table4());
        let cap = 64;
        let pats = per_chain_patterns(&p, cap);
        assert_eq!(pats[0].len(), cap);
        for pat in &pats[0] {
            let nodes: Vec<NodeId> = pat.iter().map(|(id, _)| *id).collect();
            assert_eq!(nodes, ids);
        }
        let config = BruteConfig {
            max_patterns_per_chain: cap,
            ..BruteConfig::default()
        };
        assert!(optimal(&p, &AlwaysFits, config).is_ok());
    }

    fn problem(which: &[CanonicalChain], delta: f64) -> PlacementProblem {
        problem_on(which, delta, Topology::testbed())
    }

    fn problem_on(which: &[CanonicalChain], delta: f64, topology: Topology) -> PlacementProblem {
        let chains = which
            .iter()
            .map(|w| ChainSpec {
                name: format!("chain{}", w.index()),
                graph: canonical_chain(*w),
                slo: None,
                aggregate: None,
            })
            .collect::<Vec<_>>();
        let mut p = PlacementProblem::new(chains, topology, NfProfiles::table4());
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
