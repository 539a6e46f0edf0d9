//! Hierarchical fleet placement: cross-PoP chain assignment on top of the
//! existing single-rack placer.
//!
//! A fleet is a set of PoPs, each a rack the single-site placer already
//! understands. Placement decomposes in two levels:
//!
//! 1. **Cross-PoP assignment** — every chain is routed to one PoP, chosen
//!    greedily in descending [`Slo::priority`] order (ties toward the
//!    larger `t_min`, then the lower chain index) with PoPs tried
//!    least-loaded first. Each tentative assignment is validated by
//!    actually solving the PoP's accumulated subproblem with the
//!    single-rack heuristic — the subproblem *is* the oracle, so the
//!    fleet level never admits a chain a rack cannot serve.
//! 2. **Per-PoP subproblems** — the surviving chain set of each PoP is an
//!    ordinary [`PlacementProblem`] solved by
//!    [`crate::heuristic::place_with_strategy`], so its determinism and
//!    stage-oracle memoization carry over unchanged.
//!
//! When aggregate fleet capacity is insufficient, the chains that find no
//! seat are **shed in ascending priority order** — the same graceful-
//! degradation contract as single-rack [`crate::repair`].

use lemur_core::graph::ChainSpec;
use lemur_core::Slo;

use crate::corealloc::CoreStrategy;
use crate::heuristic::place_with_strategy;
use crate::oracle::StageOracle;
use crate::placement::{EvaluatedPlacement, PlacementProblem};
use crate::profiles::NfProfiles;
use crate::topology::Topology;

/// Fractional slack when validating a subproblem's predicted rates
/// against each chain's `t_min` (matches the supervisor's dry-run
/// tolerance).
const VALIDATION_TOL: f64 = 0.05;

/// One PoP's share of a fleet placement.
#[derive(Debug, Clone)]
pub struct PopPlan {
    /// PoP index in the fleet topology.
    pub pop: usize,
    /// Global chain indices served here, ascending.
    pub chains: Vec<usize>,
    /// The PoP-local subproblem (its chain `i` is global `chains[i]`).
    /// `None` when the PoP serves nothing.
    pub problem: Option<PlacementProblem>,
    /// The solved subproblem, aligned with `problem`.
    pub placement: Option<EvaluatedPlacement>,
}

/// A fleet-wide placement: every chain either has exactly one home PoP or
/// is listed in `shed`.
#[derive(Debug, Clone)]
pub struct FleetPlacement {
    /// One entry per PoP, index-aligned with the input topologies.
    pub pops: Vec<PopPlan>,
    /// Global chain indices shed for lack of aggregate capacity, in
    /// shedding order (ascending priority, ties toward smaller `t_min`).
    pub shed: Vec<usize>,
}

impl FleetPlacement {
    /// The home PoP of a global chain, if admitted.
    pub fn home_of(&self, chain: usize) -> Option<usize> {
        self.pops
            .iter()
            .find(|p| p.chains.contains(&chain))
            .map(|p| p.pop)
    }
}

fn slo_of(chain: &ChainSpec) -> Slo {
    chain.slo.unwrap_or(Slo::bulk())
}

/// Candidate order: descending priority, ties toward the larger `t_min`
/// (harder to seat late), then ascending index. Deterministic.
fn candidate_order(chains: &[ChainSpec], candidates: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = candidates.to_vec();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (slo_of(&chains[a]), slo_of(&chains[b]));
        sb.priority
            .cmp(&sa.priority)
            .then(
                sb.t_min_bps
                    .partial_cmp(&sa.t_min_bps)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.cmp(&b))
    });
    order
}

/// Solve one PoP's subproblem for a chain set; `Ok(None)` means the rack
/// cannot serve this set (infeasible or an SLO under water).
fn solve_pop(
    chains: &[ChainSpec],
    set: &[usize],
    topology: &Topology,
    profiles: &NfProfiles,
    oracle: &dyn StageOracle,
) -> Option<(PlacementProblem, EvaluatedPlacement)> {
    // A capacity-zero topology (e.g. a PoP fenced out of a failover
    // search) can hold nothing; the placer itself assumes ≥1 core.
    if topology.total_worker_cores() == 0 {
        return None;
    }
    let sub = PlacementProblem::new(
        set.iter().map(|&c| chains[c].clone()).collect(),
        topology.clone(),
        profiles.clone(),
    );
    let placement = place_with_strategy(&sub, oracle, CoreStrategy::WaterFill).ok()?;
    let feasible = set.iter().enumerate().all(|(i, &c)| {
        let t_min = slo_of(&chains[c]).t_min_bps;
        placement.chain_rates_bps[i] >= t_min * (1.0 - VALIDATION_TOL)
    });
    feasible.then_some((sub, placement))
}

/// Assign `candidates` to PoPs on top of chains already `locked` in
/// place, re-solving each touched PoP's subproblem. This is the shared
/// engine behind initial fleet placement and cross-PoP failover: at boot
/// every chain is a candidate and nothing is locked; on failover the
/// surviving PoPs' chains are locked and the drained PoP's chains are the
/// candidates.
///
/// Chains that fit nowhere are shed (never an error): an empty fleet
/// placement is still an answer, just a fully-degraded one.
pub fn assign_chains(
    chains: &[ChainSpec],
    pop_topologies: &[Topology],
    locked: &[Vec<usize>],
    candidates: &[usize],
    profiles: &NfProfiles,
    oracle: &dyn StageOracle,
) -> FleetPlacement {
    assert_eq!(locked.len(), pop_topologies.len(), "one locked set per PoP");
    let n_pops = pop_topologies.len();
    let mut sets: Vec<Vec<usize>> = locked.to_vec();
    for set in &mut sets {
        set.sort_unstable();
    }
    // Cache of each PoP's current solved subproblem, refreshed whenever a
    // chain lands there.
    let mut solved: Vec<Option<(PlacementProblem, EvaluatedPlacement)>> = (0..n_pops)
        .map(|p| {
            if sets[p].is_empty() {
                None
            } else {
                solve_pop(chains, &sets[p], &pop_topologies[p], profiles, oracle)
            }
        })
        .collect();

    let mut shed: Vec<usize> = Vec::new();
    for c in candidate_order(chains, candidates) {
        // Least-loaded PoPs first: committed t_min per worker core, ties
        // toward the lower index. Recomputed per candidate so the greedy
        // level balances as it goes.
        let mut by_load: Vec<usize> = (0..n_pops)
            .filter(|&p| pop_topologies[p].total_worker_cores() > 0)
            .collect();
        let load = |p: usize| -> f64 {
            let committed: f64 = sets[p].iter().map(|&i| slo_of(&chains[i]).t_min_bps).sum();
            committed / pop_topologies[p].total_worker_cores() as f64
        };
        by_load.sort_by(|&a, &b| {
            load(a)
                .partial_cmp(&load(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });

        let mut seated = false;
        for p in by_load {
            let mut tentative = sets[p].clone();
            let at = tentative.binary_search(&c).unwrap_or_else(|i| i);
            tentative.insert(at, c);
            if let Some(ok) = solve_pop(chains, &tentative, &pop_topologies[p], profiles, oracle) {
                sets[p] = tentative;
                solved[p] = Some(ok);
                seated = true;
                break;
            }
        }
        if !seated {
            shed.push(c);
        }
    }

    // Shedding order for the report: ascending priority, smaller t_min
    // first, then index — the reverse of the seating order.
    shed.reverse();

    let pops = (0..n_pops)
        .map(|p| {
            let (problem, placement) = match solved[p].take() {
                Some((pr, pl)) => (Some(pr), Some(pl)),
                None => (None, None),
            };
            PopPlan {
                pop: p,
                chains: sets[p].clone(),
                problem,
                placement,
            }
        })
        .collect();
    FleetPlacement { pops, shed }
}

/// Place a whole chain catalog onto a fleet of PoPs from scratch — the
/// hierarchical entry point. See [`assign_chains`] for the semantics.
pub fn place_fleet(
    chains: &[ChainSpec],
    pop_topologies: &[Topology],
    profiles: &NfProfiles,
    oracle: &dyn StageOracle,
) -> FleetPlacement {
    let all: Vec<usize> = (0..chains.len()).collect();
    let locked = vec![Vec::new(); pop_topologies.len()];
    assign_chains(chains, pop_topologies, &locked, &all, profiles, oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::AlwaysFits;
    use lemur_core::chains::{canonical_chain, CanonicalChain};

    fn catalog(n: usize, t_min_each: f64) -> Vec<ChainSpec> {
        (0..n)
            .map(|i| {
                let which = [
                    CanonicalChain::Chain3,
                    CanonicalChain::Chain2,
                    CanonicalChain::Chain1,
                ][i % 3];
                ChainSpec {
                    name: format!("c{i}"),
                    graph: canonical_chain(which),
                    slo: Some(Slo::elastic_pipe(t_min_each, 100e9).with_priority((n - i) as u8)),
                    aggregate: None,
                }
            })
            .collect()
    }

    #[test]
    fn every_chain_has_exactly_one_home_or_is_shed() {
        let chains = catalog(4, 1e9);
        let pops = vec![Topology::with_servers(2), Topology::with_servers(2)];
        let fp = place_fleet(&chains, &pops, &NfProfiles::table4(), &AlwaysFits);
        let mut seen = vec![0usize; chains.len()];
        for p in &fp.pops {
            for &c in &p.chains {
                seen[c] += 1;
            }
        }
        for &c in &fp.shed {
            seen[c] += 1;
        }
        assert!(seen.iter().all(|&n| n == 1), "ownership must partition");
        // Both PoPs should be earning their keep on a 4-chain catalog.
        assert!(fp.pops.iter().filter(|p| !p.chains.is_empty()).count() >= 2);
    }

    #[test]
    fn shedding_is_by_ascending_priority() {
        // One tiny PoP, demands far beyond its capacity: low-priority
        // chains must be the ones shed.
        let chains = catalog(4, 40e9);
        let pops = vec![Topology::with_servers(1)];
        let fp = place_fleet(&chains, &pops, &NfProfiles::table4(), &AlwaysFits);
        assert!(!fp.shed.is_empty(), "overload must shed");
        let priorities: Vec<u8> = fp
            .shed
            .iter()
            .map(|&c| chains[c].slo.map_or(0, |s| s.priority))
            .collect();
        let mut sorted = priorities.clone();
        sorted.sort_unstable();
        assert_eq!(priorities, sorted, "shed order must be ascending priority");
        // The highest-priority chain always survives if anything does.
        let survivors: Vec<usize> = fp.pops.iter().flat_map(|p| p.chains.clone()).collect();
        if !survivors.is_empty() {
            assert!(survivors.contains(&0), "chain 0 has the top priority");
        }
    }

    #[test]
    fn failover_reassignment_respects_locked_chains() {
        let chains = catalog(4, 1e9);
        let pops = vec![Topology::with_servers(2), Topology::with_servers(2)];
        let fp = place_fleet(&chains, &pops, &NfProfiles::table4(), &AlwaysFits);
        // PoP 0 dies: its chains become candidates, PoP 1 keeps its own.
        let dead: Vec<usize> = fp.pops[0].chains.clone();
        let locked = vec![Vec::new(), fp.pops[1].chains.clone()];
        let after = assign_chains(
            &chains,
            &[Topology::with_servers(0), pops[1].clone()],
            &locked,
            &dead,
            &NfProfiles::table4(),
            &AlwaysFits,
        );
        for &c in &fp.pops[1].chains {
            assert!(
                after.pops[1].chains.contains(&c),
                "locked chain {c} must stay at its PoP"
            );
        }
        assert!(after.pops[0].chains.is_empty(), "dead PoP seats nothing");
        for &c in &dead {
            let homed = after.pops[1].chains.contains(&c);
            let shed = after.shed.contains(&c);
            assert!(homed ^ shed, "chain {c} must fail over or shed, not both");
        }
    }
}
