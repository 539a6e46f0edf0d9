//! Lemur's fast placement heuristic (§3.2, "A Fast, Scalable Heuristic").
//!
//! Three steps:
//!
//! 1. **Check stage constraints.** Greedily place every PISA-capable NF on
//!    the switch; while the stage oracle rejects, move the *lowest cycle
//!    cost* switch NF to the server ("it is always better to remove the
//!    low-cost NF"). The resulting baseline always fits the switch, and
//!    later steps only ever *remove* NFs from it.
//! 2. **Coalesce sub-groups.** Consider pulling switch NFs that sit
//!    between two server subgroups down to the server, merging the
//!    subgroups and freeing cores. Three rules produce three candidate
//!    placements: *strict* (merge only if 2 cores on the merged group beat
//!    1+1 on the parts), *aggressive* (merge whenever `t_min` stays
//!    satisfiable), *conservative* (merge only if the chain's rate does
//!    not decrease).
//! 3. **Maximize marginal throughput.** Allocate cores and solve the LP
//!    for each candidate; keep the best.

use crate::corealloc::CoreStrategy;
use crate::oracle::{CountingOracle, StageOracle, StageVerdict};
use crate::placement::{
    Assignment, EvaluatedPlacement, PlacementError, PlacementProblem, SearchTelemetry,
};
use crate::profiles::{Platform, PlatformClass};
use crate::{NSH_OVERHEAD_CYCLES, REPLICATION_OVERHEAD_CYCLES};
use lemur_core::graph::NodeId;

/// Which coalescing rule a candidate applies (strict merges always apply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoalesceRule {
    Aggressive,
    Conservative,
}

/// Place with Lemur's heuristic.
pub fn place(
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
) -> Result<EvaluatedPlacement, PlacementError> {
    place_with_strategy(problem, oracle, CoreStrategy::WaterFill)
}

/// Heuristic with an explicit core strategy (the No-Core-Allocation
/// ablation passes `MinimalOnly`).
pub fn place_with_strategy(
    problem: &PlacementProblem,
    oracle: &dyn StageOracle,
    strategy: CoreStrategy,
) -> Result<EvaluatedPlacement, PlacementError> {
    let oracle = CountingOracle::new(oracle);
    let cache_before = oracle.cache_stats().unwrap_or_default();
    let mut lp_evals: u64 = 0;
    // ---- Step 1: stage-constrained baseline. While the program overflows
    // the pipeline, move switch NFs down to the server, cheapest first —
    // but only demotions that actually reduce the required stages (a tiny
    // classifier table shares a stage with others, so pulling it down
    // frees nothing). If no single demotion helps, take the cheapest
    // anyway so the loop always makes progress.
    let mut assignment = crate::baselines::hw_preferred_assignment(problem);
    let mut stages = loop {
        match oracle.check(problem, &assignment) {
            StageVerdict::Fits { stages } => break stages,
            StageVerdict::OutOfStages {
                required,
                available,
            } => {
                let candidates = demotion_candidates(problem, &assignment);
                if candidates.is_empty() {
                    return Err(PlacementError::OutOfStages {
                        required,
                        available,
                    });
                }
                let mut applied = false;
                for &(ci, id, server) in &candidates {
                    let mut trial = assignment.clone();
                    trial[ci].insert(id, Platform::Server(server));
                    let better = match oracle.check(problem, &trial) {
                        StageVerdict::Fits { .. } => true,
                        StageVerdict::OutOfStages { required: r, .. } => r < required,
                    };
                    if better {
                        assignment = trial;
                        applied = true;
                        break;
                    }
                }
                if !applied {
                    // No single demotion reduces stage pressure (e.g. an
                    // odd NAT count where the packer re-balances): demote
                    // the cheapest NF among those with the *largest* stage
                    // footprint, so progress heads toward fitting.
                    let (ci, id, server) = *candidates
                        .iter()
                        .max_by_key(|(ci, id, _)| {
                            crate::oracle::model_stage_cost(
                                problem.chains[*ci].graph.node(*id).kind,
                            )
                        })
                        .unwrap();
                    assignment[ci].insert(id, Platform::Server(server));
                }
            }
        }
    };

    // ---- Step 2: coalescing candidates, plus SmartNIC offload variants
    // when NICs are present (§5.3: "Lemur is able to achieve higher
    // aggregate throughput … by offloading ChaCha to the SmartNIC").
    // Coalescing decisions interact across chains through the shared core
    // budget, so besides the uniform aggressive/conservative placements we
    // generate per-chain mixes: each chain's coalescing applied alone.
    let baseline = assignment.clone();
    let aggressive = coalesce(problem, &baseline, CoalesceRule::Aggressive);
    let conservative = coalesce(problem, &baseline, CoalesceRule::Conservative);
    let nic_offloads = nic_offload_candidates(problem, &baseline);
    let mut mixes: Vec<Assignment> = Vec::new();
    for ci in 0..problem.chains.len() {
        let mut only_this = baseline.clone();
        only_this[ci] = aggressive[ci].clone();
        mixes.push(only_this);
        let mut all_but_this = aggressive.clone();
        all_but_this[ci] = baseline[ci].clone();
        mixes.push(all_but_this);
    }

    // ---- Step 3: evaluate and pick the max-marginal feasible candidate.
    // If every candidate violates a latency SLO, trade bounces for rate:
    // fully coalesce the violating chains onto the server (fewest bounces)
    // and retry — the §5.3 latency experiment's behaviour ("Lemur is
    // forced to reduce the number of bounces and can only achieve" a lower
    // rate under a tight d_max).
    let mut candidates = vec![baseline.clone(), aggressive, conservative];
    candidates.extend(mixes);
    candidates.extend(nic_offloads);
    let latencies = problem.latencies_ns(&baseline);
    let violating: Vec<usize> = problem
        .chains
        .iter()
        .enumerate()
        .filter(|(ci, c)| {
            c.slo
                .and_then(|s| s.d_max_ns)
                .map(|d| latencies[*ci] > d)
                .unwrap_or(false)
        })
        .map(|(ci, _)| ci)
        .collect();
    if !violating.is_empty() {
        let sw = crate::baselines::sw_preferred_assignment(problem);
        let mut low_bounce = baseline.clone();
        for ci in violating {
            low_bounce[ci] = sw[ci].clone();
        }
        candidates.push(low_bounce);
    }

    let mut best: Option<EvaluatedPlacement> = None;
    let mut last_err = PlacementError::Infeasible("no heuristic candidate feasible".into());
    lp_evals += candidates.len() as u64;
    for cand in &candidates {
        match problem.evaluate(cand, strategy) {
            Ok(out) => {
                if best
                    .as_ref()
                    .map(|b| out.marginal_bps > b.marginal_bps + 1e-6)
                    .unwrap_or(true)
                {
                    best = Some(out);
                }
            }
            Err(e) => last_err = e,
        }
    }

    // ---- Step 2b: single-offload hill climbing. "We can offload each
    // PISA switch NF (or combinations thereof) to the server to see if
    // these result in higher marginal throughputs" (§3.2) — starting from
    // the best candidate (or the baseline when nothing was feasible yet),
    // repeatedly apply the single demotion the LP scores highest. Only
    // ever removes NFs from the switch, so the stage guarantee holds.
    let mut current = best
        .as_ref()
        .map(|b| b.assignment.clone())
        .unwrap_or_else(|| baseline.clone());
    for _round in 0..24 {
        let mut improved = false;
        let current_score = best
            .as_ref()
            .map(|b| b.marginal_bps)
            .unwrap_or(f64::NEG_INFINITY);
        let mut round_best: Option<(Assignment, EvaluatedPlacement)> = None;
        let demotions = demotion_candidates(problem, &current);
        lp_evals += demotions.len() as u64;
        for &(ci, id, server) in &demotions {
            let mut trial = current.clone();
            trial[ci].insert(id, Platform::Server(server));
            if let Ok(out) = problem.evaluate(&trial, strategy) {
                let better_than_round = round_best
                    .as_ref()
                    .map(|(_, b)| out.marginal_bps > b.marginal_bps + 1e-6)
                    .unwrap_or(true);
                if out.marginal_bps > current_score + 1e-6 && better_than_round {
                    round_best = Some((trial, out));
                }
            }
        }
        if let Some((trial, out)) = round_best {
            current = trial;
            best = Some(out);
            improved = true;
        }
        if !improved {
            break;
        }
    }

    match best {
        Some(mut out) => {
            // Re-query the oracle for the final stage count (candidates
            // only removed switch NFs, so the placement still fits).
            if let StageVerdict::Fits { stages: s } = oracle.check(problem, &out.assignment) {
                stages = s;
            }
            out.stages_used = Some(stages);
            let cache = oracle
                .cache_stats()
                .unwrap_or_default()
                .since(&cache_before);
            out.telemetry = Some(SearchTelemetry {
                oracle_calls: oracle.calls(),
                cache_hits: cache.hits,
                cache_misses: cache.misses,
                lp_evals,
                // The heuristic fully evaluates every candidate it
                // generates; nothing is dropped pre-evaluation.
                pruned_candidates: 0,
            });
            Ok(out)
        }
        None => Err(last_err),
    }
}

/// SmartNIC offload variants: for each NIC, move every server-resident NF
/// with an eBPF implementation and a substantial cycle cost onto it. Cheap
/// NFs are not worth the extra link traversal.
fn nic_offload_candidates(problem: &PlacementProblem, baseline: &Assignment) -> Vec<Assignment> {
    const WORTH_OFFLOADING_CYCLES: f64 = 1_000.0;
    let mut out = Vec::new();
    for (ni, _nic) in problem.topology.smartnics.iter().enumerate() {
        let mut cand = baseline.clone();
        let mut moved = false;
        for (ci, chain) in problem.chains.iter().enumerate() {
            for (id, node) in chain.graph.nodes() {
                if !matches!(cand[ci].get(&id), Some(Platform::Server(_))) {
                    continue;
                }
                if !problem
                    .profiles
                    .capabilities(node.kind)
                    .contains(&PlatformClass::SmartNic)
                {
                    continue;
                }
                if problem.profiles.server_cycles(node.kind, &node.params) < WORTH_OFFLOADING_CYCLES
                {
                    continue;
                }
                cand[ci].insert(id, Platform::SmartNic(ni));
                moved = true;
            }
        }
        if moved {
            out.push(cand);
        }
    }
    out
}

/// Switch NFs that could move down to a server, ordered by ascending cycle
/// cost ("it is always better to remove the low-cost NF", §3.2).
fn demotion_candidates(
    problem: &PlacementProblem,
    assignment: &Assignment,
) -> Vec<(usize, NodeId, usize)> {
    let mut out: Vec<(usize, NodeId, f64, usize)> = Vec::new();
    for (ci, chain) in problem.chains.iter().enumerate() {
        // Reuse the chain's existing server, if any, else server 0.
        let server = assignment[ci]
            .values()
            .find_map(|p| match p {
                Platform::Server(s) => Some(*s),
                _ => None,
            })
            .unwrap_or(0);
        for (id, node) in chain.graph.nodes() {
            if assignment[ci].get(&id) != Some(&Platform::Pisa) {
                continue;
            }
            if !problem
                .profiles
                .capabilities(node.kind)
                .contains(&PlatformClass::Server)
            {
                continue; // e.g. the artificially P4-only IPv4Fwd
            }
            let cycles = problem.profiles.server_cycles(node.kind, &node.params);
            out.push((ci, id, cycles, server));
        }
    }
    out.sort_by(|a, b| a.2.total_cmp(&b.2));
    out.into_iter().map(|(ci, id, _, s)| (ci, id, s)).collect()
}

/// Coalescing pass: for each switch NF flanked by server NFs in some
/// linear path (the `{A->B} -> C_p4 -> {D->E}` shape), decide whether to
/// pull it down. *Strict* merges always apply; the rule parameter governs
/// the remaining opportunities.
fn coalesce(problem: &PlacementProblem, baseline: &Assignment, rule: CoalesceRule) -> Assignment {
    let mut assignment = baseline.clone();
    for (ci, chain) in problem.chains.iter().enumerate() {
        let g = &chain.graph;
        let cyc = |id: NodeId| {
            let n = g.node(id);
            problem.profiles.server_cycles(n.kind, &n.params)
        };
        for lc in g.decompose() {
            // Maximal runs of switch NFs flanked by same-server NFs:
            // "offload each PISA switch NF (or combinations thereof)".
            let mut w = 1usize;
            while w + 1 < lc.nodes.len() {
                if assignment[ci].get(&lc.nodes[w]) != Some(&Platform::Pisa) {
                    w += 1;
                    continue;
                }
                // Extend the run of switch NFs.
                let start = w;
                let mut end = w;
                while end + 1 < lc.nodes.len()
                    && assignment[ci].get(&lc.nodes[end]) == Some(&Platform::Pisa)
                {
                    end += 1;
                }
                // end now points at the first non-Pisa (or last) node.
                let run: Vec<NodeId> = lc.nodes[start..end].to_vec();
                w = end + 1;
                if run.is_empty() {
                    continue;
                }
                // Every NF in the run must have a server implementation.
                if !run.iter().all(|id| {
                    problem
                        .profiles
                        .capabilities(g.node(*id).kind)
                        .contains(&PlatformClass::Server)
                }) {
                    continue;
                }
                let (Some(Platform::Server(sa)), Some(Platform::Server(sb))) = (
                    assignment[ci].get(&lc.nodes[start - 1]),
                    assignment[ci].get(&lc.nodes[end]),
                ) else {
                    continue;
                };
                if sa != sb {
                    continue;
                }
                let server = *sa;
                // Cycle costs of the flanking subgroups and the merged run.
                let ca = cyc(lc.nodes[start - 1]) + NSH_OVERHEAD_CYCLES;
                let cb = cyc(lc.nodes[end]) + NSH_OVERHEAD_CYCLES;
                let run_cycles: f64 = run.iter().map(|id| cyc(*id)).sum();
                let cm = cyc(lc.nodes[start - 1])
                    + run_cycles
                    + cyc(lc.nodes[end])
                    + NSH_OVERHEAD_CYCLES;
                // Strict rule: 2 cores on the merged group vs 1+1 separate.
                let merged_2core = 2.0 / (cm + REPLICATION_OVERHEAD_CYCLES);
                let separate_1each = (1.0 / ca).min(1.0 / cb);
                let strict_wins = merged_2core > separate_1each;
                let apply = match rule {
                    CoalesceRule::Aggressive => {
                        // Merge whenever t_min stays satisfiable.
                        strict_wins || {
                            let mut trial = assignment.clone();
                            for id in &run {
                                trial[ci].insert(*id, Platform::Server(server));
                            }
                            t_min_satisfiable(problem, &trial)
                        }
                    }
                    CoalesceRule::Conservative => {
                        // Merge only if the chain's rate does not decrease
                        // (merged group may take 2 cores).
                        strict_wins || merged_2core >= separate_1each * (1.0 - 1e-9)
                    }
                };
                if apply {
                    for id in &run {
                        assignment[ci].insert(*id, Platform::Server(server));
                    }
                }
            }
        }
    }
    assignment
}

/// Quick feasibility probe: can water-filling reach every `t_min`?
fn t_min_satisfiable(problem: &PlacementProblem, assignment: &Assignment) -> bool {
    if problem.check_capabilities(assignment).is_err() {
        return false;
    }
    let mut sgs = problem.form_subgroups(assignment);
    crate::corealloc::allocate(problem, &mut sgs, CoreStrategy::WaterFill).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{optimal, BruteConfig};
    use crate::oracle::{AlwaysFits, ModelOracle};
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
    fn heuristic_feasible_across_deltas_chain3() {
        for delta in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0] {
            let p = problem(&[CanonicalChain::Chain3], delta);
            let out = place(&p, &AlwaysFits).unwrap_or_else(|e| panic!("δ={delta}: {e}"));
            let t_min = p.chains[0].slo.unwrap().t_min_bps;
            assert!(
                out.chain_rates_bps[0] + 1.0 >= t_min,
                "δ={delta}: {} < {}",
                out.chain_rates_bps[0],
                t_min
            );
        }
    }

    #[test]
    fn heuristic_matches_optimal_on_small_cases() {
        for which in [&[CanonicalChain::Chain3][..], &[CanonicalChain::Chain2]] {
            for delta in [0.5, 1.0, 1.5] {
                let p = problem(which, delta);
                let h = place(&p, &AlwaysFits).unwrap();
                let o = optimal(&p, &AlwaysFits, BruteConfig::default()).unwrap();
                let gap = (o.marginal_bps - h.marginal_bps) / o.marginal_bps.max(1.0);
                assert!(
                    gap < 0.05,
                    "δ={delta} {which:?}: heuristic {:.3}G vs optimal {:.3}G",
                    h.marginal_bps / 1e9,
                    o.marginal_bps / 1e9
                );
            }
        }
    }

    #[test]
    fn heuristic_respects_stage_oracle() {
        // A tight oracle forces demotions; the heuristic must still find a
        // feasible placement with few switch NFs.
        let p = problem(&[CanonicalChain::Chain2], 0.5);
        let tight = ModelOracle {
            overhead_stages: 3,
            available: 6,
        };
        let out = place(&p, &tight).unwrap();
        assert!(out.stages_used.unwrap() <= 6);
    }

    #[test]
    fn heuristic_never_places_unimplementable_nf_on_switch() {
        let p = problem(&[CanonicalChain::Chain5], 0.5);
        let out = place(&p, &AlwaysFits).unwrap();
        for (ci, chain) in p.chains.iter().enumerate() {
            for (id, n) in chain.graph.nodes() {
                if out.assignment[ci][&id] == Platform::Pisa {
                    assert!(
                        crate::profiles::capabilities(n.kind).contains(&PlatformClass::Pisa),
                        "{} illegally on switch",
                        n.name
                    );
                }
            }
        }
    }

    #[test]
    fn four_chain_configuration_places() {
        let p = problem(
            &[
                CanonicalChain::Chain1,
                CanonicalChain::Chain2,
                CanonicalChain::Chain3,
                CanonicalChain::Chain4,
            ],
            0.5,
        );
        let out = place(&p, &AlwaysFits).unwrap();
        assert_eq!(out.chain_rates_bps.len(), 4);
        for (i, r) in out.chain_rates_bps.iter().enumerate() {
            assert!(*r + 1.0 >= p.chains[i].slo.unwrap().t_min_bps, "chain {i}");
        }
    }

    #[test]
    fn heuristic_beats_sw_preferred_at_high_delta() {
        let p = problem(&[CanonicalChain::Chain3], 2.0);
        assert!(crate::baselines::sw_preferred(&p, &AlwaysFits).is_err());
        assert!(place(&p, &AlwaysFits).is_ok());
    }
}
