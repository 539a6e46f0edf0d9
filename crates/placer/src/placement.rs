//! Placement representation and evaluation.
//!
//! An [`Assignment`] maps every NF node of every chain onto a platform.
//! [`PlacementProblem::evaluate`] turns an assignment into predicted chain
//! rates by forming run-to-completion subgroups, allocating cores, solving
//! the marginal-throughput LP under link constraints, and checking latency
//! SLOs — exactly the §3.2 pipeline.

use crate::corealloc::{self, CoreStrategy};
use crate::profiles::{is_replicable, NfProfiles, Platform};
use crate::topology::{Topology, Tor};
use crate::{NSH_OVERHEAD_CYCLES, PACKET_BITS, REPLICATION_OVERHEAD_CYCLES};
use lemur_core::graph::{ChainSpec, NodeId};
use lemur_lp::{Problem, Relation};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Per-bounce latency between the ToR and a server/NIC, in nanoseconds.
/// Dominated by DPDK RX/TX batching and switch/NIC queueing under load
/// (the paper names "DPDK and switch queueing, and encap/decap overheads"
/// as its latency sources); 8 µs per traversal is a loaded-system figure.
pub const BOUNCE_LATENCY_NS: f64 = 8_000.0;

/// Platform assignment for every node of every chain.
///
/// A `BTreeMap` (not `HashMap`) on purpose: candidate generation, ranking,
/// and subsampling iterate assignments, and re-runs of a search must be
/// bit-identical — ordered iteration (and ordered `Debug` output) makes
/// ties rank identically everywhere.
pub type Assignment = Vec<BTreeMap<NodeId, Platform>>;

/// Why a placement is infeasible.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// A chain's NF graph failed validation (see
    /// [`PlacementProblem::try_new`]).
    InvalidChain { chain: usize, reason: String },
    /// An NF was assigned to a platform it has no implementation for.
    NoCapability {
        chain: usize,
        node: String,
        platform: Platform,
    },
    /// Not enough cores / rate to satisfy every `t_min`.
    Infeasible(String),
    /// A latency SLO cannot be met.
    LatencyViolation {
        chain: usize,
        latency_ns: f64,
        d_max_ns: f64,
    },
    /// The stage oracle rejected the switch program.
    OutOfStages { required: usize, available: usize },
    /// An OpenFlow table-order violation.
    TableOrder { chain: usize },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::InvalidChain { chain, reason } => {
                write!(f, "chain {chain}: invalid NF graph: {reason}")
            }
            PlacementError::NoCapability {
                chain,
                node,
                platform,
            } => {
                write!(f, "chain {chain}: {node} cannot run on {platform:?}")
            }
            PlacementError::Infeasible(msg) => write!(f, "infeasible: {msg}"),
            PlacementError::LatencyViolation {
                chain,
                latency_ns,
                d_max_ns,
            } => write!(
                f,
                "chain {chain}: latency {:.1}us exceeds d_max {:.1}us",
                latency_ns / 1e3,
                d_max_ns / 1e3
            ),
            PlacementError::OutOfStages {
                required,
                available,
            } => {
                write!(f, "switch needs {required} stages, has {available}")
            }
            PlacementError::TableOrder { chain } => {
                write!(f, "chain {chain}: violates OpenFlow table order")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// One run-to-completion subgroup in a placement plan.
#[derive(Debug, Clone)]
pub struct SubgroupPlan {
    pub chain: usize,
    pub server: usize,
    /// Member nodes in chain order.
    pub nodes: Vec<NodeId>,
    /// Worst-case cycles/packet, including NSH decap/encap overhead.
    pub cycles: f64,
    /// Fraction of the chain's traffic passing through this subgroup.
    pub fraction: f64,
    /// False for subgroups holding stateful or branch/merge NFs (§3.2).
    pub replicable: bool,
    /// Allocated cores (≥ 1).
    pub cores: usize,
}

impl SubgroupPlan {
    /// Subgroup capacity in chain-rate bits/second for its allocation on a
    /// server with the given clock: `cores · clock/cycles · packet_bits /
    /// fraction` (the chain rate at which this subgroup saturates).
    pub fn chain_rate_capacity_bps(&self, clock_hz: f64) -> f64 {
        let mut cycles = self.cycles;
        if self.cores > 1 {
            cycles += REPLICATION_OVERHEAD_CYCLES;
        }
        let pps = self.cores as f64 * clock_hz / cycles;
        pps * PACKET_BITS / self.fraction.max(1e-12)
    }
}

/// An NF placed on a SmartNIC.
#[derive(Debug, Clone)]
pub struct NicNfPlan {
    pub chain: usize,
    pub node: NodeId,
    pub nic: usize,
    pub cycles: f64,
    pub fraction: f64,
}

/// Deterministic counters from a placement search. Every field is a pure
/// function of the search inputs — *never* of wall time or scheduling — so
/// telemetry compares bit-identically run to run (wall-clock timings live
/// in the bench harness, not here).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchTelemetry {
    /// Stage-oracle invocations (compiler calls when the oracle is the
    /// real metacompiler) made by the search.
    pub oracle_calls: u64,
    /// Memoized-oracle cache hits during the search (0 for uncached
    /// oracles).
    pub cache_hits: u64,
    /// Memoized-oracle cache misses — actual compiles — during the search.
    pub cache_misses: u64,
    /// Full LP evaluations ([`PlacementProblem::evaluate`]) performed.
    pub lp_evals: u64,
    /// Candidates generated but dropped before full evaluation (beam
    /// truncation, candidate-list caps, infeasible quick scores).
    pub pruned_candidates: u64,
}

/// A fully evaluated placement.
#[derive(Debug, Clone)]
pub struct EvaluatedPlacement {
    pub assignment: Assignment,
    pub subgroups: Vec<SubgroupPlan>,
    pub nic_nfs: Vec<NicNfPlan>,
    /// Predicted (LP-optimal) rate per chain, bits/second.
    pub chain_rates_bps: Vec<f64>,
    /// Σ chain rates.
    pub aggregate_bps: f64,
    /// Σ (rate − t_min) — the objective.
    pub marginal_bps: f64,
    /// Bounce count per chain (weighted-average server/NIC visits × 2).
    pub bounces: Vec<f64>,
    /// Worst-path latency per chain (ns).
    pub latency_ns: Vec<f64>,
    /// Stage usage if the stage oracle ran.
    pub stages_used: Option<usize>,
    /// Search accounting, if a search (not a bare `evaluate`) produced
    /// this placement.
    pub telemetry: Option<SearchTelemetry>,
}

/// The placement problem: chains + topology + profiles.
#[derive(Debug, Clone)]
pub struct PlacementProblem {
    pub chains: Vec<ChainSpec>,
    pub topology: Topology,
    pub profiles: NfProfiles,
}

impl PlacementProblem {
    /// Create a problem. Panics if a chain graph fails validation; use
    /// [`PlacementProblem::try_new`] to get the error instead.
    pub fn new(chains: Vec<ChainSpec>, topology: Topology, profiles: NfProfiles) -> Self {
        Self::try_new(chains, topology, profiles)
            .unwrap_or_else(|e| panic!("chain graph must validate: {e}"))
    }

    /// Create a problem, surfacing chain-graph validation failures as a
    /// typed [`PlacementError::InvalidChain`].
    pub fn try_new(
        chains: Vec<ChainSpec>,
        topology: Topology,
        profiles: NfProfiles,
    ) -> Result<Self, PlacementError> {
        for (i, c) in chains.iter().enumerate() {
            c.graph
                .validate()
                .map_err(|e| PlacementError::InvalidChain {
                    chain: i,
                    reason: e.to_string(),
                })?;
        }
        Ok(PlacementProblem {
            chains,
            topology,
            profiles,
        })
    }

    /// Traffic fraction through each node of a chain.
    pub fn node_fractions(&self, chain: usize) -> HashMap<NodeId, f64> {
        let mut f: HashMap<NodeId, f64> = HashMap::new();
        for lc in self.chains[chain].graph.decompose() {
            for n in &lc.nodes {
                *f.entry(*n).or_insert(0.0) += lc.weight;
            }
        }
        f
    }

    /// The chain's *base rate* (§5.1): the rate with one core on the
    /// slowest software NF. Used to derive the δ-scaled `t_min` sweeps.
    pub fn base_rate_bps(&self, chain: usize) -> f64 {
        let clock = self.topology.servers[0].clock_hz;
        let fractions = self.node_fractions(chain);
        self.chains[chain]
            .graph
            .nodes()
            .filter(|(_, n)| {
                self.profiles
                    .capabilities(n.kind)
                    .contains(&crate::profiles::PlatformClass::Server)
            })
            .map(|(id, n)| {
                let cycles = self.profiles.server_cycles(n.kind, &n.params) + NSH_OVERHEAD_CYCLES;
                let pps = clock / cycles;
                pps * PACKET_BITS / fractions.get(&id).copied().unwrap_or(1.0).max(1e-12)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Check assignment capabilities (every node on a platform with an
    /// implementation that exists in this topology).
    pub fn check_capabilities(&self, assignment: &Assignment) -> Result<(), PlacementError> {
        for (ci, chain) in self.chains.iter().enumerate() {
            for (id, node) in chain.graph.nodes() {
                let Some(platform) = assignment[ci].get(&id) else {
                    return Err(PlacementError::Infeasible(format!(
                        "chain {ci}: node {} unassigned",
                        node.name
                    )));
                };
                let ok = self
                    .profiles
                    .capabilities(node.kind)
                    .contains(&platform.class())
                    && match platform {
                        Platform::Pisa => self.topology.has_pisa(),
                        Platform::OpenFlow => matches!(self.topology.tor, Tor::OpenFlow { .. }),
                        Platform::Server(s) => *s < self.topology.servers.len(),
                        Platform::SmartNic(n) => *n < self.topology.smartnics.len(),
                    };
                if !ok {
                    return Err(PlacementError::NoCapability {
                        chain: ci,
                        node: node.name.clone(),
                        platform: *platform,
                    });
                }
            }
        }
        Ok(())
    }

    /// Form run-to-completion subgroups for an assignment: consecutive
    /// same-server nodes joined across purely linear edges (§3.2).
    pub fn form_subgroups(&self, assignment: &Assignment) -> Vec<SubgroupPlan> {
        let mut out = Vec::new();
        for (ci, chain) in self.chains.iter().enumerate() {
            let fractions = self.node_fractions(ci);
            let g = &chain.graph;
            let order = g.topo_order().expect("validated");
            // Union-find over nodes.
            let n = g.num_nodes();
            let mut parent: Vec<usize> = (0..n).collect();
            fn find(p: &mut Vec<usize>, x: usize) -> usize {
                if p[x] != x {
                    let r = find(p, p[x]);
                    p[x] = r;
                }
                p[x]
            }
            for e in g.edges() {
                let pf = assignment[ci].get(&e.from);
                let pt = assignment[ci].get(&e.to);
                if let (Some(Platform::Server(a)), Some(Platform::Server(b))) = (pf, pt) {
                    if a == b && g.out_edges(e.from).len() == 1 && g.in_degree(e.to) == 1 {
                        let ra = find(&mut parent, e.from.0);
                        let rb = find(&mut parent, e.to.0);
                        parent[ra] = rb;
                    }
                }
            }
            // Collect groups in topo order.
            let mut groups: HashMap<usize, Vec<NodeId>> = HashMap::new();
            for id in &order {
                if let Some(Platform::Server(_)) = assignment[ci].get(id) {
                    let root = find(&mut parent, id.0);
                    groups.entry(root).or_default().push(*id);
                }
            }
            let mut roots: Vec<usize> = groups.keys().copied().collect();
            roots.sort_by_key(|r| groups[r][0].0);
            for root in roots {
                let nodes = groups.remove(&root).unwrap();
                let Platform::Server(server) = assignment[ci][&nodes[0]] else {
                    unreachable!()
                };
                let cycles: f64 = nodes
                    .iter()
                    .map(|id| {
                        let node = g.node(*id);
                        self.profiles.server_cycles(node.kind, &node.params)
                    })
                    .sum::<f64>()
                    + NSH_OVERHEAD_CYCLES;
                let replicable = nodes.iter().all(|id| {
                    let node = g.node(*id);
                    is_replicable(node.kind) && !g.is_branch(*id) && !g.is_merge(*id)
                });
                let fraction = fractions.get(&nodes[0]).copied().unwrap_or(1.0);
                out.push(SubgroupPlan {
                    chain: ci,
                    server,
                    nodes,
                    cycles,
                    fraction,
                    replicable,
                    cores: 1,
                });
            }
        }
        out
    }

    /// Per-chain, per-server weighted visit counts (maximal server
    /// segments per decomposed path × path weight). One visit = one
    /// NIC-link crossing per direction.
    pub fn server_visits(&self, assignment: &Assignment) -> Vec<HashMap<usize, f64>> {
        let mut out = Vec::with_capacity(self.chains.len());
        for (ci, chain) in self.chains.iter().enumerate() {
            let mut visits: HashMap<usize, f64> = HashMap::new();
            for lc in chain.graph.decompose() {
                let mut prev: Option<usize> = None;
                for id in &lc.nodes {
                    let here = match assignment[ci].get(id) {
                        Some(Platform::Server(s)) => Some(*s),
                        _ => None,
                    };
                    if let Some(s) = here {
                        if prev != Some(s) {
                            *visits.entry(s).or_insert(0.0) += lc.weight;
                        }
                    }
                    prev = here;
                }
            }
            out.push(visits);
        }
        out
    }

    /// Weighted bounce count per chain: total platform transitions along
    /// decomposed paths (ToR↔server, ToR↔NIC).
    pub fn bounce_counts(&self, assignment: &Assignment) -> Vec<f64> {
        self.chains
            .iter()
            .enumerate()
            .map(|(ci, chain)| {
                let mut bounces = 0.0;
                for lc in chain.graph.decompose() {
                    // Traffic starts and ends at the ToR.
                    let mut prev = LocKind::Tor;
                    let mut count = 0usize;
                    for id in &lc.nodes {
                        let here = loc_of(assignment[ci].get(id));
                        if here != prev {
                            count += 1;
                        }
                        prev = here;
                    }
                    if prev != LocKind::Tor {
                        count += 1; // return to ToR for egress
                    }
                    bounces += lc.weight * count as f64;
                }
                bounces
            })
            .collect()
    }

    /// Worst-path latency per chain for an assignment (ns).
    pub fn latencies_ns(&self, assignment: &Assignment) -> Vec<f64> {
        let switch_latency = match &self.topology.tor {
            Tor::Pisa(m) => m.pipeline_latency_ns(m.num_stages),
            Tor::OpenFlow { .. } => 1_000.0,
        };
        self.chains
            .iter()
            .enumerate()
            .map(|(ci, chain)| {
                let clock = self.topology.servers[0].clock_hz;
                chain
                    .graph
                    .decompose()
                    .iter()
                    .map(|lc| {
                        let mut ns = switch_latency;
                        let mut prev = LocKind::Tor;
                        for id in &lc.nodes {
                            let node = chain.graph.node(*id);
                            let here = loc_of(assignment[ci].get(id));
                            if here != prev {
                                ns += BOUNCE_LATENCY_NS;
                            }
                            match here {
                                LocKind::Server(_) => {
                                    ns += self.profiles.server_cycles(node.kind, &node.params)
                                        / clock
                                        * 1e9;
                                }
                                LocKind::Nic(_) => {
                                    let cycles = self
                                        .profiles
                                        .smartnic_cycles(node.kind, &node.params)
                                        .unwrap_or(1000.0);
                                    let nic_clock = self
                                        .topology
                                        .smartnics
                                        .first()
                                        .map(|n| n.clock_hz)
                                        .unwrap_or(clock);
                                    ns += cycles / nic_clock * 1e9;
                                }
                                LocKind::Tor => {}
                            }
                            prev = here;
                        }
                        if prev != LocKind::Tor {
                            ns += BOUNCE_LATENCY_NS;
                        }
                        ns
                    })
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    /// Evaluate an assignment: subgroup formation, core allocation with
    /// `strategy`, the rate LP, and the latency check. Does NOT run the
    /// stage oracle — algorithms call that themselves so they can control
    /// how often the (expensive) compiler is invoked; they account for
    /// those calls via [`crate::oracle::CountingOracle`] and report them
    /// in [`SearchTelemetry::oracle_calls`].
    pub fn evaluate(
        &self,
        assignment: &Assignment,
        strategy: CoreStrategy,
    ) -> Result<EvaluatedPlacement, PlacementError> {
        self.evaluate_inner(assignment, Alloc::Strategy(strategy))
    }

    /// Re-evaluate an assignment with a *fixed* per-subgroup core vector
    /// (aligned with [`PlacementProblem::form_subgroups`] order). Used by
    /// the No-Profiling ablation: placement and cores were decided under
    /// wrong profiles; rates are recomputed under the true ones.
    pub fn evaluate_with_cores(
        &self,
        assignment: &Assignment,
        cores: &[usize],
    ) -> Result<EvaluatedPlacement, PlacementError> {
        self.evaluate_inner(assignment, Alloc::Fixed(cores))
    }

    fn evaluate_inner(
        &self,
        assignment: &Assignment,
        alloc: Alloc<'_>,
    ) -> Result<EvaluatedPlacement, PlacementError> {
        self.check_capabilities(assignment)?;

        // OpenFlow table-order validation (§5.3).
        if matches!(self.topology.tor, Tor::OpenFlow { .. }) {
            for (ci, chain) in self.chains.iter().enumerate() {
                for lc in chain.graph.decompose() {
                    let seq: Vec<_> = lc
                        .nodes
                        .iter()
                        .filter(|id| matches!(assignment[ci].get(id), Some(Platform::OpenFlow)))
                        .filter_map(|id| of_kind(chain.graph.node(*id).kind))
                        .collect();
                    if !lemur_openflow::validate_nf_order(&seq) {
                        return Err(PlacementError::TableOrder { chain: ci });
                    }
                }
            }
        }

        let mut subgroups = self.form_subgroups(assignment);

        // SmartNIC NFs.
        let mut nic_nfs = Vec::new();
        for (ci, chain) in self.chains.iter().enumerate() {
            let fractions = self.node_fractions(ci);
            for (id, node) in chain.graph.nodes() {
                if let Some(Platform::SmartNic(nic)) = assignment[ci].get(&id) {
                    let cycles = self
                        .profiles
                        .smartnic_cycles(node.kind, &node.params)
                        .ok_or_else(|| PlacementError::NoCapability {
                            chain: ci,
                            node: node.name.clone(),
                            platform: Platform::SmartNic(*nic),
                        })?;
                    nic_nfs.push(NicNfPlan {
                        chain: ci,
                        node: id,
                        nic: *nic,
                        cycles,
                        fraction: fractions.get(&id).copied().unwrap_or(1.0),
                    });
                }
            }
        }

        // Core allocation.
        match alloc {
            Alloc::Strategy(strategy) => corealloc::allocate(self, &mut subgroups, strategy)?,
            Alloc::Fixed(cores) => {
                if cores.len() != subgroups.len() {
                    return Err(PlacementError::Infeasible(
                        "fixed core vector length mismatch".to_string(),
                    ));
                }
                for (sg, k) in subgroups.iter_mut().zip(cores) {
                    sg.cores = (*k).max(1);
                }
            }
        }

        // Latency check (before the LP: latency is rate-independent here).
        let latency_ns = self.latencies_ns(assignment);
        for (ci, chain) in self.chains.iter().enumerate() {
            if let Some(slo) = &chain.slo {
                if let Some(d_max) = slo.d_max_ns {
                    if latency_ns[ci] > d_max {
                        return Err(PlacementError::LatencyViolation {
                            chain: ci,
                            latency_ns: latency_ns[ci],
                            d_max_ns: d_max,
                        });
                    }
                }
            }
        }

        // The marginal-throughput LP.
        let visits = self.server_visits(assignment);
        let tor_rate = match &self.topology.tor {
            Tor::Pisa(m) => m.port_rate_bps,
            Tor::OpenFlow { rate_bps } => *rate_bps,
        };
        let mut lp = Problem::new();
        let mut vars = Vec::new();
        for (ci, chain) in self.chains.iter().enumerate() {
            let slo = chain.slo.unwrap_or(lemur_core::Slo::bulk());
            let hi = slo.t_max_bps.min(tor_rate);
            if slo.t_min_bps > hi {
                return Err(PlacementError::Infeasible(format!(
                    "chain {ci}: t_min above port rate"
                )));
            }
            vars.push(lp.add_var(&format!("r{ci}"), slo.t_min_bps, hi, 1.0));
        }
        let clock0 = |s: usize| self.topology.servers[s].clock_hz;
        for sg in &subgroups {
            let cap = sg.chain_rate_capacity_bps(clock0(sg.server));
            lp.add_constraint(&[(vars[sg.chain], 1.0)], Relation::Le, cap);
        }
        // NIC-link constraints (per server, per direction).
        for s in 0..self.topology.servers.len() {
            let terms: Vec<_> = (0..self.chains.len())
                .filter_map(|ci| visits[ci].get(&s).map(|v| (vars[ci], *v)))
                .filter(|(_, v)| *v > 0.0)
                .collect();
            if !terms.is_empty() {
                lp.add_constraint(&terms, Relation::Le, self.topology.server_link_bps(s));
            }
        }
        // SmartNIC compute and port constraints.
        for (ni, nic) in self.topology.smartnics.iter().enumerate() {
            let compute_terms: Vec<_> = nic_nfs
                .iter()
                .filter(|n| n.nic == ni)
                .map(|n| (vars[n.chain], n.fraction * n.cycles / PACKET_BITS))
                .collect();
            if !compute_terms.is_empty() {
                lp.add_constraint(&compute_terms, Relation::Le, nic.clock_hz);
                let port_terms: Vec<_> = nic_nfs
                    .iter()
                    .filter(|n| n.nic == ni)
                    .map(|n| (vars[n.chain], n.fraction))
                    .collect();
                lp.add_constraint(&port_terms, Relation::Le, nic.rate_bps);
            }
        }
        let sol = lp
            .solve()
            .map_err(|e| PlacementError::Infeasible(format!("rate LP: {e}")))?;

        let chain_rates_bps: Vec<f64> = vars.iter().map(|v| sol.value(*v)).collect();
        let aggregate_bps: f64 = chain_rates_bps.iter().sum();
        let marginal_bps: f64 = chain_rates_bps
            .iter()
            .zip(&self.chains)
            .map(|(r, c)| r - c.slo.map(|s| s.t_min_bps).unwrap_or(0.0))
            .sum();
        Ok(EvaluatedPlacement {
            assignment: assignment.clone(),
            subgroups,
            nic_nfs,
            chain_rates_bps,
            aggregate_bps,
            marginal_bps,
            bounces: self.bounce_counts(assignment),
            latency_ns,
            stages_used: None,
            telemetry: None,
        })
    }
}

/// How cores are chosen during evaluation.
enum Alloc<'a> {
    Strategy(CoreStrategy),
    Fixed(&'a [usize]),
}

/// Coarse location for bounce counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocKind {
    Tor,
    Server(usize),
    Nic(usize),
}

fn loc_of(p: Option<&Platform>) -> LocKind {
    match p {
        Some(Platform::Server(s)) => LocKind::Server(*s),
        Some(Platform::SmartNic(n)) => LocKind::Nic(*n),
        _ => LocKind::Tor,
    }
}

fn of_kind(kind: lemur_nf::NfKind) -> Option<lemur_openflow::lemur_nf_kind::NfKind> {
    use lemur_openflow::lemur_nf_kind::NfKind as Of;
    Some(match kind {
        lemur_nf::NfKind::Detunnel => Of::Detunnel,
        lemur_nf::NfKind::Acl => Of::Acl,
        lemur_nf::NfKind::Monitor => Of::Monitor,
        lemur_nf::NfKind::Tunnel => Of::Tunnel,
        lemur_nf::NfKind::Ipv4Fwd => Of::Ipv4Fwd,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corealloc::CoreStrategy;
    use lemur_core::chains::{canonical_chain, CanonicalChain};
    use lemur_core::Slo;
    use lemur_nf::NfKind;

    fn spec(which: CanonicalChain, t_min: f64) -> ChainSpec {
        ChainSpec {
            name: format!("chain{}", which.index()),
            graph: canonical_chain(which),
            slo: Some(Slo::elastic_pipe(t_min, 100e9)),
            aggregate: None,
        }
    }

    /// All-server assignment except P4-only NFs (SW Preferred shape).
    fn sw_assignment(p: &PlacementProblem) -> Assignment {
        p.chains
            .iter()
            .map(|c| {
                c.graph
                    .nodes()
                    .map(|(id, n)| {
                        let plat = if n.kind == NfKind::Ipv4Fwd {
                            Platform::Pisa
                        } else {
                            Platform::Server(0)
                        };
                        (id, plat)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn chain3_sw_evaluation() {
        let p = PlacementProblem::new(
            vec![spec(CanonicalChain::Chain3, 1e8)],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let a = sw_assignment(&p);
        let out = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
        // Chain 3 minus IPv4Fwd is one linear run on the server: one
        // subgroup (it contains Limiter → not replicable).
        assert_eq!(out.subgroups.len(), 1);
        assert!(!out.subgroups[0].replicable);
        assert_eq!(out.subgroups[0].cores, 1);
        // Rate = clock/cycles × packet bits (fraction 1).
        let cycles = out.subgroups[0].cycles;
        let expect = 1.7e9 / cycles * PACKET_BITS;
        assert!((out.chain_rates_bps[0] - expect).abs() / expect < 1e-6);
        assert!(out.marginal_bps > 0.0);
    }

    #[test]
    fn base_rate_is_dedup_bound_for_chain3() {
        let p = PlacementProblem::new(
            vec![spec(CanonicalChain::Chain3, 0.0)],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let base = p.base_rate_bps(0);
        let expect = 1.7e9 / (30867.0 + NSH_OVERHEAD_CYCLES) * PACKET_BITS;
        assert!((base - expect).abs() / expect < 1e-9, "{base} vs {expect}");
    }

    #[test]
    fn infeasible_when_t_min_too_high() {
        // Demand 10x what one unreplicable subgroup can do.
        let p = PlacementProblem::new(
            vec![spec(CanonicalChain::Chain3, 10e9)],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let a = sw_assignment(&p);
        let err = p.evaluate(&a, CoreStrategy::WaterFill).unwrap_err();
        assert!(matches!(err, PlacementError::Infeasible(_)), "{err}");
    }

    #[test]
    fn capability_violation_detected() {
        let p = PlacementProblem::new(
            vec![spec(CanonicalChain::Chain5, 1e8)],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        // Put the UrlFilter (server-only) on the switch.
        let mut a = sw_assignment(&p);
        let url = p.chains[0]
            .graph
            .nodes()
            .find(|(_, n)| n.kind == NfKind::UrlFilter)
            .unwrap()
            .0;
        a[0].insert(url, Platform::Pisa);
        assert!(matches!(
            p.evaluate(&a, CoreStrategy::WaterFill).unwrap_err(),
            PlacementError::NoCapability { .. }
        ));
    }

    #[test]
    fn subgroup_split_by_pisa_nf() {
        // Chain 3 with ACL moved to the switch: Dedup | ACL(P4) |
        // Limiter->LB — two server subgroups.
        let p = PlacementProblem::new(
            vec![spec(CanonicalChain::Chain3, 1e8)],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        let mut a = sw_assignment(&p);
        let acl = p.chains[0]
            .graph
            .nodes()
            .find(|(_, n)| n.kind == NfKind::Acl)
            .unwrap()
            .0;
        a[0].insert(acl, Platform::Pisa);
        let out = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
        assert_eq!(out.subgroups.len(), 2);
        // Dedup-only subgroup is replicable; Limiter one is not.
        let dedup_sg = out.subgroups.iter().find(|sg| sg.nodes.len() == 1).unwrap();
        assert!(dedup_sg.replicable);
        // More bounces than the single-subgroup placement.
        assert!(out.bounces[0] >= 4.0);
    }

    #[test]
    fn latency_slo_enforced() {
        let mut chain = spec(CanonicalChain::Chain3, 1e8);
        // Dedup alone is ~18µs of compute; 5µs is unmeetable.
        chain.slo = Some(Slo::elastic_pipe(1e8, 100e9).with_latency_ns(5_000.0));
        let p = PlacementProblem::new(vec![chain], Topology::testbed(), NfProfiles::table4());
        let a = sw_assignment(&p);
        assert!(matches!(
            p.evaluate(&a, CoreStrategy::WaterFill).unwrap_err(),
            PlacementError::LatencyViolation { .. }
        ));
    }

    #[test]
    fn bounce_counting() {
        let p = PlacementProblem::new(
            vec![spec(CanonicalChain::Chain3, 1e8)],
            Topology::testbed(),
            NfProfiles::table4(),
        );
        // All server (except fwd): ToR→server→ToR = 2 bounces.
        let a = sw_assignment(&p);
        let b = p.bounce_counts(&a);
        assert!((b[0] - 2.0).abs() < 1e-9, "{b:?}");
        // ACL on switch splits the server run: 4 bounces.
        let mut a2 = a.clone();
        let acl = p.chains[0]
            .graph
            .nodes()
            .find(|(_, n)| n.kind == NfKind::Acl)
            .unwrap()
            .0;
        a2[0].insert(acl, Platform::Pisa);
        let b2 = p.bounce_counts(&a2);
        assert!((b2[0] - 4.0).abs() < 1e-9, "{b2:?}");
    }

    #[test]
    fn link_capacity_limits_rate() {
        // A cheap chain (5) bounced once should cap at the 40G NIC link.
        let mut chain = spec(CanonicalChain::Chain5, 1e8);
        chain.slo = Some(Slo::elastic_pipe(1e8, 200e9));
        let p = PlacementProblem::new(vec![chain], Topology::testbed(), NfProfiles::table4());
        let a = sw_assignment(&p);
        let out = p.evaluate(&a, CoreStrategy::WaterFill).unwrap();
        assert!(out.chain_rates_bps[0] <= 40e9 + 1.0);
    }
}
