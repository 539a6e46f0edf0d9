//! # lemur-placer
//!
//! Lemur's Placer (§3): given NF chains with SLOs and a rack topology, find
//! a placement of every NF onto {PISA switch, server cores, SmartNIC,
//! OpenFlow switch} that satisfies every chain's `t_min` (and optional
//! `d_max`) while maximizing aggregate *marginal* throughput.
//!
//! Components:
//!
//! * [`profiles`] — the Table 3 capability matrix and the cycle-cost
//!   profiles (Table 4 defaults, linear state-size models, worst-case
//!   costs, and a measured source fed by `lemur-bess`'s profiler).
//! * [`topology`] — the rack: one ToR (PISA or OpenFlow), servers,
//!   SmartNICs, link capacities.
//! * [`placement`] — assignments, run-to-completion subgroup formation,
//!   and the evaluator that turns (assignment, core allocation) into
//!   predicted chain rates via the marginal-throughput LP.
//! * [`corealloc`] — core-allocation strategies (water-filling for Lemur,
//!   sequential for Greedy, even-split for HW Preferred, none for the
//!   ablation).
//! * [`oracle`] — the [`oracle::StageOracle`] abstraction: the Placer
//!   *invokes the P4 compiler* for stage feasibility instead of estimating
//!   (§3.2); `lemur-metacompiler` provides the real implementation, and
//!   [`oracle::ModelOracle`] provides a per-NF-cost approximation for
//!   tests.
//! * [`heuristic`] — Lemur's fast 3-step heuristic (stage-constrained
//!   baseline → subgroup coalescing → LP).
//! * [`brute`] — brute-force/Optimal placement (pattern enumeration ×
//!   core allocations × LP, ranked, first fit through the stage oracle).
//! * [`baselines`] — HW Preferred, SW Preferred, Minimum Bounce, Greedy.
//! * [`ablations`] — No Profiling and No Core Allocation (§5.3, Fig. 2f).
//! * [`hierarchy`] — hierarchical fleet placement: cross-PoP chain
//!   assignment (greedy by priority, least-loaded PoP first, shed by
//!   ascending priority) over per-PoP subproblems solved by [`heuristic`].
//! * [`cache`] — memoized stage-oracle cache keyed by a canonical
//!   fingerprint of the synthesized switch program.

pub mod ablations;
pub mod baselines;
pub mod brute;
pub mod cache;
pub mod corealloc;
pub mod heuristic;
pub mod hierarchy;
pub mod oracle;
pub mod placement;
pub mod profiles;
pub mod repair;
pub mod topology;

pub use cache::{CacheStats, StageCache};
pub use hierarchy::{assign_chains, place_fleet, FleetPlacement, PopPlan};
pub use oracle::{CountingOracle, ModelOracle, StageOracle};
pub use placement::{Assignment, EvaluatedPlacement, PlacementError, PlacementProblem};
pub use profiles::{NfProfiles, Platform, ProfileSource};
pub use repair::{repair, repair_assignment, RepairMode, RepairResult};
pub use topology::{ResourceMask, SmartNicSpec, Topology};

/// Default simulated packet size used to convert packets/s to bits/s.
pub const PACKET_BYTES: f64 = 1500.0;
/// Bits per simulated packet.
pub const PACKET_BITS: f64 = PACKET_BYTES * 8.0;
/// NSH decap+encap overhead charged once per server subgroup visit (§5.3:
/// "our BESS cycle cost overheads for these are modest at about 220
/// cycles").
pub const NSH_OVERHEAD_CYCLES: f64 = 220.0;
/// Per-packet steering cost when a subgroup is replicated across cores
/// (§5.3: "about 180 cycles to load-balance packets").
pub const REPLICATION_OVERHEAD_CYCLES: f64 = 180.0;
