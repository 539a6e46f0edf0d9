//! State-migration soak: hold the epoch-swap migration path to exact
//! integer invariants.
//!
//! * **Part A — observational identity.** A NAT that lived through its
//!   whole history and a NAT restored from a snapshot must translate an
//!   identical replayed trace identically: **zero** differing output
//!   frames, byte for byte. LB affinity must survive a full-fidelity
//!   restore completely and a backend-loss restore exactly for the
//!   surviving backends. Every single-byte corruption of every snapshot
//!   wire image must be rejected at decode.
//! * **Part B — planned cross-platform swap.** A live testbed running a
//!   software-preferred placement swaps to a hardware-preferred one: the
//!   server NAT's binding table is carried onto the ToR as P4 table
//!   entries mid-run. The swap must commit exactly once with state moved
//!   (`snapshots > 0`, `tor_entries > 0`) and a balanced packet ledger.
//!   Each injected migration fault must instead abort the swap (zero
//!   commits) while delivery continues on the old epoch.
//! * **Part C — supervised storm.** A chaos storm with migration faults
//!   must end settled with a consistent decision log, and the whole
//!   report must be bit-for-bit identical across two runs.
//!
//! Usage: `exp_migration [--seed N] [--quick]`

use lemur_bench::{build_problem, compiler_oracle, place, write_json, Scheme};
use lemur_control::chaos::{chaos_plan, ChaosConfig};
use lemur_control::{Supervisor, SupervisorConfig, SupervisorEvent};
use lemur_core::chains::CanonicalChain;
use lemur_core::Slo;
use lemur_dataplane::WindowSample;
use lemur_dataplane::{
    ControlAction, ControlHook, FaultEvent, FaultKind, FaultPlan, MigrationError,
    MigrationFaultKind, MigrationStats, SimConfig, SimReport, StagedConfig, Testbed, TimelineEvent,
};
use lemur_nf::dedup::Dedup;
use lemur_nf::lb::{Backend, LoadBalancer};
use lemur_nf::limiter::Limiter;
use lemur_nf::monitor::Monitor;
use lemur_nf::nat::Nat;
use lemur_nf::{NetworkFunction, NfCtx, NfKind, NfParams, NfSnapshot, Verdict};
use lemur_packet::builder::udp_packet;
use lemur_packet::flow::FiveTuple;
use lemur_packet::{ethernet, ipv4, PacketBuf};
use lemur_placer::topology::Topology;

const EXT: ipv4::Address = ipv4::Address::new(198, 18, 0, 1);

fn arg_u64(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

// ---------------------------------------------------------------- Part A

fn internal_flow(i: usize) -> (ipv4::Address, u16) {
    (
        ipv4::Address::new(10, 1, (i / 200) as u8, (i % 200) as u8 + 1),
        10_000 + i as u16,
    )
}

fn outbound(i: usize) -> PacketBuf {
    let (ip, port) = internal_flow(i);
    udp_packet(
        ethernet::Address([2, 0, 0, 0, 0, 1]),
        ethernet::Address([2, 0, 0, 0, 0, 2]),
        ip,
        ipv4::Address::new(8, 8, 8, 8),
        port,
        53,
        b"query",
    )
}

fn inbound(ext_port: u16) -> PacketBuf {
    udp_packet(
        ethernet::Address([2, 0, 0, 0, 0, 2]),
        ethernet::Address([2, 0, 0, 0, 0, 1]),
        ipv4::Address::new(8, 8, 8, 8),
        EXT,
        53,
        ext_port,
        b"reply",
    )
}

struct NatContinuity {
    frames: u64,
    mistranslated: u64,
    fingerprint_match: bool,
}

/// Golden-vs-migrated NAT: establish flows, snapshot → wire → restore,
/// then replay an identical continuation trace (established outbound,
/// return traffic, brand-new flows) through both and diff every output
/// frame byte for byte.
fn nat_continuity(n_flows: usize) -> NatContinuity {
    let mut golden = Nat::new(EXT, 5000, 1024);
    let mut ext_ports = Vec::with_capacity(n_flows);
    for i in 0..n_flows {
        let ctx = NfCtx {
            now_ns: 1_000 * i as u64,
        };
        let mut p = outbound(i);
        assert_eq!(golden.process(&ctx, &mut p), Verdict::Forward);
        ext_ports.push(
            FiveTuple::parse(p.as_slice())
                .expect("translated frame")
                .src_port,
        );
    }

    let snap = golden.snapshot_state().expect("NAT exports state");
    let wire = snap.encode();
    let decoded = NfSnapshot::decode(&wire).expect("clean wire image decodes");
    let mut migrated = Nat::new(EXT, 5000, 1024);
    migrated
        .restore_state(&decoded)
        .expect("clean snapshot restores");
    let fingerprint_match = golden.state_fingerprint() == migrated.state_fingerprint()
        && golden.state_fingerprint() != 0;

    // Continuation: established outbound + returns + new flows, in one
    // interleaved order, identical for both instances.
    let mut trace: Vec<PacketBuf> = Vec::new();
    for (i, ext_port) in ext_ports.iter().enumerate() {
        trace.push(outbound(i));
        trace.push(inbound(*ext_port));
    }
    for i in n_flows..n_flows + n_flows / 4 {
        trace.push(outbound(i));
    }

    let mut frames = 0u64;
    let mut mistranslated = 0u64;
    for (j, p) in trace.iter().enumerate() {
        let ctx = NfCtx {
            now_ns: 1_000_000 + 1_000 * j as u64,
        };
        let mut a = p.clone();
        let mut b = p.clone();
        let va = golden.process(&ctx, &mut a);
        let vb = migrated.process(&ctx, &mut b);
        frames += 1;
        if va != vb || a.as_slice() != b.as_slice() {
            mistranslated += 1;
        }
    }
    NatContinuity {
        frames,
        mistranslated,
        fingerprint_match,
    }
}

fn lb_pkt(src_port: u16) -> PacketBuf {
    udp_packet(
        ethernet::Address([2, 0, 0, 0, 0, 1]),
        ethernet::Address([2, 0, 0, 0, 0, 2]),
        ipv4::Address::new(203, 0, 113, 5),
        ipv4::Address::new(10, 0, 0, 100),
        src_port,
        80,
        b"GET /",
    )
}

fn lb_backends(n: usize) -> Vec<Backend> {
    (0..n)
        .map(|i| Backend {
            ip: ipv4::Address::new(192, 168, 100, (i + 1) as u8),
            mac: ethernet::Address([2, 0, 0, 100, 0, (i + 1) as u8]),
        })
        .collect()
}

struct LbAffinity {
    flows: u64,
    full_preserved: u64,
    partial_preserved: u64,
    partial_evicted: u64,
    partial_ok: bool,
}

/// LB affinity across restore: a full-fidelity restore keeps every pinned
/// flow on its backend; a restore into an LB that lost a backend keeps
/// exactly the flows whose backend survived and evicts the rest.
fn lb_affinity(n_flows: u16) -> LbAffinity {
    let mut golden = LoadBalancer::new(lb_backends(4));
    let ctx = NfCtx::default();
    let mut tuples = Vec::with_capacity(n_flows as usize);
    for port in 0..n_flows {
        let p = lb_pkt(1000 + port);
        tuples.push(FiveTuple::parse(p.as_slice()).expect("LB input parses"));
        let mut q = p.clone();
        assert_eq!(golden.process(&ctx, &mut q), Verdict::Forward);
    }
    let snap = golden.snapshot_state().expect("LB exports state");

    let mut full = LoadBalancer::new(lb_backends(4));
    full.restore_state(&snap).expect("full restore");
    let full_preserved = tuples
        .iter()
        .filter(|t| {
            full.cached_backend(t).is_some() && full.cached_backend(t) == golden.cached_backend(t)
        })
        .count() as u64;

    let survivors = lb_backends(3);
    let mut partial = LoadBalancer::new(survivors.clone());
    partial.restore_state(&snap).expect("partial restore");
    let mut partial_preserved = 0u64;
    let mut partial_evicted = 0u64;
    let mut partial_ok = true;
    for t in &tuples {
        let old = golden.cached_backend(t).expect("pinned in golden");
        if survivors.contains(&old) {
            partial_preserved += 1;
            if partial.cached_backend(t) != Some(old) {
                partial_ok = false;
            }
        } else {
            partial_evicted += 1;
            if partial.cached_backend(t).is_some() {
                partial_ok = false;
            }
        }
    }
    LbAffinity {
        flows: n_flows as u64,
        full_preserved,
        partial_preserved,
        partial_evicted,
        partial_ok,
    }
}

/// Build every snapshot-bearing NF with non-trivial state and return
/// `(tag, wire image, live fingerprint)` per NF.
fn populated_snapshots(n_flows: usize) -> Vec<(&'static str, Vec<u8>, u128)> {
    let ctx = NfCtx { now_ns: 1_000 };
    let mut out = Vec::new();

    let mut nat = Nat::new(EXT, 5000, 256);
    for i in 0..n_flows {
        nat.process(&ctx, &mut outbound(i));
    }
    out.push((
        "nat",
        nat.snapshot_state().expect("nat state").encode(),
        nat.state_fingerprint(),
    ));

    let mut lb = LoadBalancer::new(lb_backends(4));
    for port in 0..n_flows as u16 {
        lb.process(&ctx, &mut lb_pkt(1000 + port));
    }
    out.push((
        "lb",
        lb.snapshot_state().expect("lb state").encode(),
        lb.state_fingerprint(),
    ));

    let mut dedup = Dedup::from_params(&NfParams::new());
    for i in 0..n_flows {
        dedup.process(&ctx, &mut outbound(i));
    }
    out.push((
        "dedup",
        dedup.snapshot_state().expect("dedup state").encode(),
        dedup.state_fingerprint(),
    ));

    let mut monitor = Monitor::new();
    for i in 0..n_flows {
        monitor.process(&ctx, &mut outbound(i));
    }
    out.push((
        "monitor",
        monitor.snapshot_state().expect("monitor state").encode(),
        monitor.state_fingerprint(),
    ));

    let mut limiter = Limiter::new(1e9, 1e6);
    for i in 0..n_flows {
        limiter.process(&ctx, &mut outbound(i));
    }
    out.push((
        "limiter",
        limiter.snapshot_state().expect("limiter state").encode(),
        limiter.state_fingerprint(),
    ));
    out
}

struct CorruptionSweep {
    attempts: u64,
    rejected: u64,
}

/// Flip every byte of every snapshot wire image, one at a time: each
/// corrupted image must fail to decode (framing or checksum), so a
/// corrupted transfer can never reach `restore_state` at all.
fn corruption_sweep(n_flows: usize) -> CorruptionSweep {
    let mut attempts = 0u64;
    let mut rejected = 0u64;
    for (tag, wire, _) in populated_snapshots(n_flows) {
        for pos in 0..wire.len() {
            let mut bad = wire.clone();
            bad[pos] ^= 0x01;
            attempts += 1;
            match NfSnapshot::decode(&bad) {
                Err(_) => rejected += 1,
                Ok(_) => eprintln!("corrupt {tag} snapshot decoded at byte {pos}"),
            }
        }
    }
    CorruptionSweep { attempts, rejected }
}

// ---------------------------------------------------------------- Part B

/// Stage a pre-built configuration at the first guard window past
/// `trigger_ns`, then count commits and record migration aborts.
struct PlannedSwapHook {
    staged: Option<Box<StagedConfig>>,
    trigger_ns: u64,
    drain_ns: u64,
    commits: u64,
    aborts: Vec<MigrationError>,
}

impl ControlHook for PlannedSwapHook {
    fn on_window(
        &mut self,
        end_ns: u64,
        _samples: &[WindowSample],
        _violations: &[TimelineEvent],
    ) -> ControlAction {
        if end_ns >= self.trigger_ns {
            if let Some(staged) = self.staged.take() {
                return ControlAction::StageCommit {
                    staged,
                    drain_ns: self.drain_ns,
                };
            }
        }
        ControlAction::Continue
    }

    fn on_commit(&mut self, _at_ns: u64, _epoch: u64, _packets_lost: u64, _rollback: bool) {
        self.commits += 1;
    }

    fn on_migration_failed(&mut self, _at_ns: u64, error: &MigrationError) {
        self.aborts.push(error.clone());
    }
}

struct SwapOutcome {
    commits: u64,
    aborts: Vec<MigrationError>,
    stats: Option<MigrationStats>,
    delivered: u64,
    balanced: bool,
    cross_platform: bool,
}

/// Run a planned sw-preferred → hw-preferred swap mid-traffic, optionally
/// arming one migration fault just before the drain window.
fn planned_swap(seed: u64, fault: Option<MigrationFaultKind>) -> SwapOutcome {
    let oracle = compiler_oracle();
    let (problem, mut specs) =
        build_problem(&[CanonicalChain::Chain2], 0.3, Topology::with_servers(4));
    let sw = place(Scheme::SwPreferred, &problem, &oracle).expect("sw-preferred placement");
    let hw = place(Scheme::HwPreferred, &problem, &oracle).expect("hw-preferred placement");
    let deployment = lemur_metacompiler::compile(&problem, &sw).expect("sw deployment");
    let spi_bases: Vec<u32> = deployment.routing.entry_spi.clone();
    let hw_deployment =
        lemur_metacompiler::compile_repair(&problem, &hw, &spi_bases).expect("hw deployment");

    // The move is cross-platform iff the new epoch runs NAT on the ToR
    // (lookup + rewrite tables) while the old one ran it in software.
    let nat_on_tor = |d: &lemur_metacompiler::Deployment| {
        d.p4.nf_tables
            .iter()
            .any(|(_, _, kind, tables)| *kind == NfKind::Nat && tables.len() == 2)
    };
    let cross_platform = nat_on_tor(&hw_deployment) && !nat_on_tor(&deployment);

    let slos: Vec<Option<Slo>> = problem.chains.iter().map(|c| c.slo).collect();
    let admitted = vec![true; problem.chains.len()];
    let staged = StagedConfig::build(&problem, &hw, hw_deployment, admitted, slos.clone(), false)
        .expect("staged hw configuration");

    let mut testbed = Testbed::build(&problem, &sw, deployment).expect("testbed");
    for (i, s) in specs.iter_mut().enumerate() {
        s.offered_bps = (sw.chain_rates_bps[i] * 1.1).max(1e8);
    }
    let config = SimConfig {
        duration_s: 0.008,
        warmup_s: 0.002,
        seed,
        window_ns: 1_000_000,
        ..Default::default()
    };
    let plan = match fault {
        Some(f) => FaultPlan::new(vec![FaultEvent {
            at_ns: 3_600_000,
            kind: FaultKind::MigrationFault { fault: f },
        }]),
        None => FaultPlan::empty(),
    };
    let mut hook = PlannedSwapHook {
        staged: Some(Box::new(staged)),
        trigger_ns: 4_000_000,
        drain_ns: 300_000,
        commits: 0,
        aborts: Vec::new(),
    };
    let report = testbed.run_supervised(&specs, config, &plan, &slos, &mut hook);
    let stats = report.migrations().next().copied();
    SwapOutcome {
        commits: hook.commits,
        aborts: hook.aborts,
        stats,
        delivered: report.ledger.delivered,
        balanced: report.ledger.balanced(),
        cross_platform,
    }
}

// ---------------------------------------------------------------- Part C

type StormOutcome = (SimReport, Vec<SupervisorEvent>, String, bool);

/// A supervised chaos storm with migration faults. Mirrors `exp_chaos`
/// with a shorter horizon.
fn storm(seed: u64, duration_ms: u64) -> StormOutcome {
    let oracle = compiler_oracle();
    let (mut problem, mut specs) = build_problem(
        &[
            CanonicalChain::Chain1,
            CanonicalChain::Chain2,
            CanonicalChain::Chain3,
        ],
        0.3,
        Topology::with_servers(4),
    );
    let n_chains = problem.chains.len();
    for i in 0..n_chains {
        let slo = problem.chains[i]
            .slo
            .unwrap()
            .with_priority((n_chains - i) as u8);
        problem.chains[i].slo = Some(slo);
    }
    let placement = lemur_placer::heuristic::place(&problem, &oracle).expect("healthy placement");
    let deployment = lemur_metacompiler::compile(&problem, &placement).expect("deployment");
    for (i, s) in specs.iter_mut().enumerate() {
        s.offered_bps = (placement.chain_rates_bps[i] * 1.1).max(1e8);
    }

    // Bias link faults toward loaded servers so the storm displaces
    // chains: repairs (and thus epoch swaps for the armed migration
    // faults to hit) actually happen.
    let mut load = [0usize; 4];
    for sg in &placement.subgroups {
        load[sg.server] += 1;
    }
    let mut hot_servers: Vec<usize> = (0..4).filter(|&s| load[s] > 0).collect();
    hot_servers.sort_by_key(|&s| std::cmp::Reverse(load[s]));

    let warmup_s = 0.003;
    let duration_s = duration_ms as f64 / 1e3;
    let horizon_ns = ((warmup_s + duration_s) * 1e9) as u64;
    let chaos = ChaosConfig {
        seed,
        n_faults: 10,
        start_ns: (warmup_s * 1e9) as u64 + 2_000_000,
        end_ns: horizon_ns * 3 / 5,
        n_servers: 4,
        cores_per_server: problem.topology.servers[0].num_cores(),
        n_subgroups: placement.subgroups.len(),
        n_chains,
        max_core_fails_per_server: 2,
        n_migration_faults: 3,
        hot_servers,
    };
    let plan = chaos_plan(&chaos);
    plan.validate(&problem.topology, placement.subgroups.len(), n_chains)
        .expect("valid storm");

    let mut supervisor = Supervisor::new(
        &problem,
        &placement,
        &deployment,
        &oracle,
        SupervisorConfig {
            seed,
            ..Default::default()
        },
    );
    let mut testbed = Testbed::build(&problem, &placement, deployment).expect("testbed");
    let config = SimConfig {
        duration_s,
        warmup_s,
        seed,
        window_ns: 1_000_000,
        ..Default::default()
    };
    let slos: Vec<Option<Slo>> = problem.chains.iter().map(|c| c.slo).collect();
    let report = testbed.run_supervised(&specs, config, &plan, &slos, &mut supervisor);
    let state = format!("{:?}", supervisor.state());
    let wal_ok = supervisor.wal().is_consistent();
    (report, supervisor.events().to_vec(), state, wal_ok)
}

// ------------------------------------------------------------------ main

struct FaultCell {
    fault: &'static str,
    aborted: bool,
    commits: u64,
    delivered: u64,
}

impl serde::Serialize for FaultCell {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "fault".to_string(),
                serde::Value::Str(self.fault.to_string()),
            ),
            ("aborted".to_string(), self.aborted.to_value()),
            ("commits".to_string(), self.commits.to_value()),
            ("delivered".to_string(), self.delivered.to_value()),
        ])
    }
}

struct MigrationRow {
    seed: u64,
    quick: bool,
    nat_frames: u64,
    nat_mistranslated: u64,
    nat_fingerprint_match: bool,
    lb_flows: u64,
    lb_full_preserved: u64,
    lb_partial_preserved: u64,
    lb_partial_evicted: u64,
    corruption_attempts: u64,
    corruption_rejected: u64,
    swap_commits: u64,
    swap_snapshots: u64,
    swap_restored: u64,
    swap_tor_entries: u64,
    swap_cross_platform: bool,
    fault_matrix: Vec<FaultCell>,
    storm_final_state: String,
    storm_migration_aborts: u64,
    storm_wal_consistent: bool,
    storm_reproducible: bool,
}

impl serde::Serialize for MigrationRow {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("seed".to_string(), self.seed.to_value()),
            ("quick".to_string(), self.quick.to_value()),
            ("nat_frames".to_string(), self.nat_frames.to_value()),
            (
                "nat_mistranslated".to_string(),
                self.nat_mistranslated.to_value(),
            ),
            (
                "nat_fingerprint_match".to_string(),
                self.nat_fingerprint_match.to_value(),
            ),
            ("lb_flows".to_string(), self.lb_flows.to_value()),
            (
                "lb_full_preserved".to_string(),
                self.lb_full_preserved.to_value(),
            ),
            (
                "lb_partial_preserved".to_string(),
                self.lb_partial_preserved.to_value(),
            ),
            (
                "lb_partial_evicted".to_string(),
                self.lb_partial_evicted.to_value(),
            ),
            (
                "corruption_attempts".to_string(),
                self.corruption_attempts.to_value(),
            ),
            (
                "corruption_rejected".to_string(),
                self.corruption_rejected.to_value(),
            ),
            ("swap_commits".to_string(), self.swap_commits.to_value()),
            ("swap_snapshots".to_string(), self.swap_snapshots.to_value()),
            ("swap_restored".to_string(), self.swap_restored.to_value()),
            (
                "swap_tor_entries".to_string(),
                self.swap_tor_entries.to_value(),
            ),
            (
                "swap_cross_platform".to_string(),
                self.swap_cross_platform.to_value(),
            ),
            ("fault_matrix".to_string(), self.fault_matrix.to_value()),
            (
                "storm_final_state".to_string(),
                self.storm_final_state.to_value(),
            ),
            (
                "storm_migration_aborts".to_string(),
                self.storm_migration_aborts.to_value(),
            ),
            (
                "storm_wal_consistent".to_string(),
                self.storm_wal_consistent.to_value(),
            ),
            (
                "storm_reproducible".to_string(),
                self.storm_reproducible.to_value(),
            ),
        ])
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = arg_u64(&args, "--seed", 42);
    let n_flows = if quick { 48 } else { 128 };
    let storm_ms = if quick { 16 } else { 24 };
    let mut failures: Vec<String> = Vec::new();

    // Part A: observational identity + corruption rejection.
    println!("part A: golden-vs-migrated NF harness ({n_flows} flows)");
    let nat = nat_continuity(n_flows);
    println!(
        "  NAT: {} frames replayed, {} mistranslated, fingerprint match={}",
        nat.frames, nat.mistranslated, nat.fingerprint_match
    );
    if nat.mistranslated != 0 {
        failures.push(format!(
            "{} frames mistranslated after NAT restore",
            nat.mistranslated
        ));
    }
    if !nat.fingerprint_match {
        failures.push("restored NAT fingerprint differs from source".to_string());
    }
    let lb = lb_affinity(n_flows as u16);
    println!(
        "  LB: {} flows, full restore preserved {}, partial preserved {} / evicted {}",
        lb.flows, lb.full_preserved, lb.partial_preserved, lb.partial_evicted
    );
    if lb.full_preserved != lb.flows {
        failures.push("full-fidelity LB restore lost affinity".to_string());
    }
    if !lb.partial_ok || lb.partial_preserved + lb.partial_evicted != lb.flows {
        failures.push("backend-loss LB restore mishandled affinity".to_string());
    }
    let sweep = corruption_sweep(if quick { 16 } else { 32 });
    println!(
        "  corruption sweep: {}/{} single-byte corruptions rejected",
        sweep.rejected, sweep.attempts
    );
    if sweep.rejected != sweep.attempts {
        failures.push(format!(
            "{} corrupted snapshots were accepted",
            sweep.attempts - sweep.rejected
        ));
    }

    // Part B: planned cross-platform swap, clean + fault matrix.
    println!("part B: planned sw→hw epoch swap on the testbed");
    let clean = planned_swap(seed, None);
    let stats = clean.stats.unwrap_or_default();
    println!(
        "  clean: commits={} snapshots={} restored={} tor_entries={} dropped={} cross_platform={}",
        clean.commits,
        stats.snapshots,
        stats.restored,
        stats.tor_entries,
        stats.dropped,
        clean.cross_platform
    );
    if clean.commits != 1 || !clean.aborts.is_empty() {
        failures.push(format!(
            "clean swap: {} commits, {} aborts (want 1 / 0)",
            clean.commits,
            clean.aborts.len()
        ));
    }
    if stats.snapshots == 0 {
        failures.push("clean swap moved no state".to_string());
    }
    if !clean.cross_platform || stats.tor_entries == 0 {
        failures.push("swap did not carry NAT bindings onto the ToR".to_string());
    }
    if !clean.balanced {
        failures.push("clean swap broke packet conservation".to_string());
    }
    let mut fault_matrix = Vec::new();
    for fault in MigrationFaultKind::ALL {
        let out = planned_swap(seed, Some(fault));
        let aborted = !out.aborts.is_empty();
        println!(
            "  fault {fault}: aborted={} commits={} delivered={}",
            aborted, out.commits, out.delivered
        );
        if !aborted || out.commits != 0 {
            failures.push(format!(
                "fault {fault}: aborted={aborted} commits={} (want abort, 0 commits)",
                out.commits
            ));
        }
        if out.delivered == 0 || !out.balanced {
            failures.push(format!("fault {fault}: old epoch stopped delivering"));
        }
        fault_matrix.push(FaultCell {
            fault: fault.tag(),
            aborted,
            commits: out.commits,
            delivered: out.delivered,
        });
    }

    // Part C: supervised storm, reproducible run to run.
    println!("part C: supervised storm with migration faults ({storm_ms}ms)");
    let (r1, e1, state, wal_ok) = storm(seed, storm_ms);
    let (r2, e2, ..) = storm(seed, storm_ms);
    let reproducible = r1 == r2 && e1 == e2;
    let storm_aborts = r1.migration_aborts().count() as u64;
    println!(
        "  final={state} migration_aborts={storm_aborts} wal_consistent={wal_ok} reproducible={reproducible}"
    );
    if !(state == "Converged" || state == "GracefulDegraded") {
        failures.push(format!("storm ended unsettled: {state}"));
    }
    if !wal_ok {
        failures.push("storm decision log ended with a dangling intent".to_string());
    }
    if !reproducible {
        failures.push("storm not bit-for-bit reproducible across two runs".to_string());
    }
    if !r1.ledger.balanced() {
        failures.push("storm broke packet conservation".to_string());
    }

    let row = MigrationRow {
        seed,
        quick,
        nat_frames: nat.frames,
        nat_mistranslated: nat.mistranslated,
        nat_fingerprint_match: nat.fingerprint_match,
        lb_flows: lb.flows,
        lb_full_preserved: lb.full_preserved,
        lb_partial_preserved: lb.partial_preserved,
        lb_partial_evicted: lb.partial_evicted,
        corruption_attempts: sweep.attempts,
        corruption_rejected: sweep.rejected,
        swap_commits: clean.commits,
        swap_snapshots: stats.snapshots,
        swap_restored: stats.restored,
        swap_tor_entries: stats.tor_entries,
        swap_cross_platform: clean.cross_platform,
        fault_matrix,
        storm_final_state: state,
        storm_migration_aborts: storm_aborts,
        storm_wal_consistent: wal_ok,
        storm_reproducible: reproducible,
    };
    write_json("exp_migration", &row);

    if failures.is_empty() {
        println!("migration soak PASSED");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
