//! Functional replay of a workload's own packets through the platforms
//! built from its deployment: the ToR P4 switch, each server's BESS
//! pipeline (demux, subgroups, mux) and each SmartNIC's eBPF program.
//!
//! The walk follows the engine's egress-port map — 0 leaves the rack,
//! 1–99 go to server `port − 1`, 100 and up to SmartNIC `port − 100` —
//! but charges no queueing, so a packet the run dropped at a full queue
//! is still walked here. Its per-call costs are what the traced run
//! reports. Every run replays its packet sources — an untraced run only
//! counts them — and the count must equal the packets the run
//! materialized.

use crate::trace::Layers;
use lemur_dataplane::flowsim::FlowPacketSource;
use lemur_dataplane::traffic::ChainSource;
use lemur_dataplane::{FaultKind, FaultPlan, Scenario, TrafficSpec};
use lemur_ebpf::{Program, Vm, XdpVerdict};
use lemur_metacompiler::bessgen::ServerPipeline;
use lemur_metacompiler::Deployment;
use lemur_nf::NfCtx;
use lemur_p4sim::Switch;
use lemur_packet::flow::FiveTuple;
use lemur_packet::PacketBuf;
use lemur_placer::placement::PlacementProblem;
use lemur_placer::topology::Tor;
use std::time::Instant;

/// The engine's per-packet hop cap.
const MAX_HOPS: u32 = 64;
/// The engine's cap on subgroups chained inside one server visit.
const MAX_CHAINED: usize = 16;

/// The platforms of one deployment, outside the event engine.
pub struct Replay {
    switch: Switch,
    servers: Vec<Option<ServerPipeline>>,
    nics: Vec<Option<Program>>,
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Replay {
    pub fn new(problem: &PlacementProblem, deployment: Deployment) -> Result<Replay, String> {
        let Tor::Pisa(pisa) = &problem.topology.tor else {
            return Err("replay needs a PISA ToR".to_string());
        };
        let mut switch = Switch::new(deployment.p4.program.clone(), *pisa)
            .map_err(|e| format!("replay switch load: {e}"))?;
        deployment.p4.install(&mut switch);
        let mut servers: Vec<Option<ServerPipeline>> =
            (0..problem.topology.servers.len()).map(|_| None).collect();
        for pipe in deployment.bess {
            let s = pipe.server;
            servers[s] = Some(pipe);
        }
        let mut nics: Vec<Option<Program>> = (0..problem.topology.smartnics.len())
            .map(|_| None)
            .collect();
        for np in deployment.ebpf {
            nics[np.nic] = Some(np.program);
        }
        Ok(Replay {
            switch,
            servers,
            nics,
        })
    }

    /// Walk one packet until it leaves the rack or is dropped, counting
    /// and timing every platform call.
    pub fn walk(&mut self, now_ns: u64, mut buf: PacketBuf, layers: &mut Layers) {
        for _ in 0..MAX_HOPS {
            let t = Instant::now();
            let verdict = self.switch.process(&mut buf);
            layers.p4_ns += elapsed_ns(t);
            layers.p4_passes += 1;
            if verdict.dropped {
                return;
            }
            let ok = match verdict.egress_port {
                None | Some(0) => return,
                Some(port) if port < 100 => {
                    self.server_visit(port as usize - 1, now_ns, &mut buf, layers)
                }
                Some(port) => self.nic_run(port as usize - 100, &mut buf, layers),
            };
            if !ok {
                return;
            }
        }
    }

    /// Demux, the subgroups the packet visits, and mux — the engine's
    /// server hop without its core stations.
    fn server_visit(
        &mut self,
        server: usize,
        now_ns: u64,
        buf: &mut PacketBuf,
        layers: &mut Layers,
    ) -> bool {
        let Some(Some(pipe)) = self.servers.get_mut(server) else {
            return false;
        };
        let t = Instant::now();
        let mut nf_ns = 0;
        let mut nf_calls = 0;
        let ok = (|| {
            let (mut sg, mut replica, key) = pipe.demux.steer(buf)?;
            let mut spi = key.spi;
            let ctx = NfCtx { now_ns };
            for _ in 0..MAX_CHAINED {
                let inst = *pipe.instance_map.get(&(sg, replica))?;
                let tn = Instant::now();
                let gate = pipe.instances[inst].runtime.process_packet(&ctx, buf);
                nf_ns += elapsed_ns(tn);
                nf_calls += 1;
                let gate = gate?;
                if let Some(&next) = pipe
                    .mux_rules
                    .get(&sg)
                    .and_then(|rule| rule.gate_spi.get(&(spi, gate)))
                {
                    spi = next;
                }
                match pipe.internal_next.get(&(sg, gate)) {
                    Some(&next_sg) => {
                        sg = next_sg;
                        let n = pipe.replicas.get(&next_sg).copied().unwrap_or(1);
                        replica = if n <= 1 {
                            0
                        } else {
                            FiveTuple::parse(buf.as_slice())
                                .map(|t| (t.symmetric_hash() % n as u64) as usize)
                                .unwrap_or(0)
                        };
                    }
                    None => break,
                }
            }
            let si = key.si.checked_sub(1)?;
            lemur_bess::demux::mux(buf, spi, si);
            Some(())
        })()
        .is_some();
        layers.bess_ns += elapsed_ns(t);
        layers.bess_visits += 1;
        layers.nf_calls += nf_calls;
        layers.nf_ns += nf_ns;
        ok
    }

    fn nic_run(&mut self, nic: usize, buf: &mut PacketBuf, layers: &mut Layers) -> bool {
        let Some(Some(program)) = self.nics.get(nic) else {
            return false;
        };
        let mut frame = buf.as_slice().to_vec();
        let t = Instant::now();
        let result = Vm::run(program, &mut frame);
        layers.ebpf_ns += elapsed_ns(t);
        layers.ebpf_runs += 1;
        if let Ok(r) = &result {
            layers.ebpf_steps += r.steps;
        }
        match result {
            Ok(r) if r.verdict == XdpVerdict::Tx => {
                *buf = PacketBuf::from_bytes(&frame);
                true
            }
            _ => false,
        }
    }
}

/// Index of the source whose next packet the engine injects first: the
/// earliest time, ties going to the higher chain index (the engine's
/// inject events carry id `u64::MAX − chain`).
fn next_source(peeks: impl Iterator<Item = u64>) -> Option<(usize, u64)> {
    peeks
        .enumerate()
        .min_by_key(|&(ci, t)| (t, std::cmp::Reverse(ci)))
}

/// Replay the heavy hitters of a hybrid run (flows of at least `theta`
/// packets) in injection order, walking each through `walk` if given.
/// Returns the packets replayed.
pub fn replay_flows(
    scenario: &Scenario,
    specs: &[TrafficSpec],
    theta: u64,
    mut walk: Option<(&mut Replay, &mut Layers)>,
) -> u64 {
    let mut sources: Vec<FlowPacketSource> = specs
        .iter()
        .enumerate()
        .map(|(ci, s)| {
            FlowPacketSource::new(
                scenario,
                ci,
                |f| f.size_packets >= theta,
                s.src_prefix,
                s.payload_len,
            )
        })
        .collect();
    let mut replayed = 0;
    while let Some((ci, t)) = next_source(sources.iter().map(|s| s.peek_time())) {
        if t >= scenario.horizon_ns {
            break;
        }
        let Some((t, buf)) = sources[ci].next_packet() else {
            break;
        };
        if let Some((replay, layers)) = walk.as_mut() {
            replay.walk(t, buf, layers);
        }
        replayed += 1;
    }
    replayed
}

/// Replay steady per-chain sources (seeded as the engine seeds them),
/// applying the plan's traffic surges at their times and walking each
/// packet through `walk` if given. Returns the packets replayed.
pub fn replay_steady(
    specs: &[TrafficSpec],
    seed: u64,
    horizon_ns: u64,
    plan: &FaultPlan,
    mut walk: Option<(&mut Replay, &mut Layers)>,
) -> u64 {
    let mut sources: Vec<ChainSource> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| ChainSource::new(s.clone(), seed.wrapping_add(i as u64)))
        .collect();
    let events = plan.events();
    let mut next_event = 0;
    let mut replayed = 0;
    while let Some((ci, t)) = next_source(sources.iter().map(|s| s.peek_time())) {
        if t >= horizon_ns {
            break;
        }
        // A fault at the same instant as an injection applies first.
        while let Some(ev) = events.get(next_event).filter(|ev| ev.at_ns <= t) {
            if let FaultKind::TrafficSurge { chain, factor } = ev.kind {
                if let Some(src) = sources.get_mut(chain) {
                    src.set_rate_factor(factor);
                }
            }
            next_event += 1;
        }
        let (t, buf) = sources[ci].next_packet();
        if let Some((replay, layers)) = walk.as_mut() {
            replay.walk(t, buf, layers);
        }
        replayed += 1;
    }
    replayed
}
