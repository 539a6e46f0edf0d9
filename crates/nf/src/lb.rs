//! L4 load balancer NF.
//!
//! Selects a backend by consistent flow hashing and rewrites the destination
//! IP (and MAC), keeping connections sticky without per-flow state in the
//! common case; a small flow cache preserves stickiness if the backend set
//! changes (the SilkRoad-style behaviour the paper's P4 LB emulates).

use crate::snapshot::{Decoder, Encoder};
use crate::{
    AggregateObservables, AggregateOutcome, AggregateUpdate, NetworkFunction, NfCtx, NfKind,
    NfParams, NfSnapshot, ParamValue, SnapshotError, Verdict,
};
use lemur_packet::ethernet::{self, EtherType};
use lemur_packet::flow::FiveTuple;
use lemur_packet::ipv4::{self, Protocol};
use lemur_packet::{tcp, udp, vlan, PacketBuf};
use std::collections::BTreeMap;

/// A backend server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend {
    pub ip: ipv4::Address,
    pub mac: ethernet::Address,
}

/// The load balancer NF.
pub struct LoadBalancer {
    backends: Vec<Backend>,
    /// Flow → backend index cache (bounded), in key order so snapshots
    /// are canonical.
    flow_cache: BTreeMap<FiveTuple, usize>,
    max_cache: usize,
    /// Affinity-cache mass pinned by analytic-tail flows
    /// ([`NetworkFunction::apply_aggregate`]): competes with exact flows
    /// for `max_cache` slots but is not snapshotted (tail flows are
    /// steered statelessly by hash, so losing the pins costs nothing).
    tail_flows: u64,
}

impl LoadBalancer {
    /// Create with explicit backends (at least one).
    pub fn new(backends: Vec<Backend>) -> LoadBalancer {
        assert!(!backends.is_empty(), "LB needs at least one backend");
        LoadBalancer {
            backends,
            flow_cache: BTreeMap::new(),
            max_cache: 65_536,
            tail_flows: 0,
        }
    }

    /// Build from spec parameters: `backends=N` synthesizes N backends in
    /// 192.168.100.0/24 (default 4).
    pub fn from_params(params: &NfParams) -> LoadBalancer {
        let n = params
            .get("backends")
            .and_then(ParamValue::as_int)
            .unwrap_or(4)
            .max(1) as usize;
        let backends = (0..n)
            .map(|i| Backend {
                ip: ipv4::Address::new(192, 168, 100, (i + 1) as u8),
                mac: ethernet::Address([2, 0, 0, 100, 0, (i + 1) as u8]),
            })
            .collect();
        LoadBalancer::new(backends)
    }

    /// Number of configured backends.
    pub fn num_backends(&self) -> usize {
        self.backends.len()
    }

    /// Number of flows currently pinned in the affinity cache.
    pub fn cached_flows(&self) -> usize {
        self.flow_cache.len()
    }

    /// The cached backend for a flow, if pinned.
    pub fn cached_backend(&self, tuple: &FiveTuple) -> Option<Backend> {
        self.flow_cache.get(tuple).map(|&i| self.backends[i])
    }

    fn encode_state(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u32(self.backends.len() as u32);
        for b in &self.backends {
            e.u32(b.ip.to_u32());
            for byte in b.mac.0 {
                e.u8(byte);
            }
        }
        e.u64(self.max_cache as u64);
        e.u32(self.flow_cache.len() as u32);
        for (t, idx) in &self.flow_cache {
            e.u32(t.src_ip.to_u32());
            e.u32(t.dst_ip.to_u32());
            e.u16(t.src_port);
            e.u16(t.dst_port);
            e.u8(t.protocol);
            e.u32(*idx as u32);
        }
        e.finish()
    }

    fn pick(&mut self, tuple: &FiveTuple) -> usize {
        if let Some(&idx) = self.flow_cache.get(tuple) {
            return idx;
        }
        let idx = (tuple.symmetric_hash() % self.backends.len() as u64) as usize;
        if self.flow_cache.len() as u64 + self.tail_flows < self.max_cache as u64 {
            self.flow_cache.insert(*tuple, idx);
        }
        idx
    }

    /// Steer a packet by its parsed 5-tuple (`None` = unclassifiable,
    /// dropped). Rewrites the destination IP/MAC and checksums.
    fn steer(&mut self, pkt: &mut PacketBuf, tuple: Option<&FiveTuple>) -> Verdict {
        let Some(tuple) = tuple else {
            return Verdict::Drop;
        };
        let idx = self.pick(tuple);
        let backend = self.backends[idx];
        // Locate the IP header (possibly behind a VLAN tag).
        let l3 = {
            let eth = ethernet::Frame::new_unchecked(pkt.as_slice());
            match eth.ethertype() {
                EtherType::Vlan => ethernet::HEADER_LEN + vlan::TAG_LEN,
                _ => ethernet::HEADER_LEN,
            }
        };
        let data = pkt.as_mut_slice();
        {
            let mut eth = ethernet::Frame::new_unchecked(&mut data[..]);
            eth.set_dst(backend.mac);
        }
        let (src, l4_off, protocol) = {
            let mut ip = ipv4::Packet::new_unchecked(&mut data[l3..]);
            ip.set_dst(backend.ip);
            ip.fill_checksum();
            (ip.src(), l3 + ip.header_len() as usize, ip.protocol())
        };
        match protocol {
            Protocol::Udp => {
                let mut u = udp::Packet::new_unchecked(&mut data[l4_off..]);
                u.fill_checksum(src, backend.ip);
            }
            Protocol::Tcp => {
                let mut t = tcp::Packet::new_unchecked(&mut data[l4_off..]);
                t.fill_checksum(src, backend.ip);
            }
            _ => {}
        }
        Verdict::Forward
    }
}

impl NetworkFunction for LoadBalancer {
    fn kind(&self) -> NfKind {
        NfKind::Lb
    }

    fn process(&mut self, _ctx: &NfCtx, pkt: &mut PacketBuf) -> Verdict {
        let tuple = FiveTuple::parse(pkt.as_slice()).ok();
        self.steer(pkt, tuple.as_ref())
    }

    /// The LB's flow cache shards cleanly by flow (the demux hashes flows to
    /// cores), so it is replicable despite holding state.
    fn is_stateful(&self) -> bool {
        false
    }

    fn clone_fresh(&self) -> Box<dyn NetworkFunction> {
        Box::new(LoadBalancer::new(self.backends.clone()))
    }

    fn snapshot_state(&self) -> Option<NfSnapshot> {
        Some(NfSnapshot::new(NfKind::Lb, self.encode_state()))
    }

    /// Restore the affinity cache. Entries are carried over for backends
    /// that still exist in this instance's configuration (matched by
    /// ip + mac and remapped to their new index); flows whose backend is
    /// gone are dropped, which is exactly the "affinity preserved for
    /// surviving backends" contract. With an identical backend set the
    /// restore is bit-exact.
    fn restore_state(&mut self, snapshot: &NfSnapshot) -> Result<(), SnapshotError> {
        snapshot.expect_kind(NfKind::Lb)?;
        let mut d = Decoder::new(&snapshot.payload);
        let n_backends = d.u32()? as usize;
        if n_backends == 0 {
            return Err(SnapshotError::Invalid("LB snapshot has no backends"));
        }
        let mut old_backends = Vec::with_capacity(n_backends);
        for _ in 0..n_backends {
            let ip = ipv4::Address::from_u32(d.u32()?);
            let mut mac = [0u8; 6];
            for byte in &mut mac {
                *byte = d.u8()?;
            }
            old_backends.push(Backend {
                ip,
                mac: ethernet::Address(mac),
            });
        }
        let max_cache = d.u64()? as usize;
        let n_flows = d.u32()? as usize;
        let mut staged = BTreeMap::new();
        for _ in 0..n_flows {
            let t = FiveTuple {
                src_ip: ipv4::Address::from_u32(d.u32()?),
                dst_ip: ipv4::Address::from_u32(d.u32()?),
                src_port: d.u16()?,
                dst_port: d.u16()?,
                protocol: d.u8()?,
            };
            let idx = d.u32()? as usize;
            let Some(old) = old_backends.get(idx) else {
                return Err(SnapshotError::Invalid("LB cache index out of range"));
            };
            if let Some(new_idx) = self.backends.iter().position(|b| b == old) {
                if staged.insert(t, new_idx).is_some() {
                    return Err(SnapshotError::Invalid("duplicate LB cache flow"));
                }
            }
        }
        d.done()?;
        self.max_cache = max_cache;
        self.flow_cache = staged;
        Ok(())
    }

    /// Pin tail flows into the remaining affinity slots; overflowing flows
    /// are still steered (hash without a pin), so everything passes.
    fn apply_aggregate(&mut self, update: &AggregateUpdate) -> AggregateOutcome {
        let free = (self.max_cache as u64)
            .saturating_sub(self.flow_cache.len() as u64)
            .saturating_sub(self.tail_flows);
        self.tail_flows += update.new_flows.min(free);
        AggregateOutcome::pass(update)
    }

    fn observables(&self) -> AggregateObservables {
        AggregateObservables {
            packets: 0,
            bytes: 0,
            flows: self.flow_cache.len() as u64 + self.tail_flows,
            scalar: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_packet::builder::udp_packet;

    fn pkt(src_port: u16) -> PacketBuf {
        udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(203, 0, 113, 5),
            ipv4::Address::new(10, 0, 0, 100), // virtual IP
            src_port,
            80,
            b"GET /",
        )
    }

    fn dst_of(p: &PacketBuf) -> ipv4::Address {
        let eth = ethernet::Frame::new_checked(p.as_slice()).unwrap();
        ipv4::Packet::new_checked(eth.payload()).unwrap().dst()
    }

    #[test]
    fn rewrites_to_backend_and_stays_valid() {
        let mut lb = LoadBalancer::from_params(&NfParams::new());
        let ctx = NfCtx::default();
        let mut p = pkt(1000);
        assert_eq!(lb.process(&ctx, &mut p), Verdict::Forward);
        let dst = dst_of(&p);
        assert_eq!(dst.0[..3], [192, 168, 100]);
        // Checksums must be valid after the rewrite.
        let eth = ethernet::Frame::new_checked(p.as_slice()).unwrap();
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        let u = udp::Packet::new_checked(ip.payload()).unwrap();
        assert!(u.verify_checksum(ip.src(), ip.dst()));
    }

    #[test]
    fn flows_are_sticky() {
        let mut lb = LoadBalancer::from_params(&NfParams::new());
        let ctx = NfCtx::default();
        for port in [1000u16, 2000, 3000] {
            let mut a = pkt(port);
            let mut b = pkt(port);
            lb.process(&ctx, &mut a);
            lb.process(&ctx, &mut b);
            assert_eq!(dst_of(&a), dst_of(&b));
        }
    }

    #[test]
    fn spreads_across_backends() {
        let mut lb = LoadBalancer::from_params(&NfParams::new());
        let ctx = NfCtx::default();
        let mut seen = std::collections::HashSet::new();
        for port in 1000..1100 {
            let mut p = pkt(port);
            lb.process(&ctx, &mut p);
            seen.insert(dst_of(&p));
        }
        assert!(seen.len() >= 3, "only {} backends used", seen.len());
    }

    #[test]
    fn backend_count_param() {
        let mut params = NfParams::new();
        params.set("backends", ParamValue::Int(7));
        assert_eq!(LoadBalancer::from_params(&params).num_backends(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn empty_backends_panics() {
        LoadBalancer::new(vec![]);
    }

    #[test]
    fn aggregate_pins_until_cache_full() {
        let mut lb = LoadBalancer::from_params(&NfParams::new());
        let u = AggregateUpdate {
            packets: 100,
            bytes: 10_000,
            new_flows: 60_000,
            window_start_ns: 0,
            window_end_ns: 1_000_000,
        };
        assert_eq!(lb.apply_aggregate(&u).packets, 100);
        assert_eq!(lb.observables().flows, 60_000);
        // A second wave hits the 65_536-slot ceiling; everything still
        // passes (steering is stateless beyond the pin).
        assert_eq!(lb.apply_aggregate(&u).packets, 100);
        assert_eq!(lb.observables().flows, 65_536);
    }

    #[test]
    fn non_ip_dropped() {
        let mut lb = LoadBalancer::from_params(&NfParams::new());
        let ctx = NfCtx::default();
        let mut garbage = PacketBuf::from_bytes(&[0u8; 20]);
        assert_eq!(lb.process(&ctx, &mut garbage), Verdict::Drop);
    }
}
