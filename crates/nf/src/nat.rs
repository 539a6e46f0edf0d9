//! Carrier-grade NAT NF (Table 3).
//!
//! Source NAT: internal (ip, port) pairs are mapped to ports on a single
//! external address, allocated from a pool. The reverse map rewrites return
//! traffic. NAT is the second non-replicable NF (Table 3, bold): the paper
//! notes it *could* be replicated by partitioning the port space, but the
//! meta-compiler does not generate that replication yet (§3.2) — neither do
//! we.

use crate::snapshot::{Decoder, Encoder};
use crate::{
    AggregateObservables, AggregateOutcome, AggregateUpdate, NetworkFunction, NfCtx, NfKind,
    NfParams, NfSnapshot, ParamValue, SnapshotError, Verdict,
};
use lemur_packet::ethernet::{self, EtherType};
use lemur_packet::ipv4::{self, Protocol};
use lemur_packet::{tcp, udp, vlan, PacketBuf};
use std::collections::BTreeMap;

/// Internal endpoint key.
type Endpoint = (ipv4::Address, u16);

#[derive(Debug, Clone, Copy)]
struct Binding {
    external_port: u16,
    last_used_ns: u64,
}

/// Carrier-grade source NAT.
pub struct Nat {
    external_ip: ipv4::Address,
    port_base: u16,
    port_count: u16,
    /// internal endpoint → binding, in key order so snapshots are canonical
    /// and idle-eviction ties break deterministically.
    forward: BTreeMap<Endpoint, Binding>,
    /// external port → internal endpoint
    reverse: BTreeMap<u16, Endpoint>,
    next_port_hint: u16,
    /// Bindings idle longer than this are reclaimed when the pool is full.
    idle_timeout_ns: u64,
    /// Prefix considered "internal"; traffic *to* `external_ip` is treated
    /// as return traffic.
    translated: u64,
    dropped_no_ports: u64,
    /// Port-pool mass claimed by analytic-tail flows
    /// ([`NetworkFunction::apply_aggregate`]): consumes pool capacity but
    /// stays outside the snapshot wire format.
    tail_flows: u64,
}

impl Nat {
    /// Create a NAT with an external IP and a port pool `[base, base+count)`.
    pub fn new(external_ip: ipv4::Address, port_base: u16, port_count: u16) -> Nat {
        assert!(port_count > 0);
        Nat {
            external_ip,
            port_base,
            port_count,
            forward: BTreeMap::new(),
            reverse: BTreeMap::new(),
            next_port_hint: 0,
            idle_timeout_ns: 60_000_000_000, // 60 s
            translated: 0,
            dropped_no_ports: 0,
            tail_flows: 0,
        }
    }

    /// Build from spec parameters: `entries` (pool size, default 12000 to
    /// match Table 4's "NAT (12000 entries)") and `external_ip`.
    pub fn from_params(params: &NfParams) -> Nat {
        let count = params
            .get("entries")
            .and_then(ParamValue::as_int)
            .unwrap_or(12_000)
            .clamp(1, 60_000) as u16;
        let ip = params
            .str_or("external_ip", "198.18.0.1")
            .parse()
            .unwrap_or(ipv4::Address::new(198, 18, 0, 1));
        Nat::new(ip, 2048, count)
    }

    /// Number of active bindings.
    pub fn active_bindings(&self) -> usize {
        self.forward.len()
    }

    /// Packets successfully translated.
    pub fn translated(&self) -> u64 {
        self.translated
    }

    /// Packets dropped because the port pool was exhausted.
    pub fn dropped_no_ports(&self) -> u64 {
        self.dropped_no_ports
    }

    fn allocate_port(&mut self, now_ns: u64) -> Option<u16> {
        // Linear probe from the hint; ports are dense so this is O(1)
        // amortized until the pool saturates.
        for i in 0..self.port_count {
            let idx = (self.next_port_hint + i) % self.port_count;
            let port = self.port_base + idx;
            if !self.reverse.contains_key(&port) {
                self.next_port_hint = (idx + 1) % self.port_count;
                return Some(port);
            }
        }
        // Pool full: evict the most idle binding if it has expired.
        let victim = self
            .forward
            .iter()
            .min_by_key(|(_, b)| b.last_used_ns)
            .map(|(ep, b)| (*ep, *b))?;
        if now_ns.saturating_sub(victim.1.last_used_ns) >= self.idle_timeout_ns {
            self.forward.remove(&victim.0);
            self.reverse.remove(&victim.1.external_port);
            Some(victim.1.external_port)
        } else {
            None
        }
    }

    fn encode_state(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u32(self.external_ip.to_u32());
        e.u16(self.port_base);
        e.u16(self.port_count);
        e.u16(self.next_port_hint);
        e.u64(self.idle_timeout_ns);
        e.u64(self.translated);
        e.u64(self.dropped_no_ports);
        e.u32(self.forward.len() as u32);
        for ((ip, port), b) in &self.forward {
            e.u32(ip.to_u32());
            e.u16(*port);
            e.u16(b.external_port);
            e.u64(b.last_used_ns);
        }
        e.finish()
    }

    /// Decode a NAT snapshot's binding table without building a `Nat`:
    /// `(external_ip, bindings)` in canonical key order. This is the
    /// hand-off point for cross-platform migration — the dataplane turns
    /// these rows into P4 table entries when a NAT node moves from a
    /// server onto the ToR.
    pub fn decode_bindings(
        snapshot: &NfSnapshot,
    ) -> Result<(ipv4::Address, Vec<NatBinding>), SnapshotError> {
        snapshot.expect_kind(NfKind::Nat)?;
        let mut d = Decoder::new(&snapshot.payload);
        let external_ip = ipv4::Address::from_u32(d.u32()?);
        let _port_base = d.u16()?;
        let _port_count = d.u16()?;
        let _hint = d.u16()?;
        let _idle = d.u64()?;
        let _translated = d.u64()?;
        let _dropped = d.u64()?;
        let n = d.u32()? as usize;
        // The count is untrusted input: reserve at most a bounded prefix.
        let mut bindings = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let ip = ipv4::Address::from_u32(d.u32()?);
            let int_port = d.u16()?;
            let ext_port = d.u16()?;
            let _last_used = d.u64()?;
            bindings.push((ip, int_port, ext_port));
        }
        d.done()?;
        Ok((external_ip, bindings))
    }
}

/// One decoded NAT binding: `(internal_ip, internal_port, external_port)`.
pub type NatBinding = (ipv4::Address, u16, u16);

/// Where the L3/L4 headers sit, shared with other rewriting NFs.
fn l3_offset(frame: &[u8]) -> Option<usize> {
    let eth = ethernet::Frame::new_checked(frame).ok()?;
    match eth.ethertype() {
        EtherType::Ipv4 => Some(ethernet::HEADER_LEN),
        EtherType::Vlan => {
            let tag = vlan::Tag::new_checked(eth.payload()).ok()?;
            (tag.inner_ethertype() == EtherType::Ipv4)
                .then_some(ethernet::HEADER_LEN + vlan::TAG_LEN)
        }
        _ => None,
    }
}

impl NetworkFunction for Nat {
    fn kind(&self) -> NfKind {
        NfKind::Nat
    }

    fn process(&mut self, ctx: &NfCtx, pkt: &mut PacketBuf) -> Verdict {
        let Some(l3) = l3_offset(pkt.as_slice()) else {
            return Verdict::Drop;
        };
        let (src, dst, protocol, l4) = {
            let Ok(ip) = ipv4::Packet::new_checked(&pkt.as_slice()[l3..]) else {
                return Verdict::Drop;
            };
            (
                ip.src(),
                ip.dst(),
                ip.protocol(),
                l3 + ip.header_len() as usize,
            )
        };
        if !matches!(protocol, Protocol::Udp | Protocol::Tcp) {
            return Verdict::Drop;
        }
        let (src_port, dst_port) = {
            let data = pkt.as_slice();
            match protocol {
                Protocol::Udp => {
                    let Ok(u) = udp::Packet::new_checked(&data[l4..]) else {
                        return Verdict::Drop;
                    };
                    (u.src_port(), u.dst_port())
                }
                _ => {
                    let Ok(t) = tcp::Packet::new_checked(&data[l4..]) else {
                        return Verdict::Drop;
                    };
                    (t.src_port(), t.dst_port())
                }
            }
        };

        // Inbound return traffic: destination is our external address.
        if dst == self.external_ip {
            let Some(&(int_ip, int_port)) = self.reverse.get(&dst_port) else {
                return Verdict::Drop; // no binding
            };
            if let Some(b) = self.forward.get_mut(&(int_ip, int_port)) {
                b.last_used_ns = ctx.now_ns;
            }
            rewrite(pkt, l3, l4, protocol, None, Some((int_ip, int_port)));
            self.translated += 1;
            return Verdict::Forward;
        }

        // Outbound: translate source.
        let key = (src, src_port);
        let port = match self.forward.get_mut(&key) {
            Some(b) => {
                b.last_used_ns = ctx.now_ns;
                b.external_port
            }
            None => {
                let Some(port) = self.allocate_port(ctx.now_ns) else {
                    self.dropped_no_ports += 1;
                    return Verdict::Drop;
                };
                self.forward.insert(
                    key,
                    Binding {
                        external_port: port,
                        last_used_ns: ctx.now_ns,
                    },
                );
                self.reverse.insert(port, key);
                port
            }
        };
        rewrite(pkt, l3, l4, protocol, Some((self.external_ip, port)), None);
        self.translated += 1;
        Verdict::Forward
    }

    fn is_stateful(&self) -> bool {
        true
    }

    fn clone_fresh(&self) -> Box<dyn NetworkFunction> {
        Box::new(Nat::new(self.external_ip, self.port_base, self.port_count))
    }

    fn snapshot_state(&self) -> Option<NfSnapshot> {
        Some(NfSnapshot::new(NfKind::Nat, self.encode_state()))
    }

    /// Tail flows claim ports from the same finite pool the exact bindings
    /// draw on; packets of flows that cannot bind are dropped. Bound tail
    /// flows pass, so the per-packet mass scales by the bound fraction.
    fn apply_aggregate(&mut self, update: &AggregateUpdate) -> AggregateOutcome {
        let free = (self.port_count as u64)
            .saturating_sub(self.forward.len() as u64)
            .saturating_sub(self.tail_flows);
        let bound = update.new_flows.min(free);
        let refused = update.new_flows - bound;
        self.tail_flows += bound;
        if refused == 0 || update.new_flows == 0 {
            self.translated += update.packets;
            return AggregateOutcome::pass(update);
        }
        // Unbindable flows lose their whole window share (integer split;
        // the remainder stays with admitted traffic so mass is conserved).
        let lost_packets = update.packets * refused / update.new_flows;
        let admitted = update.packets - lost_packets;
        self.dropped_no_ports += lost_packets;
        self.translated += admitted;
        AggregateOutcome {
            packets: admitted,
            bytes: admitted * update.frame_len(),
        }
    }

    fn observables(&self) -> AggregateObservables {
        AggregateObservables {
            packets: self.translated,
            bytes: 0,
            flows: self.forward.len() as u64 + self.tail_flows,
            scalar: 0.0,
        }
    }

    fn restore_state(&mut self, snapshot: &NfSnapshot) -> Result<(), SnapshotError> {
        snapshot.expect_kind(NfKind::Nat)?;
        let mut d = Decoder::new(&snapshot.payload);
        let external_ip = ipv4::Address::from_u32(d.u32()?);
        let port_base = d.u16()?;
        let port_count = d.u16()?;
        if port_count == 0 {
            return Err(SnapshotError::Invalid("NAT port pool is empty"));
        }
        let next_port_hint = d.u16()?;
        if next_port_hint >= port_count {
            return Err(SnapshotError::Invalid("NAT port hint outside pool"));
        }
        let idle_timeout_ns = d.u64()?;
        let translated = d.u64()?;
        let dropped_no_ports = d.u64()?;
        let n = d.u32()? as usize;
        if n > port_count as usize {
            return Err(SnapshotError::Invalid("NAT has more bindings than ports"));
        }
        // Stage into fresh maps; commit only after the whole payload
        // validates so a corrupt snapshot can never be half-applied.
        let mut forward = BTreeMap::new();
        let mut reverse = BTreeMap::new();
        for _ in 0..n {
            let ip = ipv4::Address::from_u32(d.u32()?);
            let int_port = d.u16()?;
            let ext_port = d.u16()?;
            let last_used_ns = d.u64()?;
            let in_pool =
                ext_port >= port_base && (ext_port as u32) < port_base as u32 + port_count as u32;
            if !in_pool {
                return Err(SnapshotError::Invalid("NAT binding outside port pool"));
            }
            if reverse.insert(ext_port, (ip, int_port)).is_some() {
                return Err(SnapshotError::Invalid("duplicate NAT external port"));
            }
            let binding = Binding {
                external_port: ext_port,
                last_used_ns,
            };
            if forward.insert((ip, int_port), binding).is_some() {
                return Err(SnapshotError::Invalid("duplicate NAT internal endpoint"));
            }
        }
        d.done()?;
        self.external_ip = external_ip;
        self.port_base = port_base;
        self.port_count = port_count;
        self.next_port_hint = next_port_hint;
        self.idle_timeout_ns = idle_timeout_ns;
        self.translated = translated;
        self.dropped_no_ports = dropped_no_ports;
        self.forward = forward;
        self.reverse = reverse;
        Ok(())
    }
}

/// Rewrite src and/or dst (ip, port) and refresh checksums.
fn rewrite(
    pkt: &mut PacketBuf,
    l3: usize,
    l4: usize,
    protocol: Protocol,
    new_src: Option<(ipv4::Address, u16)>,
    new_dst: Option<(ipv4::Address, u16)>,
) {
    let data = pkt.as_mut_slice();
    {
        let mut ip = ipv4::Packet::new_unchecked(&mut data[l3..]);
        if let Some((a, _)) = new_src {
            ip.set_src(a);
        }
        if let Some((a, _)) = new_dst {
            ip.set_dst(a);
        }
        ip.fill_checksum();
    }
    let (src, dst) = {
        let ip = ipv4::Packet::new_unchecked(&data[l3..]);
        (ip.src(), ip.dst())
    };
    match protocol {
        Protocol::Udp => {
            let mut u = udp::Packet::new_unchecked(&mut data[l4..]);
            if let Some((_, p)) = new_src {
                u.set_src_port(p);
            }
            if let Some((_, p)) = new_dst {
                u.set_dst_port(p);
            }
            u.fill_checksum(src, dst);
        }
        Protocol::Tcp => {
            let mut t = tcp::Packet::new_unchecked(&mut data[l4..]);
            if let Some((_, p)) = new_src {
                t.set_src_port(p);
            }
            if let Some((_, p)) = new_dst {
                t.set_dst_port(p);
            }
            t.fill_checksum(src, dst);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_packet::builder::udp_packet;
    use lemur_packet::flow::FiveTuple;

    const EXT: ipv4::Address = ipv4::Address::new(198, 18, 0, 1);

    fn outbound(src_port: u16) -> PacketBuf {
        udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(192, 168, 1, 10),
            ipv4::Address::new(8, 8, 8, 8),
            src_port,
            53,
            b"query",
        )
    }

    #[test]
    fn outbound_translation_and_return() {
        let mut nat = Nat::new(EXT, 5000, 100);
        let ctx = NfCtx::default();
        let mut out = outbound(3333);
        assert_eq!(nat.process(&ctx, &mut out), Verdict::Forward);
        let t = FiveTuple::parse(out.as_slice()).unwrap();
        assert_eq!(t.src_ip, EXT);
        assert!(t.src_port >= 5000 && t.src_port < 5100);
        assert_eq!(t.dst_ip, ipv4::Address::new(8, 8, 8, 8));

        // Craft the return packet to the external binding.
        let mut back = udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ipv4::Address::new(8, 8, 8, 8),
            EXT,
            53,
            t.src_port,
            b"reply",
        );
        assert_eq!(nat.process(&ctx, &mut back), Verdict::Forward);
        let rt = FiveTuple::parse(back.as_slice()).unwrap();
        assert_eq!(rt.dst_ip, ipv4::Address::new(192, 168, 1, 10));
        assert_eq!(rt.dst_port, 3333);
        assert_eq!(nat.translated(), 2);
    }

    #[test]
    fn bindings_are_stable_per_flow() {
        let mut nat = Nat::new(EXT, 5000, 100);
        let ctx = NfCtx::default();
        let mut a = outbound(1000);
        let mut b = outbound(1000);
        nat.process(&ctx, &mut a);
        nat.process(&ctx, &mut b);
        let pa = FiveTuple::parse(a.as_slice()).unwrap().src_port;
        let pb = FiveTuple::parse(b.as_slice()).unwrap().src_port;
        assert_eq!(pa, pb);
        assert_eq!(nat.active_bindings(), 1);
    }

    #[test]
    fn distinct_flows_get_distinct_ports() {
        let mut nat = Nat::new(EXT, 5000, 100);
        let ctx = NfCtx::default();
        let mut seen = std::collections::HashSet::new();
        for port in 1000..1020 {
            let mut p = outbound(port);
            nat.process(&ctx, &mut p);
            seen.insert(FiveTuple::parse(p.as_slice()).unwrap().src_port);
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn pool_exhaustion_drops() {
        let mut nat = Nat::new(EXT, 5000, 4);
        let ctx = NfCtx::default();
        for port in 1..=4 {
            assert_eq!(nat.process(&ctx, &mut outbound(port)), Verdict::Forward);
        }
        assert_eq!(nat.process(&ctx, &mut outbound(99)), Verdict::Drop);
        assert_eq!(nat.dropped_no_ports(), 1);
    }

    #[test]
    fn idle_binding_reclaimed() {
        let mut nat = Nat::new(EXT, 5000, 2);
        nat.process(&NfCtx { now_ns: 0 }, &mut outbound(1));
        nat.process(&NfCtx { now_ns: 0 }, &mut outbound(2));
        // 120 s later both are idle; a new flow evicts the oldest.
        let late = NfCtx {
            now_ns: 120_000_000_000,
        };
        assert_eq!(nat.process(&late, &mut outbound(3)), Verdict::Forward);
        assert_eq!(nat.active_bindings(), 2);
    }

    #[test]
    fn return_without_binding_dropped() {
        let mut nat = Nat::new(EXT, 5000, 10);
        let ctx = NfCtx::default();
        let mut stray = udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ipv4::Address::new(8, 8, 8, 8),
            EXT,
            53,
            5001,
            b"stray",
        );
        assert_eq!(nat.process(&ctx, &mut stray), Verdict::Drop);
    }

    #[test]
    fn checksums_valid_after_translation() {
        let mut nat = Nat::new(EXT, 5000, 10);
        let ctx = NfCtx::default();
        let mut p = outbound(1234);
        nat.process(&ctx, &mut p);
        let eth = ethernet::Frame::new_checked(p.as_slice()).unwrap();
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        let u = udp::Packet::new_checked(ip.payload()).unwrap();
        assert!(u.verify_checksum(ip.src(), ip.dst()));
    }

    #[test]
    fn aggregate_flows_respect_port_pool() {
        let mut nat = Nat::new(EXT, 5000, 10);
        // Two exact bindings occupy part of the pool.
        let ctx = NfCtx::default();
        nat.process(&ctx, &mut outbound(1));
        nat.process(&ctx, &mut outbound(2));
        // 12 tail flows want ports but only 8 remain: 4 flows (and their
        // third of the packets) are refused.
        let out = nat.apply_aggregate(&AggregateUpdate {
            packets: 120,
            bytes: 12_000,
            new_flows: 12,
            window_start_ns: 0,
            window_end_ns: 1_000_000,
        });
        assert_eq!(out.packets, 80);
        assert_eq!(nat.dropped_no_ports(), 40);
        assert_eq!(nat.observables().flows, 10);
        // The pool is saturated: a later pure-packet window binds nothing.
        let out = nat.apply_aggregate(&AggregateUpdate {
            packets: 10,
            bytes: 1_000,
            new_flows: 5,
            window_start_ns: 1_000_000,
            window_end_ns: 2_000_000,
        });
        assert_eq!(out.packets, 0);
    }

    #[test]
    fn table4_default_pool_size() {
        let nat = Nat::from_params(&NfParams::new());
        assert_eq!(nat.port_count, 12_000);
        assert!(nat.is_stateful());
    }
}
