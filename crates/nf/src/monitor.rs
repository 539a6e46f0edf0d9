//! Monitor NF: per-flow statistics (Table 3).

use crate::flowmap::FlowMap;
use crate::snapshot::{Decoder, Encoder};
use crate::{
    AggregateObservables, AggregateOutcome, AggregateUpdate, NetworkFunction, NfCtx, NfKind,
    NfSnapshot, SnapshotError, Verdict,
};
use lemur_packet::flow::FiveTuple;
use lemur_packet::{ipv4, PacketBuf};

/// Statistics kept per flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    pub packets: u64,
    pub bytes: u64,
    pub first_seen_ns: u64,
    pub last_seen_ns: u64,
}

/// Per-flow statistics collector. Unclassifiable packets are counted in an
/// "other" bucket and forwarded — monitoring must never drop traffic.
pub struct Monitor {
    /// Flow → stats. Hash-table iteration order is arbitrary; snapshots
    /// and fingerprints sort entries so they stay canonical.
    flows: FlowMap<FlowStats>,
    other_packets: u64,
    other_bytes: u64,
    /// Analytic-tail mass from [`NetworkFunction::apply_aggregate`]:
    /// per-epoch observability, deliberately outside the snapshot wire
    /// format (migration carries exact state only).
    tail_packets: u64,
    tail_bytes: u64,
    tail_flows: u64,
}

impl Monitor {
    /// An empty monitor.
    pub fn new() -> Monitor {
        Monitor {
            flows: FlowMap::new(),
            other_packets: 0,
            other_bytes: 0,
            tail_packets: 0,
            tail_bytes: 0,
            tail_flows: 0,
        }
    }

    /// Number of distinct flows observed.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Stats for one flow.
    pub fn stats(&self, flow: &FiveTuple) -> Option<&FlowStats> {
        self.flows.get(flow)
    }

    /// Total packets seen (classified + other).
    pub fn total_packets(&self) -> u64 {
        self.flows.iter().map(|(_, s)| s.packets).sum::<u64>() + self.other_packets
    }

    /// Total bytes seen (classified + other).
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|(_, s)| s.bytes).sum::<u64>() + self.other_bytes
    }

    /// Drop flow records idle since before `cutoff_ns` (periodic GC).
    pub fn expire_idle(&mut self, cutoff_ns: u64) -> usize {
        let before = self.flows.len();
        self.flows.retain(|_, s| s.last_seen_ns >= cutoff_ns);
        before - self.flows.len()
    }

    /// Account one packet against its parsed 5-tuple (`None` goes to the
    /// "other" bucket).
    fn record(&mut self, now_ns: u64, len: u64, tuple: Option<&FiveTuple>) {
        let Some(tuple) = tuple else {
            self.other_packets += 1;
            self.other_bytes += len;
            return;
        };
        let s = self.flows.get_mut_or_insert_with(tuple, || FlowStats {
            first_seen_ns: now_ns,
            ..FlowStats::default()
        });
        s.packets += 1;
        s.bytes += len;
        s.last_seen_ns = now_ns;
    }
}

impl Default for Monitor {
    fn default() -> Self {
        Monitor::new()
    }
}

impl NetworkFunction for Monitor {
    fn kind(&self) -> NfKind {
        NfKind::Monitor
    }

    fn process(&mut self, ctx: &NfCtx, pkt: &mut PacketBuf) -> Verdict {
        let len = pkt.len() as u64;
        self.record(
            ctx.now_ns,
            len,
            FiveTuple::parse(pkt.as_slice()).ok().as_ref(),
        );
        Verdict::Forward
    }

    /// Monitoring state shards per flow, so the NF is replicable; merged
    /// counters are an aggregation concern, not a correctness one.
    fn is_stateful(&self) -> bool {
        false
    }

    fn clone_fresh(&self) -> Box<dyn NetworkFunction> {
        Box::new(Monitor::new())
    }

    fn snapshot_state(&self) -> Option<NfSnapshot> {
        let mut e = Encoder::new();
        e.u64(self.other_packets);
        e.u64(self.other_bytes);
        e.u32(self.flows.len() as u32);
        for (t, s) in self.flows.sorted_entries() {
            e.u32(t.src_ip.to_u32());
            e.u32(t.dst_ip.to_u32());
            e.u16(t.src_port);
            e.u16(t.dst_port);
            e.u8(t.protocol);
            e.u64(s.packets);
            e.u64(s.bytes);
            e.u64(s.first_seen_ns);
            e.u64(s.last_seen_ns);
        }
        Some(NfSnapshot::new(NfKind::Monitor, e.finish()))
    }

    fn restore_state(&mut self, snapshot: &NfSnapshot) -> Result<(), SnapshotError> {
        snapshot.expect_kind(NfKind::Monitor)?;
        let mut d = Decoder::new(&snapshot.payload);
        let other_packets = d.u64()?;
        let other_bytes = d.u64()?;
        let n = d.u32()? as usize;
        let mut staged: FlowMap<FlowStats> = FlowMap::new();
        for _ in 0..n {
            let t = FiveTuple {
                src_ip: ipv4::Address::from_u32(d.u32()?),
                dst_ip: ipv4::Address::from_u32(d.u32()?),
                src_port: d.u16()?,
                dst_port: d.u16()?,
                protocol: d.u8()?,
            };
            let s = FlowStats {
                packets: d.u64()?,
                bytes: d.u64()?,
                first_seen_ns: d.u64()?,
                last_seen_ns: d.u64()?,
            };
            if s.last_seen_ns < s.first_seen_ns {
                return Err(SnapshotError::Invalid("Monitor flow seen before it began"));
            }
            if staged.get(&t).is_some() {
                return Err(SnapshotError::Invalid("duplicate Monitor flow"));
            }
            *staged.get_mut_or_insert_with(&t, FlowStats::default) = s;
        }
        d.done()?;
        self.other_packets = other_packets;
        self.other_bytes = other_bytes;
        self.flows = staged;
        Ok(())
    }

    /// The tail crossed this monitor: count it — monitoring never drops,
    /// so the whole update passes through.
    fn apply_aggregate(&mut self, update: &AggregateUpdate) -> AggregateOutcome {
        self.tail_packets += update.packets;
        self.tail_bytes += update.bytes;
        self.tail_flows += update.new_flows;
        AggregateOutcome::pass(update)
    }

    fn observables(&self) -> AggregateObservables {
        AggregateObservables {
            packets: self.total_packets() + self.tail_packets,
            bytes: self.total_bytes() + self.tail_bytes,
            flows: self.num_flows() as u64 + self.tail_flows,
            scalar: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_packet::builder::udp_packet;
    use lemur_packet::{ethernet, ipv4};

    fn pkt(port: u16, len: usize) -> PacketBuf {
        udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(10, 0, 0, 1),
            ipv4::Address::new(10, 0, 0, 2),
            port,
            80,
            &vec![0u8; len],
        )
    }

    #[test]
    fn counts_per_flow() {
        let mut m = Monitor::new();
        for i in 0..5u64 {
            let ctx = NfCtx { now_ns: i * 1000 };
            assert_eq!(m.process(&ctx, &mut pkt(100, 10)), Verdict::Forward);
        }
        let ctx = NfCtx { now_ns: 99_999 };
        m.process(&ctx, &mut pkt(200, 10));
        assert_eq!(m.num_flows(), 2);
        let t = FiveTuple::parse(pkt(100, 10).as_slice()).unwrap();
        let s = m.stats(&t).unwrap();
        assert_eq!(s.packets, 5);
        assert_eq!(s.first_seen_ns, 0);
        assert_eq!(s.last_seen_ns, 4000);
        assert_eq!(m.total_packets(), 6);
    }

    #[test]
    fn byte_accounting() {
        let mut m = Monitor::new();
        let ctx = NfCtx::default();
        let mut p = pkt(1, 100);
        let expect = p.len() as u64;
        m.process(&ctx, &mut p);
        assert_eq!(m.total_bytes(), expect);
    }

    #[test]
    fn unparseable_counted_and_forwarded() {
        let mut m = Monitor::new();
        let ctx = NfCtx::default();
        let mut garbage = PacketBuf::from_bytes(&[1u8; 30]);
        assert_eq!(m.process(&ctx, &mut garbage), Verdict::Forward);
        assert_eq!(m.num_flows(), 0);
        assert_eq!(m.total_packets(), 1);
    }

    #[test]
    fn aggregate_adds_tail_mass_outside_snapshot() {
        let mut m = Monitor::new();
        m.process(&NfCtx::default(), &mut pkt(1, 10));
        let before = m.snapshot_state().unwrap();
        let out = m.apply_aggregate(&AggregateUpdate {
            packets: 1000,
            bytes: 64_000,
            new_flows: 50,
            window_start_ns: 0,
            window_end_ns: 1_000_000,
        });
        assert_eq!(out.packets, 1000);
        let obs = m.observables();
        assert_eq!(obs.packets, 1001);
        assert_eq!(obs.flows, 51);
        // Tail mass never leaks into the migration wire format.
        assert_eq!(m.snapshot_state().unwrap().payload, before.payload);
    }

    #[test]
    fn idle_expiry() {
        let mut m = Monitor::new();
        m.process(&NfCtx { now_ns: 0 }, &mut pkt(1, 1));
        m.process(&NfCtx { now_ns: 5_000 }, &mut pkt(2, 1));
        assert_eq!(m.expire_idle(1_000), 1);
        assert_eq!(m.num_flows(), 1);
    }
}
