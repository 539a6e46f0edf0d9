//! BPF-style `Match` NF: flexible classification onto output gates.
//!
//! Branch points in NF chains are realized by this NF: it evaluates a list
//! of (pattern → gate) entries and emits the packet on the first matching
//! gate, mirroring BESS's `BPF` module with output gates. The paper's
//! Chain 1 starts with `BPF` classifiers, and branching syntax like
//! `ACL -> [{'vlan_tag': 0x1, Encryption}] -> Forward` lowers to a Match.

use crate::{NetworkFunction, NfCtx, NfKind, NfParams, ParamValue, Verdict};
use lemur_packet::builder::vlan_peek;
use lemur_packet::flow::{salted_hash, FiveTuple, TrafficAggregate};
use lemur_packet::PacketBuf;

/// One classification entry.
#[derive(Debug, Clone)]
pub struct MatchEntry {
    /// Optional 5-tuple aggregate filter.
    pub aggregate: Option<TrafficAggregate>,
    /// Optional VLAN tag filter (the paper's `'vlan_tag': 0x1` example).
    pub vlan_tag: Option<u16>,
    /// Optional modular hash filter: matches when
    /// `symmetric_hash % modulus == remainder` — used to emulate the
    /// historical traffic splits operators configure at branches (§3.2).
    pub hash_split: Option<(u64, u64)>,
    /// Output gate for matching packets.
    pub gate: usize,
}

impl MatchEntry {
    fn matches(&self, pkt: &PacketBuf, tuple: Option<&FiveTuple>, salt: u8) -> bool {
        if let Some(tag) = self.vlan_tag {
            if vlan_peek(pkt.as_slice()) != Some(tag) {
                return false;
            }
        }
        if let Some(agg) = &self.aggregate {
            match tuple {
                Some(t) if agg.matches(t) => {}
                _ => return false,
            }
        }
        if let Some((modulus, remainder)) = self.hash_split {
            match tuple {
                Some(t) if salted_hash(t.symmetric_hash(), salt) % modulus == remainder => {}
                _ => return false,
            }
        }
        true
    }
}

/// The Match NF. Packets matching no entry go to `default_gate`.
pub struct Match {
    entries: Vec<MatchEntry>,
    default_gate: usize,
    /// Per-stage hash seed (see `lemur_packet::flow::salted_hash`).
    salt: u8,
}

impl Match {
    /// Build from explicit entries.
    pub fn new(entries: Vec<MatchEntry>, default_gate: usize) -> Match {
        Match {
            entries,
            default_gate,
            salt: 0,
        }
    }

    /// Set the per-stage hash seed (builder style).
    pub fn with_salt(mut self, salt: u8) -> Match {
        self.salt = salt;
        self
    }

    /// A match that splits traffic evenly over `n` gates by flow hash —
    /// the shape used for the paper's "3x NAT (branched)" fan-outs.
    pub fn even_split(n: usize) -> Match {
        assert!(n > 0);
        let entries = (0..n)
            .map(|g| MatchEntry {
                aggregate: Some(TrafficAggregate::any()),
                vlan_tag: None,
                hash_split: Some((n as u64, g as u64)),
                gate: g,
            })
            .collect();
        Match {
            entries,
            default_gate: 0,
            salt: 0,
        }
    }

    /// Build from spec parameters:
    /// `split=N` for an even N-way split (`salt=S` decorrelates successive
    /// splits), or `entries=[{'vlan_tag': T, 'gate': G}, ...]`.
    pub fn from_params(params: &NfParams) -> Match {
        let salt = params.int_or("salt", 0) as u8;
        if let Some(n) = params.get("split").and_then(ParamValue::as_int) {
            return Match::even_split(n.max(1) as usize).with_salt(salt);
        }
        let mut entries = Vec::new();
        if let Some(list) = params.get("entries").and_then(ParamValue::as_list) {
            for item in list {
                let Some(d) = item.as_dict() else { continue };
                entries.push(MatchEntry {
                    aggregate: None,
                    vlan_tag: d
                        .get("vlan_tag")
                        .and_then(ParamValue::as_int)
                        .map(|v| v as u16),
                    hash_split: None,
                    gate: d.get("gate").and_then(ParamValue::as_int).unwrap_or(0) as usize,
                });
            }
        }
        if entries.is_empty() {
            // A bare BPF matches everything onto gate 0.
            entries.push(MatchEntry {
                aggregate: Some(TrafficAggregate::any()),
                vlan_tag: None,
                hash_split: None,
                gate: 0,
            });
        }
        Match {
            entries,
            default_gate: 0,
            salt,
        }
    }

    /// Classify against the packet's parsed 5-tuple.
    fn classify(&self, pkt: &PacketBuf, tuple: Option<&FiveTuple>) -> Verdict {
        for e in &self.entries {
            if e.matches(pkt, tuple, self.salt) {
                return Verdict::Gate(e.gate);
            }
        }
        Verdict::Gate(self.default_gate)
    }

    /// Number of distinct output gates referenced.
    pub fn num_gates(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.gate + 1)
            .max()
            .unwrap_or(1)
            .max(self.default_gate + 1)
    }
}

impl NetworkFunction for Match {
    fn kind(&self) -> NfKind {
        NfKind::Match
    }

    fn process(&mut self, _ctx: &NfCtx, pkt: &mut PacketBuf) -> Verdict {
        let tuple = FiveTuple::parse(pkt.as_slice()).ok();
        self.classify(pkt, tuple.as_ref())
    }

    fn clone_fresh(&self) -> Box<dyn NetworkFunction> {
        Box::new(Match {
            entries: self.entries.clone(),
            default_gate: self.default_gate,
            salt: self.salt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_packet::builder::{udp_packet, vlan_push};
    use lemur_packet::{ethernet, ipv4};

    fn pkt(src_port: u16) -> PacketBuf {
        udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(10, 0, 0, 1),
            ipv4::Address::new(10, 0, 0, 2),
            src_port,
            80,
            b"x",
        )
    }

    #[test]
    fn even_split_covers_all_gates_and_is_deterministic() {
        let mut m = Match::even_split(3);
        let ctx = NfCtx::default();
        let mut seen = [0usize; 3];
        for port in 1000..1200 {
            let mut p = pkt(port);
            match m.process(&ctx, &mut p) {
                Verdict::Gate(g) => seen[g] += 1,
                other => panic!("unexpected verdict {other:?}"),
            }
            // Same packet always goes to the same gate.
            let mut p2 = pkt(port);
            let v2 = m.process(&ctx, &mut p2);
            let mut p3 = pkt(port);
            assert_eq!(v2, m.process(&ctx, &mut p3));
        }
        assert!(seen.iter().all(|&c| c > 20), "imbalanced split: {seen:?}");
        assert_eq!(m.num_gates(), 3);
    }

    #[test]
    fn vlan_tag_entry() {
        let entries = vec![MatchEntry {
            aggregate: None,
            vlan_tag: Some(0x1),
            hash_split: None,
            gate: 1,
        }];
        let mut m = Match::new(entries, 0);
        let ctx = NfCtx::default();
        let mut tagged = pkt(1);
        vlan_push(&mut tagged, 0x1);
        assert_eq!(m.process(&ctx, &mut tagged), Verdict::Gate(1));
        let mut untagged = pkt(1);
        assert_eq!(m.process(&ctx, &mut untagged), Verdict::Gate(0));
    }

    #[test]
    fn aggregate_entry() {
        let agg = TrafficAggregate::from_src_prefix("10.0.0.0/8".parse().unwrap());
        let entries = vec![MatchEntry {
            aggregate: Some(agg),
            vlan_tag: None,
            hash_split: None,
            gate: 2,
        }];
        let mut m = Match::new(entries, 5);
        let ctx = NfCtx::default();
        assert_eq!(m.process(&ctx, &mut pkt(1)), Verdict::Gate(2));
        assert_eq!(m.num_gates(), 6);
    }

    #[test]
    fn bare_match_forwards_to_gate_zero() {
        let mut m = Match::from_params(&NfParams::new());
        let ctx = NfCtx::default();
        assert_eq!(m.process(&ctx, &mut pkt(7)), Verdict::Gate(0));
    }

    #[test]
    fn split_param() {
        let mut params = NfParams::new();
        params.set("split", ParamValue::Int(4));
        let m = Match::from_params(&params);
        assert_eq!(m.num_gates(), 4);
    }
}
