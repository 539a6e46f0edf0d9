//! ACL NF: allow/deny on source/destination fields (Table 3).

use crate::{NetworkFunction, NfCtx, NfKind, NfParams, ParamValue, Verdict};
use lemur_packet::flow::{FiveTuple, PortRange};
use lemur_packet::ipv4::Cidr;
use lemur_packet::PacketBuf;

/// One ACL rule: a 5-tuple pattern plus an action.
#[derive(Debug, Clone)]
pub struct AclRule {
    pub src: Option<Cidr>,
    pub dst: Option<Cidr>,
    pub src_ports: PortRange,
    pub dst_ports: PortRange,
    pub protocol: Option<u8>,
    /// True = drop matching packets; false = allow.
    pub drop: bool,
}

impl AclRule {
    /// A rule matching everything.
    pub fn any(drop: bool) -> AclRule {
        AclRule {
            src: None,
            dst: None,
            src_ports: PortRange::ANY,
            dst_ports: PortRange::ANY,
            protocol: None,
            drop,
        }
    }

    fn matches(&self, t: &FiveTuple) -> bool {
        if let Some(c) = &self.src {
            if !c.contains(t.src_ip) {
                return false;
            }
        }
        if let Some(c) = &self.dst {
            if !c.contains(t.dst_ip) {
                return false;
            }
        }
        if !self.src_ports.contains(t.src_port) || !self.dst_ports.contains(t.dst_port) {
            return false;
        }
        if let Some(p) = self.protocol {
            if p != t.protocol {
                return false;
            }
        }
        true
    }
}

/// Access control list NF. First matching rule wins; packets matching no
/// rule are dropped (default-deny), matching the paper's example where an
/// `ACL(rules=[{'dst_ip':'10.0.0.0/8','drop': False}])` passes only
/// 10.0.0.0/8 traffic.
pub struct Acl {
    rules: Vec<AclRule>,
    /// Verdict when no rule matches.
    default_drop: bool,
}

impl Acl {
    /// Build from explicit rules.
    pub fn new(rules: Vec<AclRule>, default_drop: bool) -> Acl {
        Acl {
            rules,
            default_drop,
        }
    }

    /// Number of installed rules (drives the linear cycle-cost model).
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// The verdict for a parsed 5-tuple (`None` = unclassifiable traffic,
    /// which the ACL drops).
    fn verdict_for(&self, tuple: Option<&FiveTuple>) -> Verdict {
        let Some(tuple) = tuple else {
            return Verdict::Drop;
        };
        for rule in &self.rules {
            if rule.matches(tuple) {
                return if rule.drop {
                    Verdict::Drop
                } else {
                    Verdict::Forward
                };
            }
        }
        if self.default_drop {
            Verdict::Drop
        } else {
            Verdict::Forward
        }
    }

    /// Build from spec parameters. Recognized forms:
    /// `rules=[{'src_ip': CIDR, 'dst_ip': CIDR, 'proto': int, 'drop': bool}]`,
    /// plus `num_rules=N` to synthesize a table of N distinct allow rules
    /// (used by profiling experiments, e.g. "ACL (1024 rules)" in Table 4).
    pub fn from_params(params: &NfParams) -> Acl {
        let mut rules = Vec::new();
        if let Some(list) = params.get("rules").and_then(ParamValue::as_list) {
            for item in list {
                let Some(d) = item.as_dict() else { continue };
                let parse_cidr = |key: &str| {
                    d.get(key)
                        .and_then(ParamValue::as_str)
                        .and_then(|s| s.parse::<Cidr>().ok())
                };
                rules.push(AclRule {
                    src: parse_cidr("src_ip"),
                    dst: parse_cidr("dst_ip"),
                    src_ports: PortRange::ANY,
                    dst_ports: d
                        .get("dst_port")
                        .and_then(ParamValue::as_int)
                        .map(|p| PortRange::single(p as u16))
                        .unwrap_or(PortRange::ANY),
                    protocol: d.get("proto").and_then(ParamValue::as_int).map(|p| p as u8),
                    drop: d.get("drop").and_then(ParamValue::as_bool).unwrap_or(false),
                });
            }
        }
        if let Some(n) = params.get("num_rules").and_then(ParamValue::as_int) {
            rules.extend(synthetic_rules(n as usize));
        }
        if rules.is_empty() {
            // A bare `ACL` allows everything, so chains remain functional
            // when the operator provides rules out of band.
            rules.push(AclRule::any(false));
        }
        Acl {
            rules,
            default_drop: true,
        }
    }
}

/// Synthesize `n` distinct allow rules over 10.0.0.0/8 sub-prefixes, for
/// profiling tables of a controlled size.
pub fn synthetic_rules(n: usize) -> Vec<AclRule> {
    (0..n)
        .map(|i| {
            let b = ((i >> 8) & 0xff) as u8;
            let c = (i & 0xff) as u8;
            AclRule {
                src: None,
                dst: Some(Cidr::new(lemur_packet::ipv4::Address::new(10, b, c, 0), 24).unwrap()),
                src_ports: PortRange::ANY,
                dst_ports: PortRange::ANY,
                protocol: None,
                drop: false,
            }
        })
        .collect()
}

impl NetworkFunction for Acl {
    fn kind(&self) -> NfKind {
        NfKind::Acl
    }

    fn process(&mut self, _ctx: &NfCtx, pkt: &mut PacketBuf) -> Verdict {
        self.verdict_for(FiveTuple::parse(pkt.as_slice()).ok().as_ref())
    }

    fn clone_fresh(&self) -> Box<dyn NetworkFunction> {
        Box::new(Acl {
            rules: self.rules.clone(),
            default_drop: self.default_drop,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_packet::builder::udp_packet;
    use lemur_packet::{ethernet, ipv4};

    fn pkt(dst: ipv4::Address) -> PacketBuf {
        udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(198, 51, 100, 1),
            dst,
            1000,
            80,
            b"x",
        )
    }

    #[test]
    fn paper_example_rule() {
        // ACL(rules=[{'dst_ip':'10.0.0.0/8','drop': False}]) drops packets
        // other than those destined to 10.0.0.0/8.
        let mut params = NfParams::new();
        let mut d = std::collections::BTreeMap::new();
        d.insert("dst_ip".to_string(), ParamValue::Str("10.0.0.0/8".into()));
        d.insert("drop".to_string(), ParamValue::Bool(false));
        params.set("rules", ParamValue::List(vec![ParamValue::Dict(d)]));
        let mut acl = Acl::from_params(&params);
        let ctx = NfCtx::default();
        let mut inside = pkt(ipv4::Address::new(10, 1, 2, 3));
        let mut outside = pkt(ipv4::Address::new(192, 0, 2, 1));
        assert_eq!(acl.process(&ctx, &mut inside), Verdict::Forward);
        assert_eq!(acl.process(&ctx, &mut outside), Verdict::Drop);
    }

    #[test]
    fn first_match_wins() {
        let rules = vec![
            AclRule {
                dst: Some("10.0.0.0/8".parse().unwrap()),
                ..AclRule::any(true)
            },
            AclRule::any(false),
        ];
        let mut acl = Acl::new(rules, true);
        let ctx = NfCtx::default();
        assert_eq!(
            acl.process(&ctx, &mut pkt(ipv4::Address::new(10, 0, 0, 1))),
            Verdict::Drop
        );
        assert_eq!(
            acl.process(&ctx, &mut pkt(ipv4::Address::new(11, 0, 0, 1))),
            Verdict::Forward
        );
    }

    #[test]
    fn default_deny() {
        let mut acl = Acl::new(vec![], true);
        let ctx = NfCtx::default();
        assert_eq!(
            acl.process(&ctx, &mut pkt(ipv4::Address::new(1, 1, 1, 1))),
            Verdict::Drop
        );
    }

    #[test]
    fn bare_acl_allows() {
        let mut acl = Acl::from_params(&NfParams::new());
        let ctx = NfCtx::default();
        assert_eq!(
            acl.process(&ctx, &mut pkt(ipv4::Address::new(1, 1, 1, 1))),
            Verdict::Forward
        );
    }

    #[test]
    fn synthetic_table_size() {
        let mut params = NfParams::new();
        params.set("num_rules", ParamValue::Int(1024));
        let acl = Acl::from_params(&params);
        assert_eq!(acl.num_rules(), 1024);
    }

    #[test]
    fn garbage_packet_dropped() {
        let mut acl = Acl::new(vec![AclRule::any(false)], false);
        let ctx = NfCtx::default();
        let mut garbage = PacketBuf::from_bytes(&[0u8; 10]);
        assert_eq!(acl.process(&ctx, &mut garbage), Verdict::Drop);
    }

    #[test]
    fn clone_fresh_preserves_config() {
        let acl = Acl::new(synthetic_rules(5), true);
        let clone = acl.clone_fresh();
        assert_eq!(clone.kind(), NfKind::Acl);
    }
}
