//! Hostile-frame robustness of the server NF runtime.
//!
//! Hand-built hostile frames (empty, truncated, garbage, VLAN-tagged,
//! non-IPv4, bad IHL, non-UDP/TCP) are interleaved with valid flows and
//! fed through [`Subgroup`]s whose chains together cover all 14 NF kinds,
//! at batch sizes 1, 8, 32 and 64. For every batch:
//!
//! * no frame panics;
//! * survivors plus drops equal the frames fed, and the subgroup's
//!   `packets_in` / `packets_dropped` counters agree with that;
//! * two fresh subgroups fed the same stream — one through
//!   [`Subgroup::process_batch`], one packet by packet through
//!   [`Subgroup::process_packet`] (the engine's entry point) — give
//!   byte-identical survivors, identical exit gates and identical per-NF
//!   state fingerprints.

use lemur_bess::subgroup::Subgroup;
use lemur_nf::{build_nf, NfCtx, NfKind, NfParams};
use lemur_packet::batch::Batch;
use lemur_packet::builder::udp_packet;
use lemur_packet::{ethernet, ipv4, PacketBuf};

fn valid_pkt(dst: ipv4::Address, src_port: u16, payload: &[u8]) -> PacketBuf {
    udp_packet(
        ethernet::Address([2, 0, 0, 0, 0, 1]),
        ethernet::Address([2, 0, 0, 0, 0, 2]),
        ipv4::Address::new(203, 0, 113, 9),
        dst,
        src_port,
        443,
        payload,
    )
}

/// Hostile frames: every parse stage gets something it must reject.
fn adversarial_frames() -> Vec<PacketBuf> {
    let mut out = Vec::new();
    // Empty frame.
    out.push(PacketBuf::from_bytes(&[]));
    // Truncated ethernet header.
    out.push(PacketBuf::from_bytes(&[0xde, 0xad, 0xbe]));
    // Ethernet header only, no L3.
    let mut eth_only = vec![0u8; ethernet::HEADER_LEN];
    eth_only[12] = 0x08; // ethertype IPv4...
    eth_only[13] = 0x00; // ...but nothing follows.
    out.push(PacketBuf::from_bytes(&eth_only));
    // Non-IPv4 ethertype (ARP).
    let mut arp = vec![0u8; 60];
    arp[12] = 0x08;
    arp[13] = 0x06;
    out.push(PacketBuf::from_bytes(&arp));
    // VLAN-tagged frame (0x8100) — the plain IPv4 parser must reject it.
    let mut vlan = valid_pkt(ipv4::Address::new(10, 0, 0, 1), 1111, b"vlan")
        .as_slice()
        .to_vec();
    vlan.splice(12..12, [0x81, 0x00, 0x00, 0x2a]);
    out.push(PacketBuf::from_bytes(&vlan));
    // IPv4 header truncated mid-way.
    let full = valid_pkt(ipv4::Address::new(10, 0, 0, 2), 2222, b"trunc")
        .as_slice()
        .to_vec();
    out.push(PacketBuf::from_bytes(&full[..ethernet::HEADER_LEN + 7]));
    // IPv4 claiming IHL=15 with no options present.
    let mut bad_ihl = valid_pkt(ipv4::Address::new(10, 0, 0, 3), 3333, b"ihl")
        .as_slice()
        .to_vec();
    bad_ihl[ethernet::HEADER_LEN] = 0x4f;
    out.push(PacketBuf::from_bytes(&bad_ihl));
    // Non-UDP/TCP protocol (ICMP): no L4 tuple.
    let mut icmp = valid_pkt(ipv4::Address::new(10, 0, 0, 4), 4444, b"icmp")
        .as_slice()
        .to_vec();
    icmp[ethernet::HEADER_LEN + 9] = 1;
    out.push(PacketBuf::from_bytes(&icmp));
    // Pure garbage, longer than every header combined.
    let garbage: Vec<u8> = (0..96u16)
        .map(|i| (i.wrapping_mul(197) >> 3) as u8)
        .collect();
    out.push(PacketBuf::from_bytes(&garbage));
    out
}

/// Deterministic mixed stream: valid flows interleaved with every
/// adversarial frame, `n` packets long.
fn mixed_stream(n: usize, seed: u16) -> Vec<PacketBuf> {
    let hostile = adversarial_frames();
    (0..n)
        .map(|i| {
            if i % 3 == 2 {
                hostile[(seed as usize + i) % hostile.len()].clone()
            } else {
                let x = seed.wrapping_add(i as u16);
                valid_pkt(
                    ipv4::Address::new(10, (x % 5) as u8, 0, (x % 9) as u8 + 1),
                    5000 + (x % 37),
                    b"mixed stream payload",
                )
            }
        })
        .collect()
}

/// Chains that together cover all 14 NF kinds: every classifier and
/// every frame-rewriting NF.
fn coverage_chains() -> Vec<Vec<(NfKind, NfParams)>> {
    let p = NfParams::new;
    vec![
        vec![
            (NfKind::Acl, p()),
            (NfKind::Match, p()),
            (NfKind::Monitor, p()),
            (NfKind::Limiter, p()),
        ],
        vec![(NfKind::Nat, p()), (NfKind::Monitor, p())],
        vec![(NfKind::Lb, p()), (NfKind::Acl, p())],
        vec![(NfKind::Encrypt, p()), (NfKind::Decrypt, p())],
        vec![(NfKind::Tunnel, p()), (NfKind::Detunnel, p())],
        vec![
            (NfKind::Dedup, p()),
            (NfKind::UrlFilter, p()),
            (NfKind::Ipv4Fwd, p()),
        ],
        vec![(NfKind::FastEncrypt, p()), (NfKind::Monitor, p())],
    ]
}

fn subgroup(specs: &[(NfKind, NfParams)]) -> Subgroup {
    Subgroup::new("sg", specs.iter().map(|(k, p)| build_nf(*k, p)).collect())
}

#[test]
fn coverage_chains_cover_every_nf_kind() {
    let covered: std::collections::BTreeSet<String> = coverage_chains()
        .iter()
        .flatten()
        .map(|(k, _)| k.name().to_string())
        .collect();
    assert_eq!(covered.len(), NfKind::ALL.len());
}

#[test]
fn hostile_streams_are_conserved_and_deterministic_at_every_batch_size() {
    let mut total_dropped = 0u64;
    for (ci, specs) in coverage_chains().into_iter().enumerate() {
        for batch_size in [1usize, 8, 32, 64] {
            let mut batched = subgroup(&specs);
            let mut single = subgroup(&specs);
            let mut now_ns = 10_000u64;
            let (mut fed, mut dropped) = (0u64, 0u64);
            for round in 0..4u16 {
                let at = format!("chain {ci} batch={batch_size} round={round}");
                let stream = mixed_stream(batch_size, round.wrapping_mul(31) + ci as u16);
                let ctx = NfCtx { now_ns };
                let out = batched.process_batch(&ctx, stream.iter().cloned().collect::<Batch>());
                assert_eq!(
                    out.packets.len() + out.dropped,
                    stream.len(),
                    "{at}: frames lost"
                );
                fed += stream.len() as u64;
                dropped += out.dropped as u64;
                assert_eq!(batched.packets_in(), fed, "{at}: packets_in");
                assert_eq!(batched.packets_dropped(), dropped, "{at}: packets_dropped");

                // Survivor bytes AND exit gates, in order.
                let survivors: Vec<(PacketBuf, usize)> = stream
                    .into_iter()
                    .filter_map(|mut pkt| single.process_packet(&ctx, &mut pkt).map(|g| (pkt, g)))
                    .collect();
                assert_eq!(out.packets, survivors, "{at}: outputs diverged");
                assert_eq!(single.packets_in(), batched.packets_in(), "{at}");
                assert_eq!(single.packets_dropped(), batched.packets_dropped(), "{at}");
                for idx in 0..specs.len() {
                    assert_eq!(
                        batched.nf_state_fingerprint(idx),
                        single.nf_state_fingerprint(idx),
                        "{at}: NF {idx} state diverged"
                    );
                }
                now_ns += 1_000_000;
            }
            total_dropped += dropped;
        }
    }
    assert!(total_dropped > 0, "no hostile frame was ever dropped");
}
