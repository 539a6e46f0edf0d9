//! Property tests for the NF snapshot/restore protocol: a restored NF is
//! observationally identical to one that lived through its whole history
//! (same fingerprint AND same outputs on a random continuation trace),
//! and corruption is all-or-nothing — a corrupted wire image never
//! decodes, and a restore that fails leaves the target bit-identical.

use lemur_nf::dedup::Dedup;
use lemur_nf::lb::LoadBalancer;
use lemur_nf::limiter::Limiter;
use lemur_nf::monitor::Monitor;
use lemur_nf::nat::Nat;
use lemur_nf::{NetworkFunction, NfCtx, NfKind, NfParams, NfSnapshot, Verdict};
use lemur_packet::{ethernet, ipv4, PacketBuf};
use proptest::prelude::*;

const EXT: ipv4::Address = ipv4::Address::new(198, 18, 0, 1);

/// One random trace element: (src ip, src port, payload seed).
type Step = (u32, u16, u16);

fn frame(step: &Step) -> PacketBuf {
    let (ip, port, seed) = *step;
    let payload = [(seed >> 8) as u8, seed as u8, 0x5A, (ip >> 24) as u8];
    lemur_packet::builder::udp_packet(
        ethernet::Address([2, 0, 0, 0, 0, 1]),
        ethernet::Address([2, 0, 0, 0, 0, 2]),
        ipv4::Address::from_u32(ip),
        ipv4::Address::new(8, 8, 8, 8),
        port,
        53,
        &payload,
    )
}

/// Every snapshot-bearing stateful NF, freshly configured.
fn subjects() -> Vec<(&'static str, Box<dyn NetworkFunction>)> {
    vec![
        (
            "nat",
            Box::new(Nat::new(EXT, 4000, 256)) as Box<dyn NetworkFunction>,
        ),
        ("lb", Box::new(LoadBalancer::from_params(&NfParams::new()))),
        ("dedup", Box::new(Dedup::from_params(&NfParams::new()))),
        ("monitor", Box::new(Monitor::new())),
        ("limiter", Box::new(Limiter::new(1e9, 1e6))),
    ]
}

/// Replay a trace, returning every observable output (verdict + frame).
fn drive(nf: &mut dyn NetworkFunction, trace: &[Step], t0: u64) -> Vec<(Verdict, Vec<u8>)> {
    trace
        .iter()
        .enumerate()
        .map(|(i, step)| {
            let ctx = NfCtx {
                now_ns: t0 + 1_000 * i as u64,
            };
            let mut p = frame(step);
            let v = nf.process(&ctx, &mut p);
            (v, p.as_slice().to_vec())
        })
        .collect()
}

proptest! {
    /// Snapshot → wire → decode → restore is observationally identical to
    /// never having migrated: the fingerprints match, and an arbitrary
    /// continuation trace (re-hitting established state and creating new
    /// state) produces byte-identical outputs from both instances.
    #[test]
    fn restore_is_observationally_identical(
        establish in prop::collection::vec((any::<u32>(), any::<u16>(), any::<u16>()), 1..32),
        cont in prop::collection::vec((any::<u32>(), any::<u16>(), any::<u16>()), 0..32),
    ) {
        for (tag, mut golden) in subjects() {
            drive(&mut *golden, &establish, 0);
            let snap = golden.snapshot_state().expect("stateful NF exports state");
            let decoded = NfSnapshot::decode(&snap.encode()).expect("clean wire decodes");
            prop_assert_eq!(decoded.fingerprint(), snap.fingerprint());

            let mut restored = golden.clone_fresh();
            restored.restore_state(&decoded).expect("clean snapshot restores");
            prop_assert_eq!(
                golden.state_fingerprint(),
                restored.state_fingerprint(),
                "{}: fingerprint diverged after restore",
                tag
            );

            // Continuation replays established flows first, then new ones.
            let t0 = 1_000 * establish.len() as u64;
            let full: Vec<Step> = establish.iter().chain(cont.iter()).copied().collect();
            let a = drive(&mut *golden, &full, t0);
            let b = drive(&mut *restored, &full, t0);
            prop_assert_eq!(a, b, "{}: outputs diverged after restore", tag);
            prop_assert_eq!(
                golden.state_fingerprint(),
                restored.state_fingerprint(),
                "{}: state diverged after continuation",
                tag
            );
        }
    }

    /// Any single-byte corruption of any snapshot's wire image is caught
    /// at decode — framing or checksum — before a restore can even start.
    #[test]
    fn corrupted_wire_never_decodes(
        establish in prop::collection::vec((any::<u32>(), any::<u16>(), any::<u16>()), 1..16),
        pos in any::<u16>(),
        mask in 1u8..=255,
    ) {
        for (tag, mut nf) in subjects() {
            drive(&mut *nf, &establish, 0);
            let wire = nf.snapshot_state().expect("state").encode();
            let mut bad = wire.clone();
            let at = pos as usize % bad.len();
            bad[at] ^= mask;
            prop_assert!(
                NfSnapshot::decode(&bad).is_err(),
                "{}: corrupt byte {} accepted",
                tag,
                at
            );
        }
    }

    /// Restores are all-or-nothing. A payload-level corruption that
    /// passes wire framing (re-wrapped, so the checksum matches the
    /// corrupted bytes) either restores completely or is rejected with
    /// the target's own state left bit-identical — never half-applied.
    #[test]
    fn failed_restore_leaves_target_untouched(
        mine in prop::collection::vec((any::<u32>(), any::<u16>(), any::<u16>()), 1..16),
        theirs in prop::collection::vec((any::<u32>(), any::<u16>(), any::<u16>()), 1..16),
        pos in any::<u16>(),
        mask in 1u8..=255,
    ) {
        for (tag, mut source) in subjects() {
            drive(&mut *source, &theirs, 0);
            let snap = source.snapshot_state().expect("state");
            let mut payload = snap.payload.clone();
            if payload.is_empty() {
                continue;
            }
            let at = pos as usize % payload.len();
            payload[at] ^= mask;
            let forged = NfSnapshot::new(snap.kind, payload);

            let mut target = source.clone_fresh();
            drive(&mut *target, &mine, 0);
            let before = target.state_fingerprint();
            match target.restore_state(&forged) {
                // Semantically still valid: the corruption hit a benign
                // field and the state was replaced wholesale.
                Ok(()) => {}
                Err(_) => prop_assert_eq!(
                    target.state_fingerprint(),
                    before,
                    "{}: rejected restore mutated the target",
                    tag
                ),
            }
        }
    }
}

#[test]
fn kind_mismatch_rejected_without_mutation() {
    let mut nat = Nat::new(EXT, 4000, 64);
    let ctx = NfCtx::default();
    nat.process(&ctx, &mut frame(&(0x0a000001, 7777, 1)));
    let nat_snap = nat.snapshot_state().expect("nat state");
    assert_eq!(nat_snap.kind, NfKind::Nat);

    let mut lb = LoadBalancer::from_params(&NfParams::new());
    lb.process(&ctx, &mut frame(&(0x0a000002, 8888, 2)));
    let before = lb.state_fingerprint();
    assert!(lb.restore_state(&nat_snap).is_err());
    assert_eq!(lb.state_fingerprint(), before);
}

#[test]
fn huge_declared_counts_fail_without_reserving_memory() {
    // A record count of u32::MAX with no records behind it must run out of
    // bytes and be rejected, not reserve memory for four billion records.
    let mut lb = LoadBalancer::from_params(&NfParams::new());
    let before = lb.state_fingerprint();
    assert!(lb
        .restore_state(&NfSnapshot::new(NfKind::Lb, vec![0xFF; 4]))
        .is_err());
    assert_eq!(lb.state_fingerprint(), before);

    // NAT header (ip, 3 × u16, 3 × u64), then the binding count.
    let mut payload = vec![0u8; 4 + 3 * 2 + 3 * 8];
    payload.extend([0xFF; 4]);
    assert!(Nat::decode_bindings(&NfSnapshot::new(NfKind::Nat, payload)).is_err());
}
