//! Property-based tests of the PoX protocol: honest responses always
//! verify; any single-field tamper is always rejected.

use apex_pox::protocol::{PoxMeasurement, PoxResponse, PoxVerifier};
use asap::{AsapVerifier, PoxMode, VerifierSpec};
use openmsp430::mem::MemRegion;
use pox_crypto::hmac::HmacKey;
use proptest::prelude::*;
use vrased::swatt::CHAL_LEN;

const KEY: &[u8] = b"prop-key";

/// The prover's SW-Att MAC under `KEY` over `EXEC ‖ ER ‖ OR (‖ IVT)`.
fn mac(
    chal: &[u8; CHAL_LEN],
    exec: bool,
    (er, er_bytes): (MemRegion, &[u8]),
    (or, or_bytes): (MemRegion, &[u8]),
    ivt: Option<(MemRegion, &[u8])>,
) -> [u8; 32] {
    PoxMeasurement {
        exec,
        er,
        er_bytes,
        or,
        or_bytes,
        ivt,
    }
    .attest(&HmacKey::new(KEY), chal)
}

fn er_region() -> MemRegion {
    MemRegion::new(0xE000, 0xE1FF)
}

fn or_region() -> MemRegion {
    MemRegion::new(0x0300, 0x033F)
}

fn ivt_region() -> MemRegion {
    MemRegion::new(0xFFE0, 0xFFFF)
}

proptest! {
    /// APEX: honest responses verify for arbitrary ER/OR contents.
    #[test]
    fn honest_apex_roundtrip(
        er_bytes in proptest::collection::vec(any::<u8>(), 16..512),
        out in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut vrf = PoxVerifier::new(KEY, er_bytes.clone());
        let req = vrf.request(er_region(), or_region());
        let resp = PoxResponse {
            exec: true,
            mac: mac(&req.chal.0, true, (req.er, &er_bytes), (req.or, &out), None),
            output: out,
            ivt: None,
        };
        prop_assert!(vrf.verify_apex(&req, &resp).is_ok());
    }

    /// APEX: flipping any bit of the ER image breaks verification.
    #[test]
    fn er_bitflip_rejected(
        er_bytes in proptest::collection::vec(any::<u8>(), 16..256),
        idx in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut infected = er_bytes.clone();
        let i = idx % infected.len();
        infected[i] ^= 1 << bit;
        let mut vrf = PoxVerifier::new(KEY, er_bytes);
        let req = vrf.request(er_region(), or_region());
        let resp = PoxResponse {
            exec: true,
            output: b"out".to_vec(),
            ivt: None,
            mac: mac(&req.chal.0, true, (req.er, &infected), (req.or, b"out"), None),
        };
        prop_assert!(vrf.verify_apex(&req, &resp).is_err());
    }

    /// APEX: tampering with the claimed output after measurement fails.
    #[test]
    fn output_tamper_rejected(
        out in proptest::collection::vec(any::<u8>(), 1..64),
        idx in any::<usize>(),
    ) {
        let er_bytes = vec![0x4A; 64];
        let mut vrf = PoxVerifier::new(KEY, er_bytes.clone());
        let req = vrf.request(er_region(), or_region());
        let mut resp = PoxResponse {
            exec: true,
            mac: mac(&req.chal.0, true, (req.er, &er_bytes), (req.or, &out), None),
            output: out,
            ivt: None,
        };
        let i = idx % resp.output.len();
        resp.output[i] ^= 0xFF;
        prop_assert!(vrf.verify_apex(&req, &resp).is_err());
    }

    /// ASAP: an IVT whose in-ER entries match the spec's trusted-ISR map
    /// verifies; any in-ER entry not in the map is rejected.
    #[test]
    fn asap_ivt_policy(
        isr_vector in 0u8..16,
        isr_offset in (0u16..0x100).prop_map(|o| o & !1),
        rogue_vector in 0u8..16,
        rogue_offset in (0u16..0x100).prop_map(|o| o & !1),
    ) {
        prop_assume!(isr_vector != rogue_vector);
        prop_assume!(isr_offset != rogue_offset);
        let er = er_region();
        let isr_addr = er.start() + isr_offset;
        let rogue_addr = er.start() + rogue_offset;
        let spec = VerifierSpec {
            mode: PoxMode::Asap,
            er,
            or: or_region(),
            ivt_region: ivt_region(),
            expected_er: vec![0x4A; er.len() as usize],
            trusted_isrs: [(isr_vector, isr_addr)].into(),
        };
        let mut vrf = AsapVerifier::new(KEY, spec.clone());

        // Honest IVT: only the expected vector points into ER.
        let ivt = AsapVerifier::render_ivt(&[(isr_vector, isr_addr)]);
        let session = vrf.begin();
        let resp = PoxResponse {
            exec: true,
            output: b"out".to_vec(),
            mac: mac(
                session.request().chal.as_bytes(),
                true,
                (er, &spec.expected_er),
                (or_region(), b"out"),
                Some((ivt_region(), &ivt)),
            ),
            ivt: Some(ivt),
        };
        prop_assert!(session.evidence(resp).conclude(&vrf).is_verified());

        // Rogue IVT: another vector re-routed into ER.
        let bad_ivt =
            AsapVerifier::render_ivt(&[(isr_vector, isr_addr), (rogue_vector, rogue_addr)]);
        let session = vrf.begin();
        let resp = PoxResponse {
            exec: true,
            output: b"out".to_vec(),
            mac: mac(
                session.request().chal.as_bytes(),
                true,
                (er, &spec.expected_er),
                (or_region(), b"out"),
                Some((ivt_region(), &bad_ivt)),
            ),
            ivt: Some(bad_ivt),
        };
        prop_assert!(!session.evidence(resp).conclude(&vrf).is_verified());
    }

    /// Responses never verify under a different challenge (freshness).
    #[test]
    fn challenge_binding(out in proptest::collection::vec(any::<u8>(), 1..32)) {
        let er_bytes = vec![0x11; 64];
        let mut vrf = PoxVerifier::new(KEY, er_bytes.clone());
        let req1 = vrf.request(er_region(), or_region());
        let resp = PoxResponse {
            exec: true,
            mac: mac(&req1.chal.0, true, (req1.er, &er_bytes), (req1.or, &out), None),
            output: out,
            ivt: None,
        };
        let req2 = vrf.request(er_region(), or_region());
        prop_assert!(vrf.verify_apex(&req1, &resp).is_ok());
        prop_assert!(vrf.verify_apex(&req2, &resp).is_err());
    }
}
