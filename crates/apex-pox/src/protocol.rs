//! The PoX protocol: APEX's extension of remote attestation with
//! execution evidence.
//!
//! The verifier sends a challenge; the prover executes `ER`, then runs
//! SW-Att, whose measurement covers the `EXEC` flag, the executable
//! region `ER` and the output region `OR` (§2.3). The response proves —
//! under the monitor's guarantees — that the *expected* code executed
//! and produced the *claimed* outputs.

use openmsp430::mem::MemRegion;
use pox_crypto::hmac::{ct_eq, HmacKey};
use std::error::Error;
use std::fmt;
use vrased::protocol::Challenge;
use vrased::swatt::{Transcript, CHAL_LEN, MAC_LEN};

/// Measurement labels (domain separation within the SW-Att transcript).
pub mod labels {
    /// The `EXEC` flag.
    pub const EXEC: &str = "exec";
    /// The executable region.
    pub const ER: &str = "er";
    /// The output region.
    pub const OR: &str = "or";
    /// The interrupt vector table (ASAP extension).
    pub const IVT: &str = "ivt";
}

/// A PoX request: challenge plus the `ER`/`OR` geometry to prove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoxRequest {
    /// The verifier challenge.
    pub chal: Challenge,
    /// Requested executable region.
    pub er: MemRegion,
    /// Requested output region.
    pub or: MemRegion,
}

/// A PoX response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoxResponse {
    /// The reported `EXEC` flag.
    pub exec: bool,
    /// The claimed output bytes (contents of `OR`).
    pub output: Vec<u8>,
    /// The reported IVT bytes (present under ASAP, absent under APEX).
    pub ivt: Option<Vec<u8>>,
    /// The attestation MAC over `EXEC ‖ ER ‖ OR (‖ IVT)`.
    pub mac: [u8; MAC_LEN],
}

/// What a PoX measurement covers: `EXEC ‖ ER ‖ OR (‖ IVT)`, each region
/// with its start address. Both the prover (over device memory) and the
/// verifier (over expected contents) build one, which guarantees
/// transcript agreement; neither copies a region to do so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoxMeasurement<'a> {
    /// The `EXEC` flag.
    pub exec: bool,
    /// The executable region.
    pub er: MemRegion,
    /// Its bytes.
    pub er_bytes: &'a [u8],
    /// The output region.
    pub or: MemRegion,
    /// Its bytes.
    pub or_bytes: &'a [u8],
    /// The IVT region and bytes (ASAP only).
    pub ivt: Option<(MemRegion, &'a [u8])>,
}

impl<'a> PoxMeasurement<'a> {
    /// The measured items in transcript order: `(label, start, bytes)`.
    pub fn items(&self) -> impl Iterator<Item = (&'static str, u16, &'a [u8])> {
        let exec: &'static [u8] = if self.exec { &[1] } else { &[0] };
        [
            Some((labels::EXEC, 0, exec)),
            Some((labels::ER, self.er.start(), self.er_bytes)),
            Some((labels::OR, self.or.start(), self.or_bytes)),
            self.ivt
                .map(|(region, bytes)| (labels::IVT, region.start(), bytes)),
        ]
        .into_iter()
        .flatten()
    }

    /// Bytes SW-Att measures (item bytes, framing excluded): the input
    /// of `vrased::swatt::swatt_cycle_cost`.
    pub fn measured_len(&self) -> usize {
        self.items().map(|(_, _, bytes)| bytes.len()).sum()
    }

    /// The attestation MAC: every item streamed into an SW-Att
    /// [`Transcript`] under `chal`.
    pub fn attest(&self, key: &HmacKey, chal: &[u8; CHAL_LEN]) -> [u8; MAC_LEN] {
        let mut t = Transcript::begin(key, chal);
        for (label, start, bytes) in self.items() {
            t.measure(label, start, bytes);
        }
        t.finish()
    }
}

/// Why PoX verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoxError {
    /// The prover reported `EXEC = 0`: execution did not happen or was
    /// tampered with.
    NotExecuted,
    /// The MAC does not bind the expected `ER`/outputs/IVT.
    BadMac,
    /// The reported IVT routes an in-`ER` vector to an address that is
    /// not an expected ISR entry point (ASAP verifier check, §4.2).
    UnexpectedIsrEntry {
        /// The offending vector number.
        vector: u8,
        /// Where it pointed.
        target: u16,
    },
    /// ASAP response expected an IVT report, or vice versa.
    MissingIvt,
}

impl fmt::Display for PoxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoxError::NotExecuted => write!(f, "EXEC = 0: execution proof invalid"),
            PoxError::BadMac => write!(f, "PoX MAC mismatch"),
            PoxError::UnexpectedIsrEntry { vector, target } => {
                write!(f, "IVT vector {vector} points into ER at {target:#06x}, which is not an expected ISR entry")
            }
            PoxError::MissingIvt => write!(f, "response lacks the attested IVT"),
        }
    }
}

impl Error for PoxError {}

/// The PoX verifier: shares the device key, knows the expected `ER`
/// binary, and (under ASAP) the expected trusted-ISR entry points.
/// `Debug` leaves the key out.
#[derive(Clone)]
pub struct PoxVerifier {
    key: HmacKey,
    counter: u64,
    /// Expected bytes of `ER` (the shipped binary).
    pub expected_er: Vec<u8>,
}

impl fmt::Debug for PoxVerifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoxVerifier")
            .field("counter", &self.counter)
            .field("expected_er_len", &self.expected_er.len())
            .finish_non_exhaustive()
    }
}

impl PoxVerifier {
    /// Creates a verifier expecting the given `ER` binary.
    pub fn new(key: &[u8], expected_er: Vec<u8>) -> PoxVerifier {
        PoxVerifier {
            key: HmacKey::new(key),
            counter: 0,
            expected_er,
        }
    }

    /// Issues a fresh PoX request.
    pub fn request(&mut self, er: MemRegion, or: MemRegion) -> PoxRequest {
        self.counter += 1;
        PoxRequest {
            chal: Challenge::from_counter(self.counter),
            er,
            or,
        }
    }

    /// Verifies an APEX-style response (no IVT attestation; the
    /// execution must have been interrupt-free by construction).
    ///
    /// # Errors
    ///
    /// [`PoxError::NotExecuted`] when `EXEC = 0`, [`PoxError::BadMac`] on
    /// transcript mismatch.
    pub fn verify_apex(&self, req: &PoxRequest, resp: &PoxResponse) -> Result<(), PoxError> {
        if !resp.exec {
            return Err(PoxError::NotExecuted);
        }
        let want = PoxMeasurement {
            exec: true,
            er: req.er,
            er_bytes: &self.expected_er,
            or: req.or,
            or_bytes: &resp.output,
            ivt: None,
        }
        .attest(&self.key, &req.chal.0);
        if !ct_eq(&want, &resp.mac) {
            return Err(PoxError::BadMac);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region_er() -> MemRegion {
        MemRegion::new(0xE000, 0xE1FF)
    }

    fn region_or() -> MemRegion {
        MemRegion::new(0x0300, 0x033F)
    }

    fn apex<'a>(
        exec: bool,
        req: &PoxRequest,
        er_bytes: &'a [u8],
        out: &'a [u8],
    ) -> PoxMeasurement<'a> {
        PoxMeasurement {
            exec,
            er: req.er,
            er_bytes,
            or: req.or,
            or_bytes: out,
            ivt: None,
        }
    }

    fn honest_response(key: &[u8], req: &PoxRequest, er_bytes: &[u8], out: &[u8]) -> PoxResponse {
        PoxResponse {
            exec: true,
            output: out.to_vec(),
            ivt: None,
            mac: apex(true, req, er_bytes, out).attest(&HmacKey::new(key), &req.chal.0),
        }
    }

    #[test]
    fn honest_pox_verifies() {
        let key = b"k";
        let er_bytes = vec![0x4A; 512];
        let mut vrf = PoxVerifier::new(key, er_bytes.clone());
        let req = vrf.request(region_er(), region_or());
        let resp = honest_response(key, &req, &er_bytes, b"sensor=42");
        assert!(vrf.verify_apex(&req, &resp).is_ok());
    }

    #[test]
    fn exec_zero_rejected() {
        let key = b"k";
        let er_bytes = vec![0x4A; 512];
        let mut vrf = PoxVerifier::new(key, er_bytes.clone());
        let req = vrf.request(region_er(), region_or());
        let mut resp = honest_response(key, &req, &er_bytes, b"out");
        resp.exec = false;
        assert_eq!(vrf.verify_apex(&req, &resp), Err(PoxError::NotExecuted));
    }

    #[test]
    fn forged_exec_flag_fails_mac() {
        // Prover measured EXEC=0 but claims EXEC=1 in the clear: the MAC
        // was computed over 0, so verification fails.
        let key = b"k";
        let er_bytes = vec![0x4A; 512];
        let mut vrf = PoxVerifier::new(key, er_bytes.clone());
        let req = vrf.request(region_er(), region_or());
        let resp = PoxResponse {
            exec: true, // lie
            output: b"out".to_vec(),
            ivt: None,
            mac: apex(false, &req, &er_bytes, b"out").attest(&HmacKey::new(key), &req.chal.0),
        };
        assert_eq!(vrf.verify_apex(&req, &resp), Err(PoxError::BadMac));
    }

    #[test]
    fn modified_er_fails() {
        let key = b"k";
        let shipped = vec![0x4A; 512];
        let mut infected = shipped.clone();
        infected[100] ^= 0xFF;
        let mut vrf = PoxVerifier::new(key, shipped);
        let req = vrf.request(region_er(), region_or());
        let resp = honest_response(key, &req, &infected, b"out");
        assert_eq!(vrf.verify_apex(&req, &resp), Err(PoxError::BadMac));
    }

    #[test]
    fn tampered_output_fails() {
        let key = b"k";
        let er_bytes = vec![0x4A; 512];
        let mut vrf = PoxVerifier::new(key, er_bytes.clone());
        let req = vrf.request(region_er(), region_or());
        let mut resp = honest_response(key, &req, &er_bytes, b"dose=10");
        resp.output = b"dose=99".to_vec();
        assert_eq!(vrf.verify_apex(&req, &resp), Err(PoxError::BadMac));
    }

    #[test]
    fn items_include_ivt_when_present() {
        let ivt_region = MemRegion::new(0xFFE0, 0xFFFF);
        let ivt = vec![0u8; 32];
        let m = PoxMeasurement {
            exec: true,
            er: region_er(),
            er_bytes: &[1],
            or: region_or(),
            or_bytes: &[2],
            ivt: Some((ivt_region, &ivt)),
        };
        let items: Vec<_> = m.items().collect();
        assert_eq!(items.len(), 4);
        assert_eq!(items[3].0, labels::IVT);
        assert_eq!(items[3].1, 0xFFE0);
        assert_eq!(m.measured_len(), 1 + 1 + 1 + 32);
    }
}
