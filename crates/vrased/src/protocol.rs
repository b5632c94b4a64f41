//! The remote-attestation protocol between verifier (Vrf) and prover
//! (Prv), per Fig. 1 of the paper: challenge → authenticated integrity
//! check → response → verification.

use crate::swatt::{attest, MeasuredItem, CHAL_LEN, MAC_LEN};
use pox_crypto::hmac::ct_eq;
use std::error::Error;
use std::fmt;

/// A verifier challenge (nonce).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Challenge(pub [u8; CHAL_LEN]);

impl Challenge {
    /// Derives a fresh challenge from a counter (deterministic for
    /// reproducible experiments; real deployments use a CSPRNG).
    pub fn from_counter(counter: u64) -> Challenge {
        let mut c = [0u8; CHAL_LEN];
        c[..8].copy_from_slice(&counter.to_le_bytes());
        let digest = pox_crypto::sha256::digest(&c);
        c.copy_from_slice(&digest[..CHAL_LEN]);
        Challenge(c)
    }

    /// The canonical wire bytes of the challenge.
    pub fn as_bytes(&self) -> &[u8; CHAL_LEN] {
        &self.0
    }

    /// Rebuilds a challenge from its wire bytes.
    pub fn from_bytes(bytes: [u8; CHAL_LEN]) -> Challenge {
        Challenge(bytes)
    }
}

/// An attestation request sent to the prover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttRequest {
    /// The challenge.
    pub chal: Challenge,
}

/// The prover's response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttResponse {
    /// The authenticated integrity check result.
    pub mac: [u8; MAC_LEN],
}

/// Why verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The MAC does not match the expected memory state.
    BadMac,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadMac => write!(f, "attestation MAC mismatch"),
        }
    }
}

impl Error for VerifyError {}

/// The verifier: holds the shared device key and the expected memory
/// contents. `Debug` leaves the key out.
#[derive(Clone)]
pub struct Verifier {
    key: Vec<u8>,
    counter: u64,
}

impl fmt::Debug for Verifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Verifier")
            .field("counter", &self.counter)
            .finish_non_exhaustive()
    }
}

impl Verifier {
    /// Creates a verifier sharing `key` with the prover.
    pub fn new(key: &[u8]) -> Verifier {
        Verifier {
            key: key.to_vec(),
            counter: 0,
        }
    }

    /// Issues a fresh attestation request.
    pub fn request(&mut self) -> AttRequest {
        self.counter += 1;
        AttRequest {
            chal: Challenge::from_counter(self.counter),
        }
    }

    /// Verifies a response against the expected measured items.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadMac`] when the response does not match the
    /// expected state.
    pub fn verify(
        &self,
        request: &AttRequest,
        expected: &[MeasuredItem],
        response: &AttResponse,
    ) -> Result<(), VerifyError> {
        let want = attest(&self.key, &request.chal.0, expected);
        if ct_eq(&want, &response.mac) {
            Ok(())
        } else {
            Err(VerifyError::BadMac)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_roundtrip_verifies() {
        let key = b"shared-device-key";
        let mut vrf = Verifier::new(key);
        let req = vrf.request();
        let items = vec![MeasuredItem::value("pmem", vec![1, 2, 3])];
        let response = AttResponse {
            mac: attest(key, &req.chal.0, &items),
        };
        assert!(vrf.verify(&req, &items, &response).is_ok());
    }

    #[test]
    fn modified_memory_rejected() {
        let key = b"shared-device-key";
        let mut vrf = Verifier::new(key);
        let req = vrf.request();
        let honest = vec![MeasuredItem::value("pmem", vec![1, 2, 3])];
        let infected = vec![MeasuredItem::value("pmem", vec![1, 2, 0xFF])];
        let response = AttResponse {
            mac: attest(key, &req.chal.0, &infected),
        };
        assert_eq!(
            vrf.verify(&req, &honest, &response),
            Err(VerifyError::BadMac)
        );
    }

    #[test]
    fn replay_rejected_by_fresh_challenge() {
        let key = b"shared-device-key";
        let mut vrf = Verifier::new(key);
        let req1 = vrf.request();
        let items = vec![MeasuredItem::value("pmem", vec![9])];
        let old = AttResponse {
            mac: attest(key, &req1.chal.0, &items),
        };
        let req2 = vrf.request();
        assert_ne!(req1.chal, req2.chal);
        assert!(
            vrf.verify(&req2, &items, &old).is_err(),
            "replayed MAC fails"
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let mut vrf = Verifier::new(b"right-key");
        let req = vrf.request();
        let items = vec![MeasuredItem::value("pmem", vec![1])];
        let response = AttResponse {
            mac: attest(b"wrong-key", &req.chal.0, &items),
        };
        assert!(vrf.verify(&req, &items, &response).is_err());
    }

    #[test]
    fn challenges_are_distinct() {
        let c1 = Challenge::from_counter(1);
        let c2 = Challenge::from_counter(2);
        assert_ne!(c1, c2);
    }
}
