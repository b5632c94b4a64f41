//! HMAC-SHA256 (RFC 2104 / FIPS 198-1), built on [`crate::sha256`].
//!
//! [`HmacKey`] is a key already run through its two pad blocks: the
//! inner and outer hash states after `K ^ ipad` and `K ^ opad`. Keying
//! once and cloning those midstates per message saves two of the
//! compressions every HMAC would otherwise spend on the key, which for
//! a short SW-Att transcript is most of them.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};
use std::fmt;

/// A precomputed HMAC-SHA256 key: the inner and outer SHA-256 states
/// after one block of ipad and one of opad.
///
/// The midstates are as secret as the key (they suffice to compute
/// MACs), so `Debug` prints neither.
///
/// # Examples
///
/// ```
/// use pox_crypto::hmac::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"key");
/// assert_eq!(key.mac(b"msg"), hmac_sha256(b"key", b"msg"));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HmacKey")
            .field("backend", &self.inner.backend())
            .finish_non_exhaustive()
    }
}

impl HmacKey {
    /// Keys HMAC with `key` (any length; keys longer than one block are
    /// hashed first, per RFC 2104) on
    /// [`Backend::detected`](crate::sha256::Backend::detected).
    pub fn new(key: &[u8]) -> HmacKey {
        HmacKey::on(key, Sha256::new())
    }

    /// [`HmacKey::new`] on `backend`, or `None` when this CPU does not
    /// run it.
    #[cfg(test)]
    pub(crate) fn with_backend(key: &[u8], backend: crate::sha256::Backend) -> Option<HmacKey> {
        Sha256::with_backend(backend).map(|fresh| HmacKey::on(key, fresh))
    }

    /// Keys `fresh`, an unused hash state, with `key`.
    fn on(key: &[u8], fresh: Sha256) -> HmacKey {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = fresh.clone();
            h.update(key);
            k[..DIGEST_LEN].copy_from_slice(&h.finalize());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let pad = |c: u8| {
            let mut h = fresh.clone();
            h.update(&k.map(|b| b ^ c));
            h
        };
        HmacKey {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// One-shot HMAC of `msg` under this key.
    pub fn mac(&self, msg: &[u8]) -> [u8; DIGEST_LEN] {
        let mut mac = HmacSha256::with_key(self);
        mac.update(msg);
        mac.finalize()
    }
}

/// Incremental HMAC-SHA256 state.
///
/// # Examples
///
/// ```
/// use pox_crypto::hmac::HmacSha256;
///
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"The quick brown fox jumps over the lazy dog");
/// let tag = mac.finalize();
/// assert_eq!(
///     pox_crypto::hex::encode(&tag),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates an HMAC state keyed with `key` (any length; keys longer
    /// than one block are hashed first, per RFC 2104).
    pub fn new(key: &[u8]) -> HmacSha256 {
        let HmacKey { inner, outer } = HmacKey::new(key);
        HmacSha256 { inner, outer }
    }

    /// Starts a MAC under a precomputed key, copying its midstates
    /// instead of hashing the pads again.
    pub fn with_key(key: &HmacKey) -> HmacSha256 {
        HmacSha256 {
            inner: key.inner.clone(),
            outer: key.outer.clone(),
        }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the computation and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(msg);
    mac.finalize()
}

/// Constant-time equality of two byte strings.
///
/// The comparison runs over the full length of both inputs regardless of
/// where the first difference occurs, so the verifier/prover never leak
/// match prefixes through timing.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc: u8 = 0;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            hex::encode(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case4() {
        let key: Vec<u8> = (1..=25).collect();
        let msg = [0xcd; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            hex::encode(&tag),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex::encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case7_long_key_and_data() {
        let key = [0xaa; 131];
        let msg: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let tag = hmac_sha256(&key, msg);
        assert_eq!(
            hex::encode(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = b"attestation key";
        let data: Vec<u8> = (0..777u32).map(|i| (i % 256) as u8).collect();
        let expect = hmac_sha256(key, &data);
        let mut mac = HmacSha256::new(key);
        for c in data.chunks(13) {
            mac.update(c);
        }
        assert_eq!(mac.finalize(), expect);
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sane"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn different_keys_give_different_tags() {
        let t1 = hmac_sha256(b"k1", b"msg");
        let t2 = hmac_sha256(b"k2", b"msg");
        assert_ne!(t1, t2);
    }
}
