//! # pox-crypto — attestation crypto primitives
//!
//! From-scratch implementations of SHA-256 (FIPS 180-4) and HMAC-SHA256
//! (RFC 2104), plus constant-time comparison and hex helpers. These are
//! the primitives VRASED's SW-Att uses to compute authenticated integrity
//! checks over prover memory, and that the verifier uses to validate
//! attestation/PoX responses.
//!
//! No external crypto dependencies are used: the reproduction's trust
//! anchor is self-contained, mirroring the self-contained HACL*-derived
//! HMAC that VRASED ships in ROM.
//!
//! # The MAC layer
//!
//! Every proof of execution costs one HMAC on the prover and one on the
//! verifier, so three things keep it cheap:
//!
//! * **Hardware compression, picked at run time.** [`Sha256::new`]
//!   compresses on the x86-64 SHA extensions when
//!   `is_x86_feature_detected!` reports `sha`, `sse2`, `ssse3` and
//!   `sse4.1`, and on portable scalar code otherwise. Nothing else
//!   chooses: no cargo feature, environment variable or setting.
//!   [`Backend::detected`] names the pick. The only `unsafe` code is in
//!   the private `shani` module, behind a token only detection mints.
//!   The crate's own tests check SHA-NI against the scalar path, which
//!   stays the oracle.
//! * **Midstates keyed once.** [`HmacKey`] holds the inner and outer
//!   states after the ipad and opad blocks. Callers build it when a key
//!   is provisioned (a verifier at enroll and rekey, a device at build)
//!   and start each MAC from it with [`HmacSha256::with_key`], saving
//!   the two pad compressions per message.
//! * **Streamed transcripts.** [`HmacSha256::update`] takes borrowed
//!   slices of any size, so SW-Att (`vrased::swatt::Transcript`) writes
//!   each measured region straight from memory into the MAC; nothing
//!   is copied into an intermediate list.
//!
//! # Examples
//!
//! ```
//! use pox_crypto::{hmac::hmac_sha256, hex};
//!
//! let tag = hmac_sha256(b"device-key", b"challenge || memory");
//! assert_eq!(tag.len(), 32);
//! assert_eq!(hex::decode(&hex::encode(&tag)).unwrap(), tag);
//! ```

pub mod hex;
pub mod hmac;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod shani;

#[cfg(test)]
mod differential;

pub use hmac::{ct_eq, hmac_sha256, HmacKey, HmacSha256};
pub use sha256::{digest, Backend, Sha256, DIGEST_LEN};
