//! Key material must never reach `{:?}` output: verifiers and MAC
//! states end up in logs, panics and test failure messages, and a
//! printed device key (or an HMAC pad, which is the key XOR a constant)
//! lets anyone who reads the log forge proofs for that device.

use apex_pox::PoxVerifier;
use asap::{programs, AsapVerifier, VerifierSpec};
use pox_crypto::hex;
use pox_crypto::hmac::{HmacKey, HmacSha256};

const KEY: &[u8] = b"\x8f\x13device-secret\xe7\x42";

/// The ways a byte string can show up in derived or hand-written
/// `Debug` output: the decimal list a `Vec<u8>`/array prints, hex in
/// either case, and the bytes as text.
fn renderings(secret: &[u8]) -> Vec<String> {
    let list = format!("{secret:?}");
    vec![
        list[1..list.len() - 1].to_string(),
        hex::encode(secret),
        hex::encode(secret).to_uppercase(),
        String::from_utf8_lossy(secret).into_owned(),
    ]
}

/// `KEY` and the ipad/opad bytes derived from it.
fn secrets() -> Vec<Vec<u8>> {
    let pad = |c: u8| KEY.iter().map(|b| b ^ c).collect::<Vec<u8>>();
    vec![KEY.to_vec(), pad(0x36), pad(0x5c)]
}

fn assert_no_key_material(what: &str, debug: &str) {
    for secret in secrets() {
        for shown in renderings(&secret) {
            assert!(
                !debug.contains(&shown),
                "{what}'s Debug output leaks key material {shown:?}: {debug}"
            );
        }
    }
}

#[test]
fn asap_verifier_debug_hides_the_key() {
    let spec = VerifierSpec::from_image(&programs::fig4_authorized().unwrap()).unwrap();
    let vrf = AsapVerifier::new(KEY, spec);
    assert_no_key_material("AsapVerifier", &format!("{vrf:?}"));
    assert_no_key_material("AsapVerifier", &format!("{:?}", vrf.rekeyed(KEY)));
}

#[test]
fn pox_verifier_debug_hides_the_key() {
    let vrf = PoxVerifier::new(KEY, vec![0x4A; 64]);
    assert_no_key_material("PoxVerifier", &format!("{vrf:?}"));
}

#[test]
fn attestation_verifier_debug_hides_the_key() {
    let vrf = vrased::Verifier::new(KEY);
    assert_no_key_material("vrased::Verifier", &format!("{vrf:?}"));
}

#[test]
fn hmac_key_debug_hides_the_key_and_pads() {
    let key = HmacKey::new(KEY);
    assert_no_key_material("HmacKey", &format!("{key:?}"));
}

#[test]
fn hmac_state_debug_hides_the_key_and_pads() {
    let mut mac = HmacSha256::new(KEY);
    assert_no_key_material("HmacSha256", &format!("{mac:?}"));
    mac.update(b"message");
    assert_no_key_material("HmacSha256", &format!("{mac:?}"));
}
