//! Differential tests: the SHA-NI compression path against the scalar
//! one, which serves as the oracle.
//!
//! On a CPU without SHA-NI the hardware half of each check is skipped,
//! and the test prints that it was.

use crate::hex;
use crate::hmac::{hmac_sha256, HmacKey, HmacSha256};
use crate::sha256::{Backend, Sha256, BLOCK_LEN};
use proptest::collection::vec;
use proptest::prelude::*;

/// Every backend this CPU runs, scalar first.
fn backends() -> Vec<Backend> {
    if Backend::ShaNi.available() {
        vec![Backend::Scalar, Backend::ShaNi]
    } else {
        eprintln!("SHA-NI is not available on this CPU: its half of this check was skipped");
        vec![Backend::Scalar]
    }
}

fn sha256(backend: Backend, chunks: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::with_backend(backend).expect("listed by backends()");
    for chunk in chunks {
        h.update(chunk);
    }
    h.finalize()
}

/// RFC 2104 spelled out on the scalar hash, sharing no code with
/// `HmacKey`: `H(K ^ opad ‖ H(K ^ ipad ‖ msg))`.
fn textbook_hmac(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut k = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        k[..32].copy_from_slice(&sha256(Backend::Scalar, &[key]));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let inner = sha256(Backend::Scalar, &[&k.map(|b| b ^ 0x36), msg]);
    sha256(Backend::Scalar, &[&k.map(|b| b ^ 0x5c), &inner])
}

/// Splits `data` at the (sorted, deduplicated) cut points.
fn split<'a>(data: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = Vec::new();
    let mut at = 0;
    for c in cuts {
        out.push(&data[at..c]);
        at = c;
    }
    out.push(&data[at..]);
    out
}

proptest! {
    /// One SHA-NI compression equals one scalar compression, from any
    /// state and over any block.
    #[test]
    fn sha_ni_compress_matches_scalar(
        state in vec(any::<u32>(), 8),
        block in vec(any::<u8>(), BLOCK_LEN),
    ) {
        let state: [u32; 8] = state.try_into().unwrap();
        let block: [u8; BLOCK_LEN] = block.try_into().unwrap();
        let mut want = state;
        Backend::Scalar.compress(&mut want, &block);
        for backend in backends() {
            let mut got = state;
            backend.compress(&mut got, &block);
            prop_assert_eq!(got, want, "{:?}", backend);
        }
    }

    /// `Sha256` over any 0–300-byte message, fed in arbitrary chunks,
    /// equals the scalar one-shot digest on every backend.
    #[test]
    fn sha256_chunked_matches_scalar_one_shot(
        data in vec(any::<u8>(), 0..=300),
        cuts in vec(any::<usize>(), 0..8),
    ) {
        let want = sha256(Backend::Scalar, &[&data]);
        let chunks = split(&data, &cuts);
        for backend in backends() {
            prop_assert_eq!(sha256(backend, &chunks), want, "{:?}", backend);
        }
    }

    /// `HmacKey` midstates give the one-shot HMAC for any key, including
    /// keys longer than a block, on every backend.
    #[test]
    fn hmac_key_matches_one_shot_hmac(
        key in vec(any::<u8>(), 0..=160),
        data in vec(any::<u8>(), 0..=300),
        cuts in vec(any::<usize>(), 0..4),
    ) {
        let want = textbook_hmac(&key, &data);
        prop_assert_eq!(hmac_sha256(&key, &data), want);
        for backend in backends() {
            let hk = HmacKey::with_backend(&key, backend).unwrap();
            prop_assert_eq!(hk.mac(&data), want, "{:?}", backend);
            let mut mac = HmacSha256::with_key(&hk);
            for chunk in split(&data, &cuts) {
                mac.update(chunk);
            }
            prop_assert_eq!(mac.finalize(), want, "{:?} chunked", backend);
        }
    }
}

#[test]
fn nist_vectors_on_every_backend() {
    let million_a = vec![b'a'; 1_000_000];
    let cases: [(&[u8], &str); 6] = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
        ),
        (
            &million_a,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ];
    for backend in backends() {
        for (input, expect) in cases {
            assert_eq!(
                hex::encode(&sha256(backend, &[input])),
                expect,
                "{backend:?}"
            );
        }
    }
}

#[test]
fn rfc4231_vectors_on_every_backend() {
    let cases: [(&[u8], &[u8], &str); 6] = [
        (
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            &[
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
                24, 25,
            ],
            &[0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        (
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    for backend in backends() {
        for (key, msg, expect) in cases {
            let tag = HmacKey::with_backend(key, backend).unwrap().mac(msg);
            assert_eq!(hex::encode(&tag), expect, "{backend:?}");
        }
    }
}

#[test]
fn detection_picks_sha_ni_exactly_when_the_cpu_runs_it() {
    let detected = Backend::detected();
    assert_eq!(detected == Backend::ShaNi, Backend::ShaNi.available());
    assert!(Backend::Scalar.available());
    assert_eq!(Sha256::new().backend(), detected);
    assert_eq!(
        Sha256::with_backend(Backend::ShaNi).is_some(),
        Backend::ShaNi.available()
    );
    println!("detected SHA-256 backend: {}", detected.name());
}
