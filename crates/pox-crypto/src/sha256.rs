//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! VRASED's SW-Att computes an HMAC-SHA256 over prover memory; this module
//! provides the hash primitive with both one-shot and incremental APIs so
//! the attestation routine can stream memory regions through it.
//!
//! The compression function has two implementations, named by
//! [`Backend`]: the portable scalar one, and the x86-64 SHA extensions
//! (SHA-NI). [`Sha256::new`] takes SHA-NI when the CPU reports it at run
//! time and the scalar one otherwise; no build flag or setting chooses.
//! Only the crate's own tests pin a path, to run the scalar one as a
//! differential oracle for the hardware one.

#[cfg(target_arch = "x86_64")]
use crate::shani::ShaNi;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size in bytes.
pub const BLOCK_LEN: usize = 64;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 state.
///
/// # Examples
///
/// ```
/// use pox_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     pox_crypto::hex::encode(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    engine: Engine,
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

/// A SHA-256 compression function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable Rust, on every host.
    Scalar,
    /// The x86-64 SHA extensions (`sha256rnds2`, `sha256msg1/2`).
    ShaNi,
}

impl Backend {
    /// The fastest backend this CPU runs, found by run-time feature
    /// detection.
    pub fn detected() -> Backend {
        Engine::detect().backend()
    }

    /// Whether this CPU runs `self`.
    #[cfg(test)]
    pub(crate) fn available(self) -> bool {
        Engine::of(self).is_some()
    }

    /// A short name for reports: `"scalar"` or `"sha_ni"`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::ShaNi => "sha_ni",
        }
    }

    /// Runs one compression of `block` into `state` on this backend.
    ///
    /// # Panics
    ///
    /// If this CPU does not run `self` (see [`Backend::available`]).
    #[cfg(test)]
    pub(crate) fn compress(self, state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        let engine = Engine::of(self)
            .unwrap_or_else(|| panic!("this CPU does not run the {} backend", self.name()));
        engine.compress(state, block);
    }
}

/// A [`Backend`] this CPU was checked to run. The SHA-NI variant holds
/// the [`ShaNi`] token, which only run-time detection can make.
#[derive(Debug, Clone, Copy)]
enum Engine {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    ShaNi(ShaNi),
}

impl Engine {
    fn detect() -> Engine {
        Engine::of(Backend::ShaNi).unwrap_or(Engine::Scalar)
    }

    fn of(backend: Backend) -> Option<Engine> {
        match backend {
            Backend::Scalar => Some(Engine::Scalar),
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => ShaNi::detect().map(Engine::ShaNi),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::ShaNi => None,
        }
    }

    fn backend(self) -> Backend {
        match self {
            Engine::Scalar => Backend::Scalar,
            #[cfg(target_arch = "x86_64")]
            Engine::ShaNi(_) => Backend::ShaNi,
        }
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into
    /// `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert!(blocks.len().is_multiple_of(BLOCK_LEN));
        match self {
            Engine::Scalar => {
                for block in blocks.chunks_exact(BLOCK_LEN) {
                    compress_scalar(state, block.try_into().expect("64-byte chunk"));
                }
            }
            #[cfg(target_arch = "x86_64")]
            Engine::ShaNi(ni) => ni.compress(state, blocks),
        }
    }
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hash state on [`Backend::detected`].
    pub fn new() -> Sha256 {
        Sha256::on(Engine::detect())
    }

    /// Creates a fresh hash state on `backend`, or `None` when this CPU
    /// does not run it.
    #[cfg(test)]
    pub(crate) fn with_backend(backend: Backend) -> Option<Sha256> {
        Engine::of(backend).map(Sha256::on)
    }

    fn on(engine: Engine) -> Sha256 {
        Sha256 {
            engine,
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// The backend this state compresses on.
    pub fn backend(&self) -> Backend {
        self.engine.backend()
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(BLOCK_LEN - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == BLOCK_LEN {
                self.engine.compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let whole = rest.len() - rest.len() % BLOCK_LEN;
        if whole > 0 {
            let (blocks, tail) = rest.split_at(whole);
            self.engine.compress(&mut self.state, blocks);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length. `update`
        // always leaves a partial block, so the 0x80 fits; the length
        // needs a second block when fewer than 8 bytes remain after it.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len + 1 > BLOCK_LEN - 8 {
            self.engine.compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        self.engine.compress(&mut self.state, &self.buf);

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, w) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// The portable compression function: one 64-byte block into `state`.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
///
/// # Examples
///
/// ```
/// let d = pox_crypto::sha256::digest(b"");
/// assert_eq!(
///     pox_crypto::hex::encode(&d),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// NIST / well-known SHA-256 test vectors.
    #[test]
    fn nist_vectors() {
        let cases: [(&[u8], &str); 5] = [
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
        ];
        for (input, expect) in cases {
            assert_eq!(hex::encode(&digest(input)), expect);
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex::encode(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_on_odd_chunking() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let oneshot = digest(&data);
        for chunk in [1usize, 3, 7, 63, 64, 65, 127] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn length_boundary_padding() {
        // 55, 56 and 64-byte messages exercise all padding branches.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![0xA5u8; len];
            let d1 = digest(&data);
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
