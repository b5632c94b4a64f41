//! Canonical byte encoding for the PoX protocol messages.
//!
//! [`PoxRequest`] and [`PoxResponse`] gain `to_bytes`/`from_bytes` here
//! so a verifier and a prover can talk across any byte transport (UART,
//! network, attestation broker) without re-agreeing on framing. The
//! format is deliberately rigid:
//!
//! * every message starts with the 4-byte magic `PXP1` (protocol +
//!   version) and a one-byte message type;
//! * integers are little-endian, matching the MSP430;
//! * variable-length fields are length-prefixed (`u32`) and bounded by
//!   the 16-bit address space, so a corrupted length cannot cause an
//!   outsized allocation;
//! * decoding must consume the buffer exactly; trailing bytes are an
//!   error, and boolean flags must be literally `0` or `1` — any bit
//!   flip in a flag, length or header is detected rather than folded
//!   into a "close enough" value.
//!
//! Decoding is *syntactic* only: a well-formed buffer yields a message,
//! and all semantic judgement (MAC, `EXEC`, IVT policy) stays in the
//! verifier. In particular a forged-but-well-formed response decodes
//! fine and is then rejected by the MAC check.

use crate::protocol::{PoxRequest, PoxResponse};
use openmsp430::mem::MemRegion;
use std::error::Error;
use std::fmt;
use vrased::protocol::Challenge;
use vrased::swatt::{CHAL_LEN, MAC_LEN};

/// Message magic: protocol name plus wire-format version.
pub const MAGIC: &[u8; 4] = b"PXP1";

/// Message-type byte of a [`PoxRequest`].
pub const TYPE_REQUEST: u8 = 0x01;

/// Message-type byte of a [`PoxResponse`].
pub const TYPE_RESPONSE: u8 = 0x02;

/// Message-type byte of an [`Envelope`].
pub const TYPE_ENVELOPE: u8 = 0x03;

/// Upper bound on any variable-length field: nothing measured on a
/// 16-bit MCU exceeds its address space.
pub const MAX_FIELD_LEN: u32 = 0x1_0000;

/// Upper bound on an [`Envelope`] payload: a whole framed message. A
/// maximal legal [`PoxResponse`] carries *two* [`MAX_FIELD_LEN`] fields
/// (output and IVT report), so the bound covers both plus headroom for
/// the fixed framing overhead.
pub const MAX_PAYLOAD_LEN: u32 = 2 * MAX_FIELD_LEN + 128;

/// Fixed size of the [`Envelope`] framing around its payload:
/// magic (4) + type (1) + device id (8) + length prefix (4).
pub const ENVELOPE_OVERHEAD: u32 = 17;

/// Upper bound on one stream frame: a maximal envelope. A length
/// prefix claiming more than this is a protocol violation, not a
/// request for a 4 GiB allocation.
pub const MAX_FRAME_LEN: u32 = MAX_PAYLOAD_LEN + ENVELOPE_OVERHEAD;

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message did.
    Truncated {
        /// Bytes the decoder still needed.
        needed: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// The magic/version prefix is wrong.
    BadMagic,
    /// The message-type byte matches no known message.
    BadMessageType(u8),
    /// A boolean flag byte was neither 0 nor 1.
    BadFlag {
        /// Which field.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// A length prefix exceeds [`MAX_FIELD_LEN`].
    Oversize {
        /// Which field.
        field: &'static str,
        /// The claimed length.
        len: u32,
    },
    /// A region's bounds are inverted (`start > end`).
    BadRegion {
        /// Claimed first address.
        start: u16,
        /// Claimed last address.
        end: u16,
    },
    /// The message decoded but bytes were left over.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated message: needed {needed} more bytes, have {have}"
                )
            }
            WireError::BadMagic => write!(f, "bad magic/version prefix"),
            WireError::BadMessageType(t) => write!(f, "unknown message type {t:#04x}"),
            WireError::BadFlag { field, value } => {
                write!(f, "flag `{field}` must be 0 or 1, got {value:#04x}")
            }
            WireError::Oversize { field, len } => {
                write!(
                    f,
                    "field `{field}` claims {len} bytes, over the 64 KiB bound"
                )
            }
            WireError::BadRegion { start, end } => {
                write!(f, "inverted region bounds {start:#06x}..={end:#06x}")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl Error for WireError {}

/// A checked, consuming reader over a received buffer.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated {
                needed: n - self.buf.len(),
                have: self.buf.len(),
            });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn flag(&mut self, field: &'static str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(WireError::BadFlag { field, value }),
        }
    }

    fn var_bytes(&mut self, field: &'static str) -> Result<Vec<u8>, WireError> {
        self.var_bytes_bounded(field, MAX_FIELD_LEN)
    }

    fn var_bytes_bounded(&mut self, field: &'static str, max: u32) -> Result<Vec<u8>, WireError> {
        let len = self.u32()?;
        if len > max {
            return Err(WireError::Oversize { field, len });
        }
        Ok(self.take(len as usize)?.to_vec())
    }

    fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len()))
        }
    }
}

fn header(out: &mut Vec<u8>, msg_type: u8) {
    out.extend_from_slice(MAGIC);
    out.push(msg_type);
}

fn check_header(r: &mut Reader<'_>, expect_type: u8) -> Result<(), WireError> {
    if r.take(MAGIC.len())? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let t = r.u8()?;
    if t != expect_type {
        return Err(WireError::BadMessageType(t));
    }
    Ok(())
}

fn put_region(out: &mut Vec<u8>, region: MemRegion) {
    out.extend_from_slice(&region.start().to_le_bytes());
    out.extend_from_slice(&region.end().to_le_bytes());
}

fn get_region(r: &mut Reader<'_>) -> Result<MemRegion, WireError> {
    let start = r.u16()?;
    let end = r.u16()?;
    if start > end {
        return Err(WireError::BadRegion { start, end });
    }
    Ok(MemRegion::new(start, end))
}

impl PoxRequest {
    /// Serializes the request to its canonical wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + CHAL_LEN + 8);
        header(&mut out, TYPE_REQUEST);
        out.extend_from_slice(self.chal.as_bytes());
        put_region(&mut out, self.er);
        put_region(&mut out, self.or);
        out
    }

    /// Decodes a request from wire bytes.
    ///
    /// # Errors
    ///
    /// A [`WireError`] describing the first framing defect.
    pub fn from_bytes(bytes: &[u8]) -> Result<PoxRequest, WireError> {
        let mut r = Reader::new(bytes);
        check_header(&mut r, TYPE_REQUEST)?;
        let mut chal = [0u8; CHAL_LEN];
        chal.copy_from_slice(r.take(CHAL_LEN)?);
        let er = get_region(&mut r)?;
        let or = get_region(&mut r)?;
        r.finish()?;
        Ok(PoxRequest {
            chal: Challenge::from_bytes(chal),
            er,
            or,
        })
    }
}

impl PoxResponse {
    /// Serializes the response to its canonical wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            6 + 4 + self.output.len() + 5 + self.ivt.as_ref().map_or(0, Vec::len) + MAC_LEN,
        );
        header(&mut out, TYPE_RESPONSE);
        out.push(self.exec as u8);
        out.extend_from_slice(&(self.output.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.output);
        match &self.ivt {
            Some(ivt) => {
                out.push(1);
                out.extend_from_slice(&(ivt.len() as u32).to_le_bytes());
                out.extend_from_slice(ivt);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.mac);
        out
    }

    /// Decodes a response from wire bytes.
    ///
    /// # Errors
    ///
    /// A [`WireError`] describing the first framing defect.
    pub fn from_bytes(bytes: &[u8]) -> Result<PoxResponse, WireError> {
        let mut r = Reader::new(bytes);
        check_header(&mut r, TYPE_RESPONSE)?;
        let exec = r.flag("exec")?;
        let output = r.var_bytes("output")?;
        let ivt = if r.flag("ivt-present")? {
            Some(r.var_bytes("ivt")?)
        } else {
            None
        };
        let mut mac = [0u8; MAC_LEN];
        mac.copy_from_slice(r.take(MAC_LEN)?);
        r.finish()?;
        Ok(PoxResponse {
            exec,
            output,
            ivt,
            mac,
        })
    }
}

/// A device-addressed frame wrapping one protocol message.
///
/// A point-to-point link needs no addressing, but a fleet verifier
/// multiplexing thousands of provers over one byte stream must know
/// *which* device a request is destined for and *which* device a
/// response claims to come from. The envelope adds exactly that: a
/// 64-bit device id plus the wrapped message's canonical bytes.
///
/// The device id is **routing metadata, not authentication** — it is
/// attacker-controlled, like any header. A response smuggled under the
/// wrong device's id still fails that device's MAC check, because the
/// MAC binds the session key and challenge of the claimed device. The
/// envelope only decides *whose* session judges the evidence.
///
/// Layout: `MAGIC ‖ 0x03 ‖ device_id (u64 LE) ‖ len (u32 LE) ‖ payload`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The addressed (requests) or claimed (responses) device.
    pub device_id: u64,
    /// The wrapped message in its own canonical wire encoding.
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Wraps already-encoded message bytes for `device_id`.
    pub fn wrap(device_id: u64, payload: Vec<u8>) -> Envelope {
        Envelope { device_id, payload }
    }

    /// Serializes the envelope to its canonical wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + 8 + 4 + self.payload.len());
        header(&mut out, TYPE_ENVELOPE);
        out.extend_from_slice(&self.device_id.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes an envelope from wire bytes. The payload is *not*
    /// decoded: a bad inner message surfaces when the payload is parsed,
    /// after the frame has already attributed it to a device.
    ///
    /// # Errors
    ///
    /// A [`WireError`] describing the first framing defect.
    pub fn from_bytes(bytes: &[u8]) -> Result<Envelope, WireError> {
        let mut r = Reader::new(bytes);
        check_header(&mut r, TYPE_ENVELOPE)?;
        let device_id = {
            let b = r.take(8)?;
            u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
        };
        let payload = r.var_bytes_bounded("payload", MAX_PAYLOAD_LEN)?;
        r.finish()?;
        Ok(Envelope { device_id, payload })
    }
}

/// Wraps one envelope's bytes for transmission over a byte *stream*.
///
/// [`Envelope`] frames are self-delimiting to a trusted decoder, but a
/// TCP/UDS stream delivers arbitrary byte chunks: the receiver must
/// know where one frame ends before it can hand the bytes to
/// [`Envelope::from_bytes`] (which rejects trailing bytes). Stream
/// framing is therefore a plain `u32` little-endian length prefix
/// followed by the envelope's canonical bytes:
///
/// `len (u32 LE) ‖ envelope`
///
/// The prefix is bounded by [`MAX_FRAME_LEN`]; see [`StreamDeframer`]
/// for the receive side. Sending an over-bound frame would poison the
/// peer's deframer permanently, so the bound is asserted here, where
/// the bug originates — every frame [`Envelope::to_bytes`] can legally
/// produce fits.
pub fn frame_stream(envelope: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + envelope.len());
    frame_stream_into(&mut out, envelope);
    out
}

/// [`frame_stream`] appending to `out` instead of allocating: a sender
/// that batches frames into one buffer gets the same bytes as the
/// concatenation of their [`frame_stream`]s.
pub fn frame_stream_into(out: &mut Vec<u8>, envelope: &[u8]) {
    debug_assert!(
        envelope.len() <= MAX_FRAME_LEN as usize,
        "frame of {} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN}): the peer would reject it \
         as an unrecoverable protocol violation",
        envelope.len()
    );
    out.extend_from_slice(&(envelope.len() as u32).to_le_bytes());
    out.extend_from_slice(envelope);
}

/// Incremental decoder for [`frame_stream`]-framed byte streams.
///
/// Feed whatever chunks the socket yields with [`extend`]; pull
/// complete envelope frames with [`next_frame`]. The deframer is
/// sans-IO: it never reads a socket, so the same type serves a blocking
/// prover loop and a non-blocking verifier transport.
///
/// A length prefix over [`MAX_FRAME_LEN`] is unrecoverable — frame
/// boundaries are lost for good — so [`next_frame`] keeps returning
/// [`WireError::Oversize`] and the caller must drop the connection.
///
/// [`extend`]: StreamDeframer::extend
/// [`next_frame`]: StreamDeframer::next_frame
#[derive(Debug, Default)]
pub struct StreamDeframer {
    buf: Vec<u8>,
}

impl StreamDeframer {
    /// An empty deframer.
    pub fn new() -> StreamDeframer {
        StreamDeframer::default()
    }

    /// Absorbs one received chunk, of any size (including empty).
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// The next complete envelope frame, if one is buffered.
    ///
    /// `Ok(None)` means "need more bytes" — a stream that ends here has
    /// truncated a frame, which the *caller* observes as EOF with
    /// [`pending`](StreamDeframer::pending)` > 0`.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] when the length prefix exceeds
    /// [`MAX_FRAME_LEN`]; the stream is unrecoverable from here.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversize {
                field: "stream frame",
                len,
            });
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let frame = self.buf[4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet forming a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> PoxRequest {
        PoxRequest {
            chal: Challenge::from_counter(7),
            er: MemRegion::new(0xE000, 0xE1FF),
            or: MemRegion::new(0x0300, 0x033F),
        }
    }

    fn response(ivt: Option<Vec<u8>>) -> PoxResponse {
        PoxResponse {
            exec: true,
            output: b"dose=2".to_vec(),
            ivt,
            mac: [0xAB; MAC_LEN],
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = request();
        assert_eq!(PoxRequest::from_bytes(&req.to_bytes()), Ok(req));
    }

    #[test]
    fn response_roundtrip_with_and_without_ivt() {
        for resp in [response(None), response(Some(vec![0u8; 32]))] {
            assert_eq!(PoxResponse::from_bytes(&resp.to_bytes()), Ok(resp));
        }
    }

    #[test]
    fn any_truncation_is_rejected() {
        let req = request().to_bytes();
        let resp = response(Some(vec![9u8; 32])).to_bytes();
        for n in 0..req.len() {
            assert!(
                PoxRequest::from_bytes(&req[..n]).is_err(),
                "request prefix {n}"
            );
        }
        for n in 0..resp.len() {
            assert!(
                PoxResponse::from_bytes(&resp[..n]).is_err(),
                "response prefix {n}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = request().to_bytes();
        bytes.push(0);
        assert_eq!(
            PoxRequest::from_bytes(&bytes),
            Err(WireError::TrailingBytes(1))
        );
    }

    #[test]
    fn bad_magic_and_crossed_types_rejected() {
        let mut bytes = request().to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(PoxRequest::from_bytes(&bytes), Err(WireError::BadMagic));
        // A valid request buffer is not a response and vice versa.
        assert_eq!(
            PoxResponse::from_bytes(&request().to_bytes()),
            Err(WireError::BadMessageType(TYPE_REQUEST))
        );
    }

    #[test]
    fn nonbinary_flags_rejected() {
        let mut bytes = response(None).to_bytes();
        bytes[5] = 2; // exec flag
        assert_eq!(
            PoxResponse::from_bytes(&bytes),
            Err(WireError::BadFlag {
                field: "exec",
                value: 2
            })
        );
    }

    #[test]
    fn inverted_region_rejected() {
        let mut bytes = request().to_bytes();
        // er.start (offset 21) 0xE000 -> 0xF000 while er.end stays 0xE1FF.
        bytes[22] = 0xF0;
        assert_eq!(
            PoxRequest::from_bytes(&bytes),
            Err(WireError::BadRegion {
                start: 0xF000,
                end: 0xE1FF
            })
        );
    }

    #[test]
    fn envelope_roundtrips_any_payload() {
        for payload in [vec![], request().to_bytes(), response(None).to_bytes()] {
            let env = Envelope::wrap(0xDEAD_BEEF_0042_1234, payload);
            assert_eq!(Envelope::from_bytes(&env.to_bytes()), Ok(env));
        }
    }

    #[test]
    fn envelope_carries_a_maximal_response() {
        // Both variable fields at their individual MAX_FIELD_LEN bound:
        // the largest response the bare codec accepts must also fit an
        // envelope, or the fleet layer would reject legal evidence.
        let resp = PoxResponse {
            exec: true,
            output: vec![0x11; MAX_FIELD_LEN as usize],
            ivt: Some(vec![0x22; MAX_FIELD_LEN as usize]),
            mac: [0xAB; MAC_LEN],
        };
        let bytes = resp.to_bytes();
        assert_eq!(PoxResponse::from_bytes(&bytes), Ok(resp), "bare codec");
        let env = Envelope::wrap(7, bytes);
        assert_eq!(Envelope::from_bytes(&env.to_bytes()), Ok(env), "enveloped");
    }

    #[test]
    fn envelope_truncations_and_trailing_rejected() {
        let bytes = Envelope::wrap(7, request().to_bytes()).to_bytes();
        for n in 0..bytes.len() {
            assert!(Envelope::from_bytes(&bytes[..n]).is_err(), "prefix {n}");
        }
        let mut extended = bytes;
        extended.push(0);
        assert_eq!(
            Envelope::from_bytes(&extended),
            Err(WireError::TrailingBytes(1))
        );
    }

    #[test]
    fn envelope_is_not_a_bare_message() {
        let env = Envelope::wrap(7, request().to_bytes()).to_bytes();
        assert_eq!(
            PoxRequest::from_bytes(&env),
            Err(WireError::BadMessageType(TYPE_ENVELOPE))
        );
        assert_eq!(
            Envelope::from_bytes(&request().to_bytes()),
            Err(WireError::BadMessageType(TYPE_REQUEST))
        );
    }

    #[test]
    fn envelope_oversize_payload_rejected() {
        let mut bytes = Envelope::wrap(7, vec![1, 2, 3]).to_bytes();
        bytes[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Envelope::from_bytes(&bytes),
            Err(WireError::Oversize {
                field: "payload",
                len: u32::MAX
            })
        );
    }

    #[test]
    fn stream_framing_roundtrips_byte_by_byte() {
        // Deliver two frames in one-byte chunks: each frame surfaces
        // exactly when its last byte arrives, in order.
        let envelopes = [
            Envelope::wrap(1, request().to_bytes()).to_bytes(),
            Envelope::wrap(2, response(None).to_bytes()).to_bytes(),
        ];
        let stream: Vec<u8> = envelopes.iter().flat_map(|e| frame_stream(e)).collect();
        let mut deframer = StreamDeframer::new();
        let mut got = Vec::new();
        for &b in &stream {
            deframer.extend(&[b]);
            while let Some(frame) = deframer.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, envelopes);
        assert_eq!(deframer.pending(), 0);
    }

    #[test]
    fn truncated_stream_frame_never_surfaces() {
        let framed = frame_stream(&Envelope::wrap(7, request().to_bytes()).to_bytes());
        for n in 0..framed.len() {
            let mut deframer = StreamDeframer::new();
            deframer.extend(&framed[..n]);
            assert_eq!(deframer.next_frame(), Ok(None), "prefix {n}");
            assert_eq!(deframer.pending(), n, "prefix {n} stays buffered");
        }
    }

    #[test]
    fn oversized_stream_frame_poisons_the_deframer() {
        let mut deframer = StreamDeframer::new();
        deframer.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
        deframer.extend(&[0; 64]);
        let oversize = Err(WireError::Oversize {
            field: "stream frame",
            len: MAX_FRAME_LEN + 1,
        });
        assert_eq!(deframer.next_frame(), oversize);
        // The error is sticky: frame boundaries are unrecoverable.
        assert_eq!(deframer.next_frame(), oversize);
    }

    #[test]
    fn oversize_length_rejected() {
        let mut bytes = response(None).to_bytes();
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            PoxResponse::from_bytes(&bytes),
            Err(WireError::Oversize {
                field: "output",
                len: u32::MAX
            })
        );
    }
}
