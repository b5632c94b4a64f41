//! Length-prefixed [`Envelope`] frames over byte streams (TCP or
//! Unix-domain), std-only: the reusable non-blocking halves every
//! stream speaker in this crate is built from, plus the prover-side
//! pieces.
//!
//! * **The halves** — [`pump_read`] (one non-blocking read attempt into
//!   a [`StreamDeframer`], every outcome named by [`ReadPump`]) and
//!   [`WriteQueue`] (a bounded byte queue flushed with partial-write
//!   backpressure, outcomes named by [`WritePump`]). These are the
//!   *only* places raw socket reads and writes happen: the
//!   [`FleetRuntime`](crate::FleetRuntime) reactors and the prover
//!   loop share them, so framing behaviour cannot drift between the
//!   two sides.
//! * **The prover side** — [`serve_frames`] and [`announce_devices`]
//!   host simulated devices behind a socket for examples, tests and
//!   benches. Both write in bursts, never a frame at a time:
//!   `announce_devices` sends all its hellos in one `write_all`, and
//!   `serve_frames` answers every complete frame a read delivered
//!   before it writes the framed responses in one `write_all`, just
//!   before its next read (or its return). Its out-buffer is flushed
//!   early at [`DEFAULT_WRITE_QUEUE_CAPACITY`] bytes, so a connection's
//!   memory stays bounded however large a burst is.

use crate::DeviceId;
use apex_pox::wire::{frame_stream_into, Envelope, StreamDeframer, MAX_FRAME_LEN};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};

/// True for the error kinds that mean "nothing to do right now" on a
/// non-blocking or timeout-configured socket.
fn is_not_ready(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// What one [`pump_read`] attempt did to the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPump {
    /// Bytes were read and absorbed into the deframer.
    Bytes(usize),
    /// Nothing available right now (`WouldBlock`/read timeout).
    Idle,
    /// Orderly EOF: the peer hung up.
    Closed,
    /// A hard I/O error: the stream is beyond recovery.
    Broken,
}

/// One read attempt from `stream` into `deframer` — the shared receive
/// half. Never loops waiting for data: a non-blocking socket yields
/// [`ReadPump::Idle`] immediately, a timeout-configured one after at
/// most its read timeout. `Interrupted` is retried, since it carries no
/// information about the stream.
pub fn pump_read<S: Read + ?Sized>(stream: &mut S, deframer: &mut StreamDeframer) -> ReadPump {
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return ReadPump::Closed,
            Ok(n) => {
                deframer.extend(&chunk[..n]);
                return ReadPump::Bytes(n);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_not_ready(e.kind()) => return ReadPump::Idle,
            Err(_) => return ReadPump::Broken,
        }
    }
}

/// What one [`WriteQueue::flush`] attempt did to the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePump {
    /// Every queued byte is on the wire.
    Drained,
    /// The stream stopped accepting bytes; the payload is how many were
    /// written before it did. The rest stay queued for the next flush.
    Blocked(usize),
    /// The peer hung up mid-write.
    Closed,
    /// A hard I/O error: the stream is beyond recovery.
    Broken,
}

/// The shared transmit half: a bounded byte queue in front of a
/// non-blocking (or timeout-configured) stream.
///
/// [`enqueue`](WriteQueue::enqueue) accepts a frame when it fits the
/// bound — except that an *empty* queue always accepts one frame, so a
/// frame no larger than the bound can never be stuck un-sendable.
/// [`flush`](WriteQueue::flush) writes as much as the stream will take
/// and leaves the rest queued: a `WouldBlock` mid-frame is
/// backpressure, not an error, and never wedges the caller's loop.
#[derive(Debug)]
pub struct WriteQueue {
    buf: VecDeque<u8>,
    capacity: usize,
}

/// Default [`WriteQueue`] bound: two maximal frames, so one oversized
/// burst is absorbed while a peer that never drains is still detected.
pub const DEFAULT_WRITE_QUEUE_CAPACITY: usize = 2 * (MAX_FRAME_LEN as usize + 4);

impl Default for WriteQueue {
    fn default() -> WriteQueue {
        WriteQueue::with_capacity(DEFAULT_WRITE_QUEUE_CAPACITY)
    }
}

impl WriteQueue {
    /// An empty queue bounded at `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> WriteQueue {
        WriteQueue {
            buf: VecDeque::new(),
            capacity,
        }
    }

    /// Queues `bytes` for transmission. Returns `false` — queuing
    /// *nothing* — when the queue is non-empty and the bytes would push
    /// it over capacity: the peer is not draining, and the caller
    /// decides whether that means "drop the connection" (a reactor) or
    /// "keep flushing first" (a lock-step sender).
    #[must_use]
    pub fn enqueue(&mut self, bytes: &[u8]) -> bool {
        if !self.buf.is_empty() && self.buf.len() + bytes.len() > self.capacity {
            return false;
        }
        self.buf.extend(bytes);
        true
    }

    /// Writes as many queued bytes as `stream` accepts right now.
    ///
    /// Writes are **coalesced**: when several frames are queued (a
    /// round's worth of challenges for one connection), they go to the
    /// stream as one contiguous buffer per `write` call rather than one
    /// write per frame — or two when the ring buffer happens to wrap.
    /// The byte stream is identical either way; only the syscall count
    /// changes.
    pub fn flush<S: Write + ?Sized>(&mut self, stream: &mut S) -> WritePump {
        let mut wrote = 0;
        while !self.buf.is_empty() {
            let head: &[u8] = self.buf.make_contiguous();
            match stream.write(head) {
                Ok(0) => return WritePump::Closed,
                Ok(n) => {
                    self.buf.drain(..n);
                    wrote += n;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_not_ready(e.kind()) => return WritePump::Blocked(wrote),
                Err(_) => return WritePump::Broken,
            }
        }
        match stream.flush() {
            Ok(()) => WritePump::Drained,
            Err(e) if e.kind() == ErrorKind::Interrupted || is_not_ready(e.kind()) => {
                WritePump::Drained
            }
            Err(_) => WritePump::Broken,
        }
    }

    /// Bytes queued but not yet written.
    pub fn queued(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Announces the devices hosted behind `stream` to a
/// [`FleetRuntime`](crate::FleetRuntime): one *hello* frame — an
/// [`Envelope`] with an empty payload — per id, all framed into one
/// buffer and handed to the stream in a single `write_all`. The runtime
/// never judges a hello; it only learns "frames for this device go to
/// this connection", which is how challenges find provers that dialed
/// in.
///
/// # Errors
///
/// Any write error from the stream.
pub fn announce_devices<S: Write>(stream: &mut S, ids: &[DeviceId]) -> std::io::Result<()> {
    let mut hellos = Vec::new();
    for &id in ids {
        frame_stream_into(&mut hellos, &Envelope::wrap(id.0, Vec::new()).to_bytes());
    }
    stream.write_all(&hellos)?;
    stream.flush()
}

/// Writes the batched responses in `out` and empties it. `false` means
/// the stream is beyond use.
fn write_out<S: Write>(stream: &mut S, out: &mut Vec<u8>) -> bool {
    if out.is_empty() {
        return true;
    }
    let ok = stream.write_all(out).and_then(|()| stream.flush()).is_ok();
    out.clear();
    ok
}

/// Prover-side frame loop: reads [`frame_stream`]-framed envelopes off
/// `stream`, hands each to `respond`, and writes back every frame the
/// handler returns (`None` models a device that stays silent). Returns
/// when the peer hangs up or the framing breaks.
///
/// **One write per burst.** Responses are not written one by one: every
/// complete frame the last read delivered is answered first, each
/// response framed into one reused out-buffer, and the buffer goes to
/// the stream in a single `write_all` just before the next read — and
/// before every return (EOF, a broken stream, an oversize prefix), so
/// no answered frame is lost. The bytes on the wire are exactly the
/// concatenation of the responses' [`frame_stream`]s in request order;
/// only the syscall count changes. Batching adds no delay a lock-step
/// peer could notice: a response is always on the wire before the loop
/// waits for more input. Memory stays bounded: the buffer is flushed
/// early once it holds [`DEFAULT_WRITE_QUEUE_CAPACITY`] bytes, so it
/// never exceeds that plus one frame.
///
/// This is the glue an out-of-process prover host needs: the examples,
/// the socket integration tests and the benches all run simulated
/// [`Device`](asap::Device)s behind it in their own thread. Pair it
/// with [`announce_devices`] so the runtime learns the routes.
///
/// [`frame_stream`]: apex_pox::wire::frame_stream
pub fn serve_frames<S: Read + Write>(
    mut stream: S,
    mut respond: impl FnMut(DeviceId, &Envelope) -> Option<Vec<u8>>,
) {
    let mut deframer = StreamDeframer::new();
    let mut out = Vec::new();
    loop {
        loop {
            match deframer.next_frame() {
                Ok(Some(frame)) => {
                    let Ok(envelope) = Envelope::from_bytes(&frame) else {
                        continue; // A prover ignores garbled frames.
                    };
                    let id = DeviceId(envelope.device_id);
                    if let Some(response) = respond(id, &envelope) {
                        frame_stream_into(&mut out, &response);
                        if out.len() >= DEFAULT_WRITE_QUEUE_CAPACITY
                            && !write_out(&mut stream, &mut out)
                        {
                            return;
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Oversized frame: boundaries are lost, but what was
                    // answered before it still goes out.
                    write_out(&mut stream, &mut out);
                    return;
                }
            }
        }
        if !write_out(&mut stream, &mut out) {
            return;
        }
        match pump_read(&mut stream, &mut deframer) {
            ReadPump::Bytes(_) | ReadPump::Idle => {}
            ReadPump::Closed | ReadPump::Broken => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_pox::wire::frame_stream;

    /// A stream scripted to accept `accept` bytes per write call, then
    /// report `WouldBlock`.
    struct Throttled {
        accept: Vec<usize>,
        written: Vec<u8>,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match self.accept.pop() {
                Some(0) | None => Err(ErrorKind::WouldBlock.into()),
                Some(n) => {
                    let n = n.min(buf.len());
                    self.written.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_survives_partial_writes() {
        let mut q = WriteQueue::with_capacity(64);
        assert!(q.enqueue(b"hello world"));
        let mut stream = Throttled {
            accept: vec![3], // popped back-to-front
            written: Vec::new(),
        };
        assert_eq!(q.flush(&mut stream), WritePump::Blocked(3));
        assert_eq!(q.queued(), 8, "the rest stays queued");
        stream.accept = vec![100];
        assert_eq!(q.flush(&mut stream), WritePump::Drained);
        assert_eq!(stream.written, b"hello world");
        assert!(q.is_empty());
    }

    #[test]
    fn write_queue_bound_rejects_only_when_nonempty() {
        let mut q = WriteQueue::with_capacity(4);
        // An empty queue always accepts one frame, even over the bound.
        assert!(q.enqueue(b"oversized"));
        // A non-empty queue refuses to grow past the bound...
        assert!(!q.enqueue(b"x"));
        // ...and refusal queues nothing.
        assert_eq!(q.queued(), 9);
    }

    /// A stream that takes everything, counting `write` calls.
    struct Greedy {
        writes: usize,
        written: Vec<u8>,
    }

    impl Write for Greedy {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_coalesces_frames_and_preserves_framing_bit_for_bit() {
        // A round's worth of challenges for one connection, enqueued
        // frame by frame — including across a partial flush so the ring
        // buffer wraps internally. The wire bytes must equal the plain
        // concatenation of the framed envelopes (framing bit-identity),
        // and each ready stream must see exactly ONE write syscall per
        // flush, however many frames are queued.
        let frames: Vec<Vec<u8>> = (1u64..=5)
            .map(|d| frame_stream(&Envelope::wrap(d, vec![d as u8; 24 * d as usize]).to_bytes()))
            .collect();
        let expected: Vec<u8> = frames.iter().flatten().copied().collect();

        let mut q = WriteQueue::with_capacity(4096);
        let mut wire = Vec::new();
        assert!(q.enqueue(&frames[0]));
        assert!(q.enqueue(&frames[1]));
        // A partial write leaves a tail queued; the next enqueues then
        // wrap the ring around its head.
        let mut throttled = Throttled {
            accept: vec![7],
            written: Vec::new(),
        };
        assert_eq!(q.flush(&mut throttled), WritePump::Blocked(7));
        wire.extend_from_slice(&throttled.written);
        for frame in &frames[2..] {
            assert!(q.enqueue(frame));
        }

        let mut greedy = Greedy {
            writes: 0,
            written: Vec::new(),
        };
        assert_eq!(q.flush(&mut greedy), WritePump::Drained);
        assert_eq!(
            greedy.writes, 1,
            "queued frames coalesce into one write syscall, wrapped ring included"
        );
        wire.extend_from_slice(&greedy.written);
        assert_eq!(wire, expected, "coalescing must not disturb a single byte");

        // And the peer's deframer recovers the envelopes exactly.
        let mut deframer = StreamDeframer::new();
        deframer.extend(&wire);
        for (d, frame) in frames.iter().enumerate() {
            let got = deframer
                .next_frame()
                .expect("framing intact")
                .expect("frame complete");
            assert_eq!(&frame_stream(&got), frame, "frame {d} round-trips");
        }
        assert!(matches!(deframer.next_frame(), Ok(None)), "no residue");
    }

    #[test]
    fn pump_read_maps_io_outcomes() {
        let mut deframer = StreamDeframer::new();
        let mut eof: &[u8] = &[];
        assert_eq!(pump_read(&mut eof, &mut deframer), ReadPump::Closed);

        struct NotReady;
        impl Read for NotReady {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(ErrorKind::WouldBlock.into())
            }
        }
        assert_eq!(pump_read(&mut NotReady, &mut deframer), ReadPump::Idle);

        let mut bytes: &[u8] = &[1, 2, 3];
        assert_eq!(pump_read(&mut bytes, &mut deframer), ReadPump::Bytes(3));
        assert_eq!(deframer.pending(), 3);
    }

    /// One call a [`Scripted`] stream saw, in order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Op {
        /// A read call, and how many bytes it returned (0 = EOF).
        Read(usize),
        /// A write call, and the bytes it took.
        Write(Vec<u8>),
    }

    /// A scripted duplex stream: each read call returns the next
    /// scripted chunk whole (EOF once they run out), every write is
    /// taken whole, and every call is logged in order.
    struct Scripted {
        chunks: VecDeque<Vec<u8>>,
        log: Vec<Op>,
    }

    impl Scripted {
        fn new(chunks: Vec<Vec<u8>>) -> Scripted {
            Scripted {
                chunks: chunks.into(),
                log: Vec::new(),
            }
        }

        fn writes(&self) -> Vec<&[u8]> {
            self.log
                .iter()
                .filter_map(|op| match op {
                    Op::Write(bytes) => Some(bytes.as_slice()),
                    Op::Read(_) => None,
                })
                .collect()
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let chunk = self.chunks.pop_front().unwrap_or_default();
            assert!(chunk.len() <= buf.len(), "script chunks fit one read");
            buf[..chunk.len()].copy_from_slice(&chunk);
            self.log.push(Op::Read(chunk.len()));
            Ok(chunk.len())
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.log.push(Op::Write(buf.to_vec()));
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The framed challenge for device `d`.
    fn challenge(d: u64) -> Vec<u8> {
        frame_stream(&Envelope::wrap(d, vec![d as u8; 8]).to_bytes())
    }

    /// What the test prover answers device `d` with.
    fn response(d: u64) -> Vec<u8> {
        Envelope::wrap(d, vec![0xE0 | d as u8; 4 + d as usize]).to_bytes()
    }

    fn answer(id: DeviceId, _: &Envelope) -> Option<Vec<u8>> {
        Some(response(id.0))
    }

    fn framed_responses(ids: impl IntoIterator<Item = u64>) -> Vec<u8> {
        ids.into_iter()
            .flat_map(|d| frame_stream(&response(d)))
            .collect()
    }

    #[test]
    fn serve_frames_answers_a_burst_with_one_write() {
        let burst: Vec<u8> = (1..=6).flat_map(challenge).collect();
        let mut stream = Scripted::new(vec![burst.clone()]);
        serve_frames(&mut stream, answer);
        assert_eq!(
            stream.log,
            vec![
                Op::Read(burst.len()),
                Op::Write(framed_responses(1..=6)),
                Op::Read(0),
            ],
            "six frames in one read are answered by exactly one write, in request order"
        );
    }

    #[test]
    fn serve_frames_writes_a_lone_response_before_reading_again() {
        // A lock-step peer sends one challenge and waits for its answer
        // before the next: the answer must be on the wire before the
        // prover blocks in read, or both sides wait forever.
        let (first, second) = (challenge(1), challenge(2));
        let mut stream = Scripted::new(vec![first.clone(), second.clone()]);
        serve_frames(&mut stream, answer);
        assert_eq!(
            stream.log,
            vec![
                Op::Read(first.len()),
                Op::Write(framed_responses([1])),
                Op::Read(second.len()),
                Op::Write(framed_responses([2])),
                Op::Read(0),
            ]
        );
    }

    #[test]
    fn serve_frames_flushes_answers_before_eof_and_oversize() {
        // Half-close: two whole frames and a truncated third, then EOF.
        let mut burst: Vec<u8> = (1..=2).flat_map(challenge).collect();
        let third = challenge(3);
        burst.extend_from_slice(&third[..third.len() - 1]);
        let mut stream = Scripted::new(vec![burst]);
        serve_frames(&mut stream, answer);
        assert_eq!(stream.writes(), vec![framed_responses(1..=2).as_slice()]);
        assert_eq!(stream.log.last(), Some(&Op::Read(0)), "EOF ends the loop");

        // An oversize prefix after two whole frames: framing is lost,
        // but both earlier answers still go out, and nothing is read
        // after the poison.
        let mut burst: Vec<u8> = (1..=2).flat_map(challenge).collect();
        burst.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut stream = Scripted::new(vec![burst.clone(), challenge(4)]);
        serve_frames(&mut stream, answer);
        assert_eq!(
            stream.log,
            vec![Op::Read(burst.len()), Op::Write(framed_responses(1..=2))]
        );
    }

    #[test]
    fn serve_frames_silent_device_mid_burst_leaves_the_rest_intact() {
        let burst: Vec<u8> = (1..=5).flat_map(challenge).collect();
        let mut stream = Scripted::new(vec![burst]);
        serve_frames(&mut stream, |id, envelope| {
            if id == DeviceId(3) {
                None // Device 3 stays silent.
            } else {
                answer(id, envelope)
            }
        });
        assert_eq!(
            stream.writes(),
            vec![framed_responses([1, 2, 4, 5]).as_slice()]
        );
    }

    #[test]
    fn serve_frames_bounds_its_out_buffer() {
        // Maximal responses: the out-buffer reaches the bound after two,
        // so five take three writes, none over the bound, and the wire
        // still carries every frame in order.
        let burst: Vec<u8> = (1..=5).flat_map(challenge).collect();
        let big = |d: u64| vec![d as u8; MAX_FRAME_LEN as usize];
        let mut stream = Scripted::new(vec![burst]);
        serve_frames(&mut stream, |id, _| Some(big(id.0)));
        let writes = stream.writes();
        assert_eq!(writes.len(), 3);
        assert!(writes
            .iter()
            .all(|w| w.len() <= DEFAULT_WRITE_QUEUE_CAPACITY));
        let wire: Vec<u8> = writes.concat();
        let expected: Vec<u8> = (1..=5).flat_map(|d| frame_stream(&big(d))).collect();
        assert_eq!(wire, expected);
    }

    #[test]
    fn announce_devices_sends_every_hello_in_one_write() {
        let ids: Vec<DeviceId> = (0..500).map(DeviceId).collect();
        let mut stream = Greedy {
            writes: 0,
            written: Vec::new(),
        };
        announce_devices(&mut stream, &ids).expect("greedy stream takes everything");
        assert_eq!(stream.writes, 1, "500 hellos, one write");
        let expected: Vec<u8> = ids
            .iter()
            .flat_map(|id| frame_stream(&Envelope::wrap(id.0, Vec::new()).to_bytes()))
            .collect();
        assert_eq!(stream.written, expected);
    }
}
