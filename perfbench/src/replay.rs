//! The traced run's lock-step replay: the verifier-side fleet layers
//! timed call by call, over a workload's own devices.
//!
//! In the runtime those layers run interleaved on reactor and pool
//! threads, where a span around one call would also time the socket
//! work around it. The replay drives the same public calls through a
//! [`RoundEngine`] in lock step over an in-process [`Loopback`], so each
//! layer is timed alone:
//!
//! * `registry.begin` — `RoundEngine::begin` plus draining
//!   `poll_transmit`;
//! * `wire.deframe` — a [`StreamDeframer`] over the captured response
//!   byte stream, fed in the reactor's 4 KiB read chunks;
//! * `registry.conclude` — `FleetVerifier::conclude` per response frame;
//! * `engine.settle` — `outcome_received` per verdict, `tick`,
//!   `into_report`;
//! * `registry.rekey`, `registry.remove`, `registry.enroll` — after the
//!   rounds, every device is rekeyed to its own key, removed and
//!   enrolled again, which leaves the registry as it was.

use crate::probe::{elapsed_nanos, Span};
use apex_pox::wire::{frame_stream, StreamDeframer};
use asap::VerifierSpec;
use asap_fleet::{
    DeviceId, FleetVerifier, LogicalTime, Loopback, RoundConfig, RoundEngine, RoundReport,
};
use std::sync::Arc;
use std::time::Instant;

/// The size of one socket read in the runtime's reactors.
const READ_CHUNK: usize = 4096;

/// Time spent in each verifier-side layer during a replay.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ReplaySpans {
    pub begin: Span,
    pub deframe: Span,
    pub conclude: Span,
    pub settle: Span,
    pub enroll: Span,
    pub rekey: Span,
    pub remove: Span,
}

impl ReplaySpans {
    /// The per-session cost of the layers every session crosses.
    pub fn session_path_us(&self) -> f64 {
        self.begin.us() + self.deframe.us() + self.conclude.us() + self.settle.us()
    }
}

/// One device as the verifier enrolls it.
#[derive(Debug, Clone)]
pub struct Member {
    pub id: DeviceId,
    pub key: Vec<u8>,
    pub spec: Arc<VerifierSpec>,
}

/// Enrolls every member, timing each `register_shared`.
///
/// # Errors
///
/// A member already enrolled.
pub fn enroll(
    fleet: &FleetVerifier,
    members: &[Member],
    spans: &mut ReplaySpans,
) -> Result<(), String> {
    for m in members {
        spans
            .enroll
            .time(true, || {
                fleet.register_shared(m.id, &m.key, Arc::clone(&m.spec))
            })
            .map_err(|e| format!("enroll {}: {e}", m.id))?;
    }
    Ok(())
}

/// Runs `rounds` lock-step rounds over `members`, whose provers sit in
/// `provers`, then rekeys, removes and re-enrolls every member.
/// `wrong_verdicts` judges each round's report against the expected
/// verdicts; the return value is the number of sessions judged wrongly
/// or lost.
///
/// # Errors
///
/// A device that is not enrolled, or a registry that refuses a rekey
/// or re-enrollment.
pub fn replay(
    fleet: &FleetVerifier,
    members: &[Member],
    provers: &mut Loopback,
    rounds: usize,
    spans: &mut ReplaySpans,
    mut wrong_verdicts: impl FnMut(&RoundReport) -> u64,
) -> Result<u64, String> {
    let ids: Vec<DeviceId> = members.iter().map(|m| m.id).collect();
    let n = ids.len() as u64;
    let mut failed = 0;
    for _ in 0..rounds {
        let t = Instant::now();
        let mut engine = RoundEngine::begin(fleet, &ids, RoundConfig::lockstep())
            .map_err(|e| format!("replay begin: {e}"))?;
        let mut requests = Vec::with_capacity(ids.len());
        while let Some(tx) = engine.poll_transmit() {
            requests.push(tx);
        }
        spans.begin.add(n, elapsed_nanos(t));

        let mut responses = Vec::with_capacity(requests.len());
        let mut stream = Vec::new();
        for (id, frame) in &requests {
            if let Some(response) = provers.exchange(*id, frame) {
                stream.extend_from_slice(&frame_stream(&response));
                responses.push(response);
            }
        }

        let t = Instant::now();
        let mut deframer = StreamDeframer::new();
        let mut frames = Vec::with_capacity(responses.len());
        for chunk in stream.chunks(READ_CHUNK) {
            deframer.extend(chunk);
            while let Ok(Some(frame)) = deframer.next_frame() {
                frames.push(frame);
            }
        }
        spans.deframe.add(frames.len() as u64, elapsed_nanos(t));
        if frames != responses {
            return Err("the deframer did not return the frames it was fed".into());
        }

        let t = Instant::now();
        let verdicts: Vec<_> = frames.iter().map(|f| fleet.conclude(f)).collect();
        spans.conclude.add(frames.len() as u64, elapsed_nanos(t));

        let t = Instant::now();
        for (device, result) in verdicts {
            engine.outcome_received(device, result);
        }
        engine.tick(LogicalTime(0));
        let report = engine.into_report();
        spans.settle.add(n, elapsed_nanos(t));

        failed += wrong_verdicts(&report);
        if report.outcomes.len() as u64 != n || fleet.in_flight() != 0 {
            failed += n;
        }
    }

    for m in members {
        spans
            .rekey
            .time(true, || fleet.rekey(m.id, &m.key))
            .map_err(|e| format!("rekey {}: {e}", m.id))?;
    }
    for m in members {
        if !spans.remove.time(true, || fleet.remove(m.id)) {
            return Err(format!("remove {}: not enrolled", m.id));
        }
    }
    enroll(fleet, members, spans)?;
    Ok(failed)
}
