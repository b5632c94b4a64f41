//! The sharded fleet verifier: many per-device [`AsapVerifier`]s behind
//! an array of independently locked shards.
//!
//! Scale shape: challenge issuance and evidence conclusion are hash-map
//! operations plus (for conclusion) a MAC recomputation. The registry
//! keeps the *map operations* under per-shard mutexes — a shard array
//! seeded at construction ([`FleetVerifier::with_shards`], default
//! [`SHARD_COUNT`]) and grown online by power-of-two splits
//! ([`FleetVerifier::grow_shards`]), shard picked by a multiplicative
//! hash of the device id against the published linear-hashing layout —
//! and performs the MAC work on a clone of the device's verifier
//! *outside* any lock. Two sessions on devices in different shards
//! therefore never contend at all, and even same-shard devices only
//! serialize the cheap map lookups, not the crypto.
//!
//! Membership can churn while rounds are in flight:
//! [`remove`](FleetVerifier::remove) bumps a fleet-wide *membership
//! generation* that [`RoundEngine::sync_membership`] watches, so an
//! evicted device's round resolves deterministically as
//! [`FleetError::Evicted`] instead of dangling to its deadline.

use crate::engine::{RoundConfig, RoundEngine};
use crate::error::FleetError;
use crate::round::RoundReport;
use crate::transport::Loopback;
use crate::DeviceId;
use apex_pox::wire::Envelope;
use asap::session::{Issued, PoxSession};
use asap::{AsapVerifier, Attested, VerifierSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Default number of registry shards
/// ([`FleetVerifier::new`]; override with
/// [`FleetVerifier::with_shards`]). The count can later *grow online*
/// — see [`FleetVerifier::grow_shards`] — but never shrinks, and shard
/// selection stays a pure function of the device id and the published
/// `(base, split)` layout, so readers need one atomic load to address.
pub const SHARD_COUNT: usize = 16;

/// One concluded frame: the device it was attributed to (when the
/// envelope decoded) and the per-device verdict.
pub type Verdict = (Option<DeviceId>, Result<Attested, FleetError>);

/// One enrolled device: its verifier (key + spec + challenge counter)
/// and the session in flight, if any.
struct DeviceEntry {
    verifier: AsapVerifier,
    in_flight: Option<PoxSession<Issued>>,
}

#[derive(Default)]
struct Shard {
    devices: HashMap<DeviceId, DeviceEntry>,
}

/// A verifier for a whole fleet of provers, keyed by [`DeviceId`].
///
/// All methods take `&self`: the registry is internally synchronized
/// and meant to be shared across verifier threads (`FleetVerifier` is
/// `Send + Sync`). See the [module docs](self) for the locking story,
/// and [`crate`] docs for a full loopback walk-through.
pub struct FleetVerifier {
    /// The shard table. Only [`grow_shards`](FleetVerifier::grow_shards)
    /// takes the write lock, and only long enough to *append* empty
    /// shards; every other access is an uncontended read-lock plus a
    /// clone of one `Arc`.
    shards: RwLock<Vec<Arc<Mutex<Shard>>>>,
    /// The published linear-hashing layout, packed `(base << 32) | split`:
    /// shards `< split` have been rehashed against `2 * base` shards,
    /// the rest still address against `base`. A completed table has
    /// `split == 0`.
    layout: AtomicU64,
    /// Serializes [`grow_shards`](FleetVerifier::grow_shards) calls so
    /// at most one doubling is in flight.
    grow_lock: Mutex<()>,
    /// Bumped on every [`remove`](FleetVerifier::remove):
    /// [`RoundEngine::sync_membership`] rescans its awaited devices only
    /// when this moved, so churn detection is one atomic load per sweep
    /// in the steady state.
    churn_generation: AtomicU64,
}

impl Default for FleetVerifier {
    fn default() -> FleetVerifier {
        FleetVerifier::new()
    }
}

impl FleetVerifier {
    /// An empty fleet over the default [`SHARD_COUNT`] shards.
    pub fn new() -> FleetVerifier {
        FleetVerifier::with_shards(SHARD_COUNT)
    }

    /// An empty fleet over `shards` lock shards (clamped to at least
    /// one). More shards mean less lock contention between the threads
    /// that share the registry — a many-reactor runtime's reactors
    /// above all; each shard is one mutex plus one hash map, so a
    /// million-device fleet can afford hundreds.
    pub fn with_shards(shards: usize) -> FleetVerifier {
        let shards = shards.max(1);
        FleetVerifier {
            shards: RwLock::new(
                (0..shards)
                    .map(|_| Arc::new(Mutex::new(Shard::default())))
                    .collect(),
            ),
            layout: AtomicU64::new(Self::pack_layout(shards, 0)),
            grow_lock: Mutex::new(()),
            churn_generation: AtomicU64::new(0),
        }
    }

    fn pack_layout(base: usize, split: usize) -> u64 {
        ((base as u64) << 32) | split as u64
    }

    /// The published `(base, split)` linear-hashing layout.
    fn layout(&self) -> (usize, usize) {
        let v = self.layout.load(Ordering::Acquire);
        ((v >> 32) as usize, (v & 0xFFFF_FFFF) as usize)
    }

    /// Number of lock shards currently live: the constructed count plus
    /// every split [`grow_shards`](FleetVerifier::grow_shards) has
    /// published so far.
    pub fn shard_count(&self) -> usize {
        let (base, split) = self.layout();
        base + split
    }

    /// Which of `shards` shards holds `id` — the pure hash both
    /// [`shard_of`](FleetVerifier::shard_of) and external partitioners
    /// compute. Every caller agreeing on `shards` computes the same
    /// answer with no coordination.
    pub fn shard_in(id: DeviceId, shards: usize) -> usize {
        // Fibonacci hashing: spreads dense (0, 1, 2, …) id assignments
        // across shards instead of clustering them modulo the count.
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % shards.max(1)
    }

    /// `shard_in` against a mid-growth `(base, split)` layout: shards
    /// below the split pointer have already been rehashed to the
    /// doubled table. Doubling preserves residues — `h % 2n` is either
    /// `h % n` or `h % n + n` — so a split moves a device from shard
    /// `s` to `s + base` or leaves it put, never anywhere else.
    fn address_in(id: DeviceId, base: usize, split: usize) -> usize {
        let i = Self::shard_in(id, base);
        if i < split {
            Self::shard_in(id, base * 2)
        } else {
            i
        }
    }

    /// Which registry shard holds `id` in *this* fleet —
    /// [`shard_in`](FleetVerifier::shard_in) over the current layout.
    /// During an online [`grow_shards`](FleetVerifier::grow_shards)
    /// this answer moves exactly once per device, when its old shard's
    /// split is published.
    pub fn shard_of(&self, id: DeviceId) -> usize {
        let (base, split) = self.layout();
        Self::address_in(id, base, split)
    }

    /// Which of `reactors` reactor threads owns `id`'s round state in a
    /// [`FleetRuntime`](crate::FleetRuntime).
    ///
    /// Affinity rides the shard hash: reactor `r` owns exactly the
    /// shards `s` with `s % reactors == r`, so the devices one reactor
    /// concludes live in a disjoint set of registry shards from every
    /// other reactor's — their `conclude` calls never touch the same
    /// shard lock. (With `reactors > shard_count` the surplus reactors
    /// own no devices; they still service connections.)
    ///
    /// # Panics
    ///
    /// When `reactors` is zero.
    pub fn reactor_of(&self, id: DeviceId, reactors: usize) -> usize {
        assert!(reactors > 0, "a runtime needs at least one reactor");
        self.shard_of(id) % reactors
    }

    /// Runs `f` under the lock of the shard that holds `id`, re-checking
    /// the layout after acquisition: if a concurrent
    /// [`grow_shards`](FleetVerifier::grow_shards) split moved `id`
    /// between our address computation and the lock, retry against the
    /// fresh layout. The splitter publishes each split *while holding
    /// both affected shard locks*, so once the address is stable under
    /// the lock the entry (if enrolled) is guaranteed present.
    fn with_shard<R>(&self, id: DeviceId, f: impl FnOnce(&mut Shard) -> R) -> R {
        loop {
            let (base, split) = self.layout();
            let idx = Self::address_in(id, base, split);
            let shard = self.shards.read().unwrap()[idx].clone();
            let mut guard = shard.lock().unwrap();
            let (base2, split2) = self.layout();
            if Self::address_in(id, base2, split2) == idx {
                return f(&mut guard);
            }
        }
    }

    /// Snapshot of every live shard, for whole-fleet sweeps.
    fn shard_snapshot(&self) -> Vec<Arc<Mutex<Shard>>> {
        self.shards.read().unwrap().clone()
    }

    /// Doubles the shard count **online**: appends `base` empty shards,
    /// then splits the existing shards one at a time — each split
    /// rehashes one shard's devices into `(s, s + base)` under exactly
    /// those two shard locks and publishes the move atomically, so
    /// rounds keep issuing and concluding throughout. No global pause,
    /// no session is dropped, and the membership generation does not
    /// move (growth is not churn: no device joins or leaves).
    ///
    /// Returns the new shard count. Concurrent calls serialize; each
    /// completes a full doubling. Reactor affinity
    /// ([`reactor_of`](FleetVerifier::reactor_of)) follows the shard
    /// hash, so devices may migrate to a different reactor on the
    /// *next* round after a growth step — mid-round, the per-shard
    /// mutexes keep cross-reactor conclusion safe, merely contended.
    /// When the pre-growth shard count is a multiple of the reactor
    /// count, affinity is stable even *across* growth (a split moves
    /// shard `s` to `s + base`, and `(s + base) % reactors == s %
    /// reactors`); doubling preserves the property, so seeding shards
    /// as a reactor-count multiple keeps routing stable forever.
    pub fn grow_shards(&self) -> usize {
        let _serialize = self.grow_lock.lock().unwrap();
        let (base, split) = self.layout();
        debug_assert_eq!(split, 0, "grow_lock serializes whole doublings");
        {
            let mut table = self.shards.write().unwrap();
            table.extend((0..base).map(|_| Arc::new(Mutex::new(Shard::default()))));
        }
        let table = self.shard_snapshot();
        for s in 0..base {
            let mut old = table[s].lock().unwrap();
            let mut new = table[s + base].lock().unwrap();
            let moved: Vec<DeviceId> = old
                .devices
                .keys()
                .copied()
                .filter(|&id| Self::shard_in(id, base * 2) != s)
                .collect();
            for id in moved {
                let entry = old.devices.remove(&id).expect("key just listed");
                new.devices.insert(id, entry);
            }
            // Publish while both locks are held: a reader that raced to
            // the old address blocks on `old`, then re-checks the
            // layout and retries at the new address.
            self.layout
                .store(Self::pack_layout(base, s + 1), Ordering::Release);
        }
        // `(base, base)` and `(2 * base, 0)` address identically, so
        // this final store needs no lock.
        self.layout
            .store(Self::pack_layout(base * 2, 0), Ordering::Release);
        base * 2
    }

    /// Enrolls a device under its shared key and image-derived spec.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateDevice`] when the id is already enrolled.
    pub fn register(&self, id: DeviceId, key: &[u8], spec: VerifierSpec) -> Result<(), FleetError> {
        self.register_shared(id, key, Arc::new(spec))
    }

    /// [`register`](FleetVerifier::register) over an already-shared
    /// spec: every device enrolled from the same `Arc` shares one copy
    /// of the expected `ER` bytes. This is the memory diet for large
    /// fleets — a million devices of one image hold a million keys but
    /// a single spec.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateDevice`] when the id is already enrolled.
    pub fn register_shared(
        &self,
        id: DeviceId,
        key: &[u8],
        spec: Arc<VerifierSpec>,
    ) -> Result<(), FleetError> {
        self.with_shard(id, |shard| {
            if shard.devices.contains_key(&id) {
                return Err(FleetError::DuplicateDevice(id));
            }
            shard.devices.insert(
                id,
                DeviceEntry {
                    verifier: AsapVerifier::new_shared(key, spec),
                    in_flight: None,
                },
            );
            Ok(())
        })
    }

    /// Unenrolls a device, dropping any session in flight, and bumps
    /// the [membership generation](FleetVerifier::membership_generation)
    /// so engines mid-round resolve the device as
    /// [`FleetError::Evicted`] on their next sweep. Returns whether the
    /// device was enrolled.
    pub fn remove(&self, id: DeviceId) -> bool {
        let removed = self.with_shard(id, |shard| shard.devices.remove(&id).is_some());
        if removed {
            self.churn_generation.fetch_add(1, Ordering::Release);
        }
        removed
    }

    /// Replaces a device's key in place: a fresh verifier under `key`
    /// sharing the old spec allocation, challenge counter restarted,
    /// any in-flight session aborted (its challenge was MACed under the
    /// dead key and can only conclude as a rejection).
    ///
    /// The device stays enrolled throughout, so no membership
    /// generation bump: a round that challenged it before the rekey
    /// simply expires it at its deadline. Schedulers that want a
    /// cleaner story rekey between rounds — see
    /// [`FleetDirectory`](crate::FleetDirectory), which stages rekeys
    /// to epoch boundaries.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] when the id is not enrolled.
    pub fn rekey(&self, id: DeviceId, key: &[u8]) -> Result<(), FleetError> {
        self.with_shard(id, |shard| {
            let entry = shard
                .devices
                .get_mut(&id)
                .ok_or(FleetError::UnknownDevice(id))?;
            entry.verifier = entry.verifier.rekeyed(key);
            entry.in_flight = None;
            Ok(())
        })
    }

    /// The fleet-wide membership generation: bumped on every
    /// [`remove`](FleetVerifier::remove).
    /// [`RoundEngine::sync_membership`] compares this against the value
    /// it last saw to decide whether an eviction rescan is due.
    pub fn membership_generation(&self) -> u64 {
        self.churn_generation.load(Ordering::Acquire)
    }

    /// Number of enrolled devices. Holds the grow serialization lock so
    /// a concurrent [`grow_shards`](FleetVerifier::grow_shards) cannot
    /// move devices mid-sweep and double-count them.
    pub fn device_count(&self) -> usize {
        let _settled = self.grow_lock.lock().unwrap();
        self.shard_snapshot()
            .iter()
            .map(|s| s.lock().unwrap().devices.len())
            .sum()
    }

    /// True when `id` is enrolled.
    pub fn is_registered(&self, id: DeviceId) -> bool {
        self.with_shard(id, |shard| shard.devices.contains_key(&id))
    }

    /// True when `id` has a session awaiting evidence right now.
    pub fn session_pending(&self, id: DeviceId) -> bool {
        self.with_shard(id, |shard| {
            shard
                .devices
                .get(&id)
                .is_some_and(|e| e.in_flight.is_some())
        })
    }

    /// Number of sessions currently awaiting evidence, fleet-wide.
    /// Like [`device_count`](FleetVerifier::device_count), serialized
    /// against growth for an exact answer.
    pub fn in_flight(&self) -> usize {
        let _settled = self.grow_lock.lock().unwrap();
        self.shard_snapshot()
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap()
                    .devices
                    .values()
                    .filter(|d| d.in_flight.is_some())
                    .count()
            })
            .sum()
    }

    /// Issues a fresh challenge to one device and returns the
    /// enveloped, wire-encoded request frame to deliver to it.
    ///
    /// If a session was already in flight for the device it is
    /// *replaced*: the old challenge becomes stale, and evidence bound
    /// to it will fail the new session's MAC check. (A verifier that
    /// re-challenges has, by definition, given up on the old round.)
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] when the id is not enrolled.
    pub fn begin(&self, id: DeviceId) -> Result<Vec<u8>, FleetError> {
        self.with_shard(id, |shard| {
            let entry = shard
                .devices
                .get_mut(&id)
                .ok_or(FleetError::UnknownDevice(id))?;
            let session = entry.verifier.begin();
            let frame = Envelope::wrap(id.0, session.request_bytes()).to_bytes();
            entry.in_flight = Some(session);
            Ok(frame)
        })
    }

    /// Issues one challenge per device and returns the request frames,
    /// in input order. A device listed more than once is challenged
    /// once, at its first occurrence — issuing twice would silently
    /// stale the first challenge and turn an honest device's evidence
    /// into a `BadMac` rejection.
    ///
    /// All-or-nothing: ids are validated up front, so an unknown device
    /// fails the call before any challenge is issued and the registry
    /// is left untouched.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] naming the first unknown id.
    pub fn begin_round(&self, ids: &[DeviceId]) -> Result<Vec<(DeviceId, Vec<u8>)>, FleetError> {
        if let Some(&id) = ids.iter().find(|&&id| !self.is_registered(id)) {
            return Err(FleetError::UnknownDevice(id));
        }
        let mut seen = std::collections::HashSet::new();
        ids.iter()
            .filter(|&&id| seen.insert(id))
            .map(|&id| Ok((id, self.begin(id)?)))
            .collect()
    }

    /// [`begin_round`](FleetVerifier::begin_round), arena-packed: the
    /// request frames are appended end-to-end into `arena` and
    /// described by returned `(device, start, len)` spans, so a round
    /// over a large cohort holds **one** transmit allocation instead of
    /// one `Vec` per challenge. This is what
    /// [`RoundEngine::begin`](crate::RoundEngine::begin) queues from.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] naming the first unknown id; the
    /// arena is left untouched in that case.
    pub fn begin_round_packed(
        &self,
        ids: &[DeviceId],
        arena: &mut Vec<u8>,
    ) -> Result<Vec<(DeviceId, u32, u32)>, FleetError> {
        if let Some(&id) = ids.iter().find(|&&id| !self.is_registered(id)) {
            return Err(FleetError::UnknownDevice(id));
        }
        let mut seen = std::collections::HashSet::new();
        let mut spans = Vec::new();
        for &id in ids.iter().filter(|&&id| seen.insert(id)) {
            let frame = self.begin(id)?;
            let start = u32::try_from(arena.len()).expect("transmit arena stays under 4 GiB");
            let len = u32::try_from(frame.len()).expect("challenge frames are small");
            arena.extend_from_slice(&frame);
            spans.push((id, start, len));
        }
        Ok(spans)
    }

    /// Absorbs one enveloped response frame and concludes the session
    /// it answers.
    ///
    /// Returns the device the frame was attributed to (when the
    /// envelope decoded) and the per-device verdict. The shard lock is
    /// held only while the session is popped; MAC verification runs on
    /// a clone of the device's verifier outside all locks.
    pub fn conclude(&self, frame: &[u8]) -> Verdict {
        let envelope = match Envelope::from_bytes(frame) {
            Ok(e) => e,
            Err(e) => return (None, Err(FleetError::Frame(e))),
        };
        let id = DeviceId(envelope.device_id);

        let popped = self.with_shard(id, |shard| {
            let Some(entry) = shard.devices.get_mut(&id) else {
                return Err(FleetError::UnknownDevice(id));
            };
            let Some(session) = entry.in_flight.take() else {
                return Err(FleetError::NoSession(id));
            };
            Ok((entry.verifier.clone(), session))
        });
        let (verifier, session) = match popped {
            Ok(pair) => pair,
            Err(e) => return (Some(id), Err(e)),
        };

        let result = session
            .evidence_bytes(&envelope.payload)
            .map_err(FleetError::Rejected)
            .and_then(|s| {
                s.conclude(&verifier)
                    .into_result()
                    .map_err(FleetError::Rejected)
            });
        (Some(id), result)
    }

    /// Concludes a whole batch of response frames, in **input order**:
    /// exactly `frames.iter().map(|f| self.conclude(f))`. Callers can
    /// feed the verdicts to [`RoundEngine::outcome_received`] and get
    /// the report a frame-at-a-time driver would have produced.
    ///
    /// Duplicates resolve deterministically: when a batch carries
    /// *several* frames for the same device, the **first frame in input
    /// order** claims the in-flight session, and every later one
    /// settles as [`FleetError::NoSession`].
    pub fn conclude_batch(&self, frames: &[Vec<u8>]) -> Vec<Verdict> {
        frames.iter().map(|f| self.conclude(f)).collect()
    }

    /// Concludes a whole round: absorbs every response frame, then
    /// charges [`FleetError::NoResponse`] to each challenged device
    /// whose session is still dangling — aborting it, so the registry
    /// ends the round with zero sessions in flight for `challenged`.
    ///
    /// Per-device isolation: a frame that fails to decode, or evidence
    /// that fails its check, yields a rejected outcome for that device
    /// only; every other frame in the round is still judged.
    ///
    /// A thin lock-step driver over [`RoundEngine`]: the frames are
    /// concluded in order on the calling thread
    /// ([`conclude_batch`](FleetVerifier::conclude_batch)), their
    /// verdicts injected in frame order, and one tick at the lock-step
    /// deadline settles the silent devices.
    pub fn conclude_round(&self, challenged: &[DeviceId], frames: &[Vec<u8>]) -> RoundReport {
        let mut engine = RoundEngine::resume(self, challenged, RoundConfig::lockstep());
        for (device, result) in self.conclude_batch(frames) {
            engine.outcome_received(device, result);
        }
        engine.tick(engine.now());
        engine.into_report()
    }

    /// Drops the in-flight session for `id`, if any. Returns whether a
    /// session was actually aborted.
    pub fn abort(&self, id: DeviceId) -> bool {
        self.with_shard(id, |shard| {
            shard
                .devices
                .get_mut(&id)
                .and_then(|e| e.in_flight.take())
                .is_some()
        })
    }

    /// Drives one full lock-step round over a [`Loopback`] fabric:
    /// challenges every device in `ids`, pumps every request frame out
    /// and every immediately-available response frame back in, and
    /// settles. Devices whose response is not available by then are
    /// reported as [`FleetError::NoResponse`].
    ///
    /// This is the zero-latency driver over [`RoundEngine`]: over a
    /// loopback, responses appear the moment a request is sent.
    /// Provers with real latency belong behind a
    /// [`FleetRuntime`](crate::FleetRuntime), which maps a wall-clock
    /// response budget onto engine ticks, or a hand-rolled engine loop.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownDevice`] when an id is not enrolled (no
    /// challenge is issued in that case).
    pub fn run_round(
        &self,
        ids: &[DeviceId],
        fabric: &mut Loopback,
    ) -> Result<RoundReport, FleetError> {
        let mut engine = RoundEngine::begin(self, ids, RoundConfig::lockstep())?;
        while let Some((device, frame)) = engine.poll_transmit() {
            fabric.send(device, &frame);
        }
        while let Some(frame) = fabric.try_recv() {
            engine.frame_received(&frame);
        }
        engine.tick(engine.now());
        Ok(engine.into_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reactor_affinity_partitions_shards() {
        // Every device lands on exactly one reactor, and that reactor
        // is a pure function of its registry shard — whatever shard
        // count the fleet was constructed with.
        for shards in [1, 4, SHARD_COUNT, 64] {
            let fleet = FleetVerifier::with_shards(shards);
            assert_eq!(fleet.shard_count(), shards);
            for reactors in 1..=4 {
                for id in 0..1000 {
                    let id = DeviceId(id);
                    let r = fleet.reactor_of(id, reactors);
                    assert!(r < reactors);
                    assert_eq!(r, fleet.shard_of(id) % reactors);
                    assert_eq!(fleet.shard_of(id), FleetVerifier::shard_in(id, shards));
                }
            }
            // One reactor owns everything.
            assert!((0..1000).all(|id| fleet.reactor_of(DeviceId(id), 1) == 0));
        }
    }

    #[test]
    fn default_shard_count_is_pinned() {
        // The default fleet keeps the historical 16-shard layout, so
        // shard/reactor affinity of existing deployments is unchanged.
        let fleet = FleetVerifier::new();
        assert_eq!(fleet.shard_count(), SHARD_COUNT);
        for id in 0..1000 {
            let id = DeviceId(id);
            assert_eq!(fleet.shard_of(id), FleetVerifier::shard_in(id, SHARD_COUNT));
        }
    }

    #[test]
    fn with_shards_clamps_zero_to_one() {
        let fleet = FleetVerifier::with_shards(0);
        assert_eq!(fleet.shard_count(), 1);
        assert_eq!(fleet.shard_of(DeviceId(7)), 0);
    }

    #[test]
    fn remove_bumps_generation_and_drops_sessions() {
        let image = asap::programs::fig4_authorized().unwrap();
        let spec = VerifierSpec::from_image(&image).unwrap();
        let fleet = FleetVerifier::with_shards(4);
        let id = DeviceId(9);
        fleet.register(id, b"k", spec).unwrap();
        fleet.begin(id).unwrap();
        assert!(fleet.session_pending(id));
        let before = fleet.membership_generation();

        assert!(fleet.remove(id));
        assert_eq!(fleet.membership_generation(), before + 1);
        assert!(!fleet.is_registered(id));
        assert_eq!(fleet.in_flight(), 0);
        // Removing an unknown id is a no-op, generation included.
        assert!(!fleet.remove(id));
        assert_eq!(fleet.membership_generation(), before + 1);
    }

    #[test]
    fn grow_doubles_and_preserves_membership_and_sessions() {
        let image = asap::programs::fig4_authorized().unwrap();
        let spec = Arc::new(VerifierSpec::from_image(&image).unwrap());
        let fleet = FleetVerifier::with_shards(4);
        for id in 0..64 {
            fleet
                .register_shared(DeviceId(id), b"k", Arc::clone(&spec))
                .unwrap();
        }
        // Half the fleet mid-round when the table doubles.
        let challenged: Vec<DeviceId> = (0..32).map(DeviceId).collect();
        let frames = fleet.begin_round(&challenged).unwrap();
        let generation = fleet.membership_generation();

        assert_eq!(fleet.grow_shards(), 8);
        assert_eq!(fleet.shard_count(), 8);
        assert_eq!(fleet.grow_shards(), 16);

        // Growth is not churn, loses no device and aborts no session.
        assert_eq!(fleet.membership_generation(), generation);
        assert_eq!(fleet.device_count(), 64);
        assert_eq!(fleet.in_flight(), 32);
        for id in 0..64 {
            let id = DeviceId(id);
            assert!(fleet.is_registered(id));
            assert_eq!(fleet.shard_of(id), FleetVerifier::shard_in(id, 16));
            assert!(fleet.shard_of(id) < fleet.shard_count());
        }
        // The pre-growth challenges still conclude: sessions migrated
        // shards with their devices. (No device answered, so a second
        // begin_round replaces them — proving lookups still resolve.)
        assert_eq!(frames.len(), 32);
        for &id in &challenged {
            assert!(fleet.session_pending(id));
            fleet.begin(id).unwrap();
        }
    }

    #[test]
    fn grow_preserves_doubling_residues() {
        // The split invariant: doubling maps shard `s` into exactly
        // `{s, s + base}`, whatever the starting count (power of two or
        // not), so each split touches two shard locks and no more.
        for base in [1usize, 3, 4, 5, 16] {
            for id in 0..1000u64 {
                let id = DeviceId(id);
                let old = FleetVerifier::shard_in(id, base);
                let new = FleetVerifier::shard_in(id, base * 2);
                assert!(new == old || new == old + base, "{base}: {old} -> {new}");
            }
        }
    }

    #[test]
    fn rekey_restarts_the_counter_and_aborts_in_flight() {
        let image = asap::programs::fig4_authorized().unwrap();
        let spec = VerifierSpec::from_image(&image).unwrap();
        let fleet = FleetVerifier::new();
        let id = DeviceId(3);
        fleet.register(id, b"old", spec).unwrap();
        fleet.begin(id).unwrap();

        let generation = fleet.membership_generation();
        fleet.rekey(id, b"new").unwrap();
        assert!(!fleet.session_pending(id), "stale challenge aborted");
        assert!(fleet.is_registered(id));
        assert_eq!(
            fleet.membership_generation(),
            generation,
            "rekey is not an eviction"
        );
        assert_eq!(
            fleet.rekey(DeviceId(99), b"x"),
            Err(FleetError::UnknownDevice(DeviceId(99)))
        );
    }
}
