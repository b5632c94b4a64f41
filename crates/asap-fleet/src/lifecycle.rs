//! The fleet lifecycle subsystem: membership state machines and
//! epoch-sampled partial rounds for fleets too large to attest in one
//! sweep.
//!
//! Everything below this module treats the device set as given: the
//! registry stores whoever is enrolled, the engine rounds over whatever
//! ids it is handed. A million-device fleet is not given — devices
//! join, leave, re-key and reconnect-storm *while rounds are in
//! flight*, and no round can afford to challenge all of them at once.
//! [`FleetDirectory`] is the layer that owns that reality:
//!
//! * **Membership as explicit state machines.** Every device is in
//!   exactly one [`DeviceState`]:
//!
//!   ```text
//!   join            epoch           rekey           epoch
//!   ────▶ Joining ────────▶ Active ◀──────▶ Rekeying ──┐
//!                              │                        │ (key applied,
//!                              │ leave                  │  back to Active)
//!                              ▼                        │
//!                          Draining ────────▶ Evicted ◀─┘ leave
//!                                     epoch
//!   ```
//!
//!   Transitions land on **epoch boundaries**
//!   ([`begin_epoch`](FleetDirectory::begin_epoch)), with one
//!   deliberate exception: [`leave`](FleetDirectory::leave) removes
//!   the device from the registry *immediately*, so a round in flight
//!   resolves it as [`FleetError::Evicted`] on its next sweep
//!   ([`RoundEngine::sync_membership`](crate::RoundEngine::sync_membership))
//!   — deterministically, never dangling in `NoResponse` limbo until a
//!   deadline.
//!
//! * **Epoch-sampled rounds.** Each epoch attests a bounded, seeded
//!   **cohort** — never the full fleet. The scheduler keeps one
//!   rotation queue of active devices, reshuffled (seeded, so two
//!   directories built alike schedule alike) every time it empties:
//!   every active device is attested exactly once per rotation cycle,
//!   and a device activated this epoch is guaranteed a slot in the
//!   *next* cohort ahead of the rotation remainder — "a device joining
//!   mid-round gets challenged in the next epoch" is a scheduler
//!   invariant, not an accident of queue position.
//!
//! * **Churn ingestion.** [`join`](FleetDirectory::join) /
//!   [`leave`](FleetDirectory::leave) /
//!   [`rekey`](FleetDirectory::rekey) /
//!   [`reconnect`](FleetDirectory::reconnect) (or the event form,
//!   [`apply`](FleetDirectory::apply)) may be called from any thread at
//!   any time, mid-round included. Rekeys are *staged*: the new key
//!   takes effect at the next epoch boundary, so an in-flight round
//!   concludes under the key its challenge was MACed with.
//!
//! The directory composes with both round drivers: hand the
//! [`EpochPlan`] cohort to [`FleetVerifier::run_round`] or
//! [`FleetRuntime::run_round`], or use the
//! [`run_epoch`](FleetDirectory::run_epoch) /
//! [`run_epochs_runtime`](FleetDirectory::run_epochs_runtime)
//! conveniences. Hello-routing needs no lifecycle awareness: a joining
//! device's hello parks its route today, and the next epoch's challenge
//! finds the route waiting.

use crate::error::FleetError;
use crate::gateway::GatewayListener;
use crate::registry::{FleetVerifier, SHARD_COUNT};
use crate::round::RoundReport;
use crate::runtime::FleetRuntime;
use crate::transport::Loopback;
use crate::DeviceId;
use asap::VerifierSpec;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where one device stands in the fleet's membership lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceState {
    /// Enrolled, awaiting activation at the next epoch boundary. The
    /// device can already hello and be routed; it is not yet scheduled.
    Joining,
    /// In rotation: attested once per rotation cycle.
    Active,
    /// A new key is staged; applied at the next epoch boundary, after
    /// which the device is `Active` again under the new key.
    Rekeying,
    /// [`leave`](FleetDirectory::leave) was called: already removed
    /// from the registry (any in-flight round resolves it as
    /// [`FleetError::Evicted`]), tombstoned at the next epoch boundary.
    Draining,
    /// Terminal tombstone. A device may re-[`join`](FleetDirectory::join)
    /// from here under a fresh enrollment.
    Evicted,
}

impl std::fmt::Display for DeviceState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DeviceState::Joining => "joining",
            DeviceState::Active => "active",
            DeviceState::Rekeying => "rekeying",
            DeviceState::Draining => "draining",
            DeviceState::Evicted => "evicted",
        };
        f.write_str(name)
    }
}

/// One membership churn event, the message form of the
/// [`FleetDirectory`] mutators — for drivers that ingest churn from a
/// feed rather than call sites.
#[derive(Debug, Clone)]
pub enum ChurnEvent {
    /// Enroll a device ([`FleetDirectory::join`]).
    Join {
        /// The fleet-wide identity to enroll.
        id: DeviceId,
        /// The device's shared attestation key.
        key: Vec<u8>,
        /// The image-derived spec, shared across same-image devices.
        spec: Arc<VerifierSpec>,
    },
    /// Unenroll a device ([`FleetDirectory::leave`]).
    Leave {
        /// The device leaving the fleet.
        id: DeviceId,
    },
    /// Stage a key replacement ([`FleetDirectory::rekey`]).
    Rekey {
        /// The device being re-keyed.
        id: DeviceId,
        /// The key that takes effect at the next epoch boundary.
        key: Vec<u8>,
    },
    /// Note a device reconnecting ([`FleetDirectory::reconnect`]).
    Reconnect {
        /// The device that re-dialed.
        id: DeviceId,
    },
}

/// Construction knobs for a [`FleetDirectory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleConfig {
    /// Registry lock shards ([`FleetVerifier::with_shards`]).
    pub shards: usize,
    /// Devices attested per epoch — the partial-round size. The
    /// scheduler never hands out a larger cohort, however big the
    /// fleet.
    pub cohort: usize,
    /// Seed for the rotation shuffle: two directories built with the
    /// same seed and fed the same churn schedule produce identical
    /// cohorts, epoch for epoch.
    pub seed: u64,
    /// How many consecutive epochs may be in flight at once. At the
    /// default of 1, epochs are strictly sequential — exactly the
    /// pre-pipelining schedule. Above 1, each cohort excludes every
    /// device drawn in the previous `pipeline_window - 1` epochs (and
    /// their staged rekeys stay staged), so the cohorts a pipelined
    /// runtime holds in flight are always **disjoint**: no challenge
    /// can supersede a still-draining session, and every verdict
    /// belongs to exactly one epoch. Cohort composition depends only on
    /// this window and the churn schedule — never on how deeply a
    /// runtime actually pipelines — so per-epoch reports stay
    /// byte-identical across pipeline depths 1..=window.
    pub pipeline_window: usize,
    /// Live devices per lock shard that trigger an **online doubling**
    /// of the registry's shard count at join time
    /// ([`FleetVerifier::grow_shards`]): a fleet enrolled at a small
    /// shard count keeps per-shard occupancy bounded as it grows to
    /// millions, with no reconstruction and no round pause. 0 disables
    /// auto-growth (growth stays available explicitly through
    /// [`FleetDirectory::grow_shards`]).
    pub grow_load: usize,
}

impl LifecycleConfig {
    /// Defaults: [`SHARD_COUNT`] shards, 1024-device cohorts, seed 1,
    /// sequential epochs (window 1).
    pub fn new() -> LifecycleConfig {
        LifecycleConfig {
            shards: SHARD_COUNT,
            cohort: 1024,
            seed: 1,
            pipeline_window: 1,
            grow_load: 1024,
        }
    }

    /// Sets the per-epoch cohort size (clamped to at least one).
    pub fn cohort(mut self, cohort: usize) -> LifecycleConfig {
        self.cohort = cohort.max(1);
        self
    }

    /// Sets the registry shard count.
    pub fn shards(mut self, shards: usize) -> LifecycleConfig {
        self.shards = shards;
        self
    }

    /// Sets the rotation shuffle seed.
    pub fn seed(mut self, seed: u64) -> LifecycleConfig {
        self.seed = seed;
        self
    }

    /// Sets the pipelined-epoch window (clamped to at least one). See
    /// [`LifecycleConfig::pipeline_window`].
    pub fn pipeline_window(mut self, window: usize) -> LifecycleConfig {
        self.pipeline_window = window.max(1);
        self
    }

    /// Sets the auto-grow load factor. See
    /// [`LifecycleConfig::grow_load`]; 0 disables auto-growth.
    pub fn grow_load(mut self, devices_per_shard: usize) -> LifecycleConfig {
        self.grow_load = devices_per_shard;
        self
    }
}

impl Default for LifecycleConfig {
    fn default() -> LifecycleConfig {
        LifecycleConfig::new()
    }
}

/// One epoch's schedule: which devices this partial round attests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochPlan {
    /// The epoch number, starting at 1 for the first
    /// [`begin_epoch`](FleetDirectory::begin_epoch).
    pub epoch: u64,
    /// The cohort to challenge, in schedule order. At most
    /// [`LifecycleConfig::cohort`] devices; shorter when fewer active
    /// devices remain unattested this cycle than the cohort holds.
    pub cohort: Vec<DeviceId>,
}

/// A point-in-time population count by [`DeviceState`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleCensus {
    /// Devices enrolled but not yet activated.
    pub joining: usize,
    /// Devices in rotation.
    pub active: usize,
    /// Devices with a staged key.
    pub rekeying: usize,
    /// Devices that left, awaiting their tombstone.
    pub draining: usize,
    /// Tombstoned devices ([`FleetDirectory::purge_evicted`] drops
    /// them).
    pub evicted: usize,
}

/// Everything behind the directory's one lock. Mutators touch single
/// entries; only epoch boundaries (and the census) walk the fleet.
struct DirectoryState {
    states: HashMap<DeviceId, DeviceState>,
    /// Keys staged by [`rekey`](FleetDirectory::rekey), applied at the
    /// next epoch boundary.
    staged_keys: HashMap<DeviceId, Vec<u8>>,
    /// Devices activated at the latest boundary, owed a slot ahead of
    /// the rotation remainder — the "challenged in the next epoch"
    /// guarantee.
    fresh: VecDeque<DeviceId>,
    /// The current rotation cycle's remainder, refilled (seeded
    /// shuffle) whenever it runs dry.
    queue: VecDeque<DeviceId>,
    /// The last `pipeline_window - 1` cohorts, oldest first — the
    /// devices a pipelined runtime may still hold in flight, excluded
    /// from the next draw. Always empty at the default window of 1.
    recent: VecDeque<Vec<DeviceId>>,
    epoch: u64,
    rng: u64,
    reconnects: u64,
    /// Registered (non-evicted) devices — the cheap census that drives
    /// the auto-grow load check without walking the fleet.
    live: usize,
}

/// Fleet membership and epoch scheduling over a [`FleetVerifier`].
///
/// See the [module docs](self) for the state machine and scheduling
/// contract. All methods take `&self`; the directory is meant to be
/// shared across threads — churn calls land mid-round from ingestion
/// threads while a round driver owns the runtime.
pub struct FleetDirectory {
    fleet: Arc<FleetVerifier>,
    config: LifecycleConfig,
    state: Mutex<DirectoryState>,
}

impl FleetDirectory {
    /// An empty directory over a fresh registry.
    pub fn new(config: LifecycleConfig) -> FleetDirectory {
        FleetDirectory {
            fleet: Arc::new(FleetVerifier::with_shards(config.shards)),
            config: LifecycleConfig {
                cohort: config.cohort.max(1),
                pipeline_window: config.pipeline_window.max(1),
                ..config
            },
            state: Mutex::new(DirectoryState {
                states: HashMap::new(),
                staged_keys: HashMap::new(),
                fresh: VecDeque::new(),
                queue: VecDeque::new(),
                recent: VecDeque::new(),
                epoch: 0,
                // xorshift has a zero fixpoint; any non-zero seed works.
                rng: config.seed.max(1),
                reconnects: 0,
                live: 0,
            }),
        }
    }

    /// The registry this directory manages. Hand it to round drivers;
    /// enrollment itself should go through the directory so membership
    /// states stay truthful.
    pub fn fleet(&self) -> &FleetVerifier {
        &self.fleet
    }

    /// The registry as a shared handle — what a persistent
    /// [`FleetRuntime`] is built over.
    pub fn fleet_arc(&self) -> Arc<FleetVerifier> {
        Arc::clone(&self.fleet)
    }

    /// The construction-time configuration.
    pub fn config(&self) -> LifecycleConfig {
        self.config
    }

    /// Epochs begun so far.
    pub fn epoch(&self) -> u64 {
        self.state.lock().unwrap().epoch
    }

    /// Reconnects noted so far ([`reconnect`](FleetDirectory::reconnect)).
    pub fn reconnects(&self) -> u64 {
        self.state.lock().unwrap().reconnects
    }

    /// One device's lifecycle state, if the directory has ever seen it.
    pub fn state_of(&self, id: DeviceId) -> Option<DeviceState> {
        self.state.lock().unwrap().states.get(&id).copied()
    }

    /// Population counts by state. Walks the fleet — an operator call,
    /// not a per-sweep one.
    pub fn census(&self) -> LifecycleCensus {
        let state = self.state.lock().unwrap();
        let mut census = LifecycleCensus::default();
        for s in state.states.values() {
            match s {
                DeviceState::Joining => census.joining += 1,
                DeviceState::Active => census.active += 1,
                DeviceState::Rekeying => census.rekeying += 1,
                DeviceState::Draining => census.draining += 1,
                DeviceState::Evicted => census.evicted += 1,
            }
        }
        census
    }

    /// Ingests one churn event — the message form of the four mutators.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateDevice`] for a join of a live device;
    /// [`FleetError::UnknownDevice`] for leave/rekey/reconnect of a
    /// device not in a state that admits the transition.
    pub fn apply(&self, event: ChurnEvent) -> Result<(), FleetError> {
        match event {
            ChurnEvent::Join { id, key, spec } => self.join_shared(id, &key, spec),
            ChurnEvent::Leave { id } => self
                .leave(id)
                .then_some(())
                .ok_or(FleetError::UnknownDevice(id)),
            ChurnEvent::Rekey { id, key } => self
                .rekey(id, &key)
                .then_some(())
                .ok_or(FleetError::UnknownDevice(id)),
            ChurnEvent::Reconnect { id } => self
                .reconnect(id)
                .then_some(())
                .ok_or(FleetError::UnknownDevice(id)),
        }
    }

    /// Enrolls a device: registered immediately (hellos route, evidence
    /// would judge), scheduled from the next epoch boundary on. A
    /// tombstoned ([`DeviceState::Evicted`]) id may re-join as a fresh
    /// enrollment.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateDevice`] when the device is currently
    /// live (anything but evicted).
    pub fn join(&self, id: DeviceId, key: &[u8], spec: VerifierSpec) -> Result<(), FleetError> {
        self.join_shared(id, key, Arc::new(spec))
    }

    /// [`join`](FleetDirectory::join) over an already-shared spec —
    /// the memory-diet path for fleets deploying one image to many
    /// devices ([`FleetVerifier::register_shared`]).
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateDevice`] when the device is currently
    /// live.
    pub fn join_shared(
        &self,
        id: DeviceId,
        key: &[u8],
        spec: Arc<VerifierSpec>,
    ) -> Result<(), FleetError> {
        let mut state = self.state.lock().unwrap();
        self.fleet.register_shared(id, key, spec)?;
        state.states.insert(id, DeviceState::Joining);
        state.live += 1;
        // Online growth: double the shard count whenever per-shard
        // occupancy crosses the load factor, so a fleet enrolled at a
        // handful of shards reaches millions of devices with bounded
        // lock contention — no reconstruction, no round pause.
        if self.config.grow_load > 0
            && state.live > self.fleet.shard_count() * self.config.grow_load
        {
            self.fleet.grow_shards();
        }
        Ok(())
    }

    /// Unenrolls a device. The registry entry is removed **now** — a
    /// round in flight resolves the device as [`FleetError::Evicted`]
    /// on its next sweep, parked challenges and all — while the
    /// directory keeps it `Draining` until the next epoch boundary
    /// tombstones it. Returns whether the device was live.
    pub fn leave(&self, id: DeviceId) -> bool {
        let mut state = self.state.lock().unwrap();
        match state.states.get_mut(&id) {
            Some(s @ (DeviceState::Joining | DeviceState::Active | DeviceState::Rekeying)) => {
                *s = DeviceState::Draining;
                state.staged_keys.remove(&id);
                state.live -= 1;
                self.fleet.remove(id);
                true
            }
            _ => false,
        }
    }

    /// Stages a key replacement, applied at the next epoch boundary —
    /// an in-flight round concludes under the old key, and the first
    /// challenge after the boundary is MACed under the new one. Calling
    /// again before the boundary replaces the staged key. Returns
    /// whether the device was in a rekeyable state (`Active` or
    /// `Rekeying`).
    pub fn rekey(&self, id: DeviceId, key: &[u8]) -> bool {
        let mut state = self.state.lock().unwrap();
        match state.states.get_mut(&id) {
            Some(s @ (DeviceState::Active | DeviceState::Rekeying)) => {
                *s = DeviceState::Rekeying;
                state.staged_keys.insert(id, key.to_vec());
                true
            }
            _ => false,
        }
    }

    /// Notes a device re-dialing in. Pure bookkeeping — routing is the
    /// runtime's job (the device's next hello moves its route) — but
    /// the count is the operator's reconnect-storm signal. Returns
    /// whether the device is live.
    pub fn reconnect(&self, id: DeviceId) -> bool {
        let mut state = self.state.lock().unwrap();
        match state.states.get(&id) {
            Some(DeviceState::Joining | DeviceState::Active | DeviceState::Rekeying) => {
                state.reconnects += 1;
                true
            }
            _ => false,
        }
    }

    /// Doubles the registry's shard count online — power-of-two split,
    /// per-shard migration under the existing locks, rounds in flight
    /// undisturbed ([`FleetVerifier::grow_shards`]). Returns the new
    /// shard count. The auto-grow path ([`LifecycleConfig::grow_load`])
    /// calls the same primitive; this is the operator's explicit lever.
    pub fn grow_shards(&self) -> usize {
        self.fleet.grow_shards()
    }

    /// Drops `Evicted` tombstones, returning how many were purged.
    /// Tombstones are kept by default so operators can distinguish
    /// "left" from "never enrolled"; purge on whatever audit cadence
    /// suits.
    pub fn purge_evicted(&self) -> usize {
        let mut state = self.state.lock().unwrap();
        let before = state.states.len();
        state.states.retain(|_, s| *s != DeviceState::Evicted);
        before - state.states.len()
    }

    /// Advances to the next epoch and returns its schedule. This is
    /// where deferred transitions land, in a fixed order:
    ///
    /// 1. `Draining` devices are tombstoned (`Evicted`);
    /// 2. staged rekeys are applied (id order), `Rekeying` → `Active`;
    /// 3. `Joining` devices activate (id order) and are queued ahead of
    ///    the rotation — each is guaranteed a slot in *this* cohort (or
    ///    the earliest one the cohort bound allows);
    /// 4. the cohort is drawn: freshly activated devices first, then
    ///    the rotation queue, reshuffled (seeded) whenever it runs dry.
    ///    Every active device is drawn exactly once per rotation cycle.
    pub fn begin_epoch(&self) -> EpochPlan {
        let mut state = self.state.lock().unwrap();
        let state = &mut *state;
        state.epoch += 1;

        // 0. Devices drawn within the pipeline window: a pipelined
        // runtime may still hold their sessions in flight, so they are
        // excluded from this draw and their rekeys stay staged. Empty
        // at the default window of 1.
        let recent: HashSet<DeviceId> = state.recent.iter().flatten().copied().collect();

        // 1. Tombstone the drained.
        for s in state.states.values_mut() {
            if *s == DeviceState::Draining {
                *s = DeviceState::Evicted;
            }
        }

        // 2. Apply staged keys, in id order so two directories fed the
        // same churn stage-for-stage rekey identically. A rekey for a
        // device whose cohort may still be in flight stays staged —
        // applying it would abort the live session and make its verdict
        // depend on pipeline timing.
        let mut staged: Vec<(DeviceId, Vec<u8>)> = state.staged_keys.drain().collect();
        staged.sort_unstable_by_key(|&(id, _)| id);
        for (id, key) in staged {
            if recent.contains(&id) {
                state.staged_keys.insert(id, key);
                continue;
            }
            if state.states.get(&id) == Some(&DeviceState::Rekeying) {
                // The entry can only be missing if the device left after
                // staging, and `leave` unstages — but never let a racy
                // feed poison the epoch.
                let _ = self.fleet.rekey(id, &key);
                state.states.insert(id, DeviceState::Active);
            }
        }

        // 3. Activate joiners, owed the earliest possible cohort slot.
        let mut activated: Vec<DeviceId> = state
            .states
            .iter()
            .filter(|&(_, s)| *s == DeviceState::Joining)
            .map(|(&id, _)| id)
            .collect();
        activated.sort_unstable();
        for &id in &activated {
            state.states.insert(id, DeviceState::Active);
            state.fresh.push_back(id);
        }

        // 4. Draw the cohort: fresh first, then the rotation, refilled
        // at most once per epoch (a second dry run means the fleet is
        // smaller than the cohort — the partial round is just small).
        // Devices in the pipeline window are set aside, not consumed:
        // they keep their place at the head of the next draw.
        let mut cohort = Vec::with_capacity(self.config.cohort.min(64));
        let mut deferred_fresh: Vec<DeviceId> = Vec::new();
        let mut skipped: Vec<DeviceId> = Vec::new();
        let mut refilled = false;
        while cohort.len() < self.config.cohort {
            if let Some(id) = state.fresh.pop_front() {
                if state.states.get(&id) != Some(&DeviceState::Active) {
                    continue;
                }
                if recent.contains(&id) {
                    deferred_fresh.push(id);
                    continue;
                }
                cohort.push(id);
                continue;
            }
            if state.queue.is_empty() {
                if refilled {
                    break;
                }
                refilled = true;
                let mut cycle: Vec<DeviceId> = state
                    .states
                    .iter()
                    .filter(|&(_, s)| *s == DeviceState::Active)
                    .map(|(&id, _)| id)
                    .filter(|id| !skipped.contains(id))
                    .collect();
                cycle.sort_unstable();
                shuffle(&mut cycle, &mut state.rng);
                state.queue = cycle.into();
            }
            match state.queue.pop_front() {
                // Drawn this epoch already (fresh) or no longer active:
                // consumed from the cycle without a second challenge.
                Some(id)
                    if state.states.get(&id) == Some(&DeviceState::Active)
                        && !cohort.contains(&id) =>
                {
                    if recent.contains(&id) {
                        skipped.push(id);
                    } else {
                        cohort.push(id);
                    }
                }
                Some(_) => continue,
                None => break,
            }
        }
        // Set-aside devices rejoin at the head: owed before the rest of
        // their rotation cycle, the moment their old epoch leaves the
        // window.
        for id in skipped.into_iter().rev() {
            state.queue.push_front(id);
        }
        for id in deferred_fresh.into_iter().rev() {
            state.fresh.push_front(id);
        }

        // Remember this cohort for the window's disjointness guarantee.
        if self.config.pipeline_window > 1 {
            state.recent.push_back(cohort.clone());
            while state.recent.len() >= self.config.pipeline_window {
                state.recent.pop_front();
            }
        }

        EpochPlan {
            epoch: state.epoch,
            cohort,
        }
    }

    /// One epoch, lock-step over a [`Loopback`] fabric —
    /// [`begin_epoch`](FleetDirectory::begin_epoch) handed to
    /// [`FleetVerifier::run_round`].
    ///
    /// # Errors
    ///
    /// Round-level errors from the driver; the epoch still advanced.
    pub fn run_epoch(&self, fabric: &mut Loopback) -> Result<(EpochPlan, RoundReport), FleetError> {
        let plan = self.begin_epoch();
        let report = self.fleet.run_round(&plan.cohort, fabric)?;
        Ok((plan, report))
    }

    /// `epochs` consecutive epochs through a persistent
    /// [`FleetRuntime`], **pipelined**: up to
    /// `min(runtime.depth(), pipeline_window)` epochs are in flight at
    /// once, so epoch N+1's challenges go out while epoch N's
    /// stragglers drain toward their deadlines. Reports come back in
    /// epoch order. The clamp to
    /// [`LifecycleConfig::pipeline_window`] is what keeps in-flight
    /// cohorts disjoint — and with it, per-epoch reports byte-identical
    /// at every depth `1..=window` and every reactor count.
    ///
    /// The runtime must have been built over this directory's registry
    /// ([`fleet_arc`](FleetDirectory::fleet_arc)).
    ///
    /// # Errors
    ///
    /// The first round-level error; earlier epochs' reports are lost
    /// with it, but every epoch submitted still advanced the schedule.
    pub fn run_epochs_runtime<L: GatewayListener>(
        &self,
        runtime: &mut FleetRuntime<L>,
        epochs: usize,
        budget: Duration,
    ) -> Result<Vec<(EpochPlan, RoundReport)>, FleetError>
    where
        L::Conn: Send + 'static,
    {
        debug_assert!(
            Arc::ptr_eq(&self.fleet, runtime.fleet()),
            "the runtime must drive this directory's registry"
        );
        let depth = runtime.depth().min(self.config.pipeline_window);
        let mut in_flight: VecDeque<(EpochPlan, u64)> = VecDeque::new();
        let mut out = Vec::with_capacity(epochs);
        let mut submitted = 0usize;
        while out.len() < epochs {
            while in_flight.len() < depth && submitted < epochs {
                let plan = self.begin_epoch();
                let ticket = runtime.submit_round(&plan.cohort, budget)?;
                in_flight.push_back((plan, ticket));
                submitted += 1;
            }
            let (plan, ticket) = in_flight.pop_front().expect("depth is at least one");
            let report = runtime.wait_round(ticket)?;
            out.push((plan, report));
        }
        Ok(out)
    }
}

/// xorshift64* — tiny, seedable, and plenty for schedule shuffling
/// (same generator family as the bench harness's `DetRng`, so seeded
/// schedules are cheap to reproduce anywhere).
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Seeded Fisher–Yates.
fn shuffle(ids: &mut [DeviceId], rng: &mut u64) {
    for i in (1..ids.len()).rev() {
        let j = (next_rand(rng) % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Arc<VerifierSpec> {
        let image = asap::programs::fig4_authorized().unwrap();
        Arc::new(VerifierSpec::from_image(&image).unwrap())
    }

    fn directory_of(n: u64, cohort: usize) -> FleetDirectory {
        let dir = FleetDirectory::new(LifecycleConfig::new().cohort(cohort).seed(7));
        let spec = spec();
        for raw in 1..=n {
            dir.join_shared(DeviceId(raw), &raw.to_le_bytes(), Arc::clone(&spec))
                .unwrap();
        }
        dir
    }

    #[test]
    fn join_activates_at_the_next_epoch_boundary() {
        let dir = directory_of(3, 8);
        for raw in 1..=3 {
            assert_eq!(dir.state_of(DeviceId(raw)), Some(DeviceState::Joining));
        }
        let plan = dir.begin_epoch();
        assert_eq!(plan.epoch, 1);
        assert_eq!(plan.cohort.len(), 3, "all three activated and drawn");
        for raw in 1..=3 {
            assert_eq!(dir.state_of(DeviceId(raw)), Some(DeviceState::Active));
        }
    }

    #[test]
    fn mid_cycle_joiner_is_challenged_in_the_very_next_epoch() {
        let dir = directory_of(8, 2);
        // Drain the enrollment backlog so the fleet is in steady state…
        for _ in 0..4 {
            dir.begin_epoch();
        }
        // …then join mid-cycle, while the rotation still queues devices.
        dir.join_shared(DeviceId(100), b"late", spec()).unwrap();
        let plan = dir.begin_epoch();
        assert!(
            plan.cohort.contains(&DeviceId(100)),
            "freshly activated devices outrank the rotation remainder: {:?}",
            plan.cohort
        );
    }

    #[test]
    fn rotation_attests_every_active_device_exactly_once_per_cycle() {
        let n = 12u64;
        let cohort = 4usize;
        let dir = directory_of(n, cohort);
        // Two full cycles: every device drawn exactly twice, and no
        // cohort exceeds the bound.
        let mut drawn: HashMap<DeviceId, usize> = HashMap::new();
        for _ in 0..(2 * n as usize / cohort) {
            let plan = dir.begin_epoch();
            assert!(plan.cohort.len() <= cohort);
            for id in plan.cohort {
                *drawn.entry(id).or_default() += 1;
            }
        }
        assert_eq!(drawn.len(), n as usize);
        assert!(drawn.values().all(|&c| c == 2), "{drawn:?}");
    }

    #[test]
    fn cohorts_are_seed_deterministic() {
        let plans_for = |seed: u64| -> Vec<Vec<DeviceId>> {
            let dir = FleetDirectory::new(LifecycleConfig::new().cohort(3).seed(seed));
            let spec = spec();
            for raw in 1..=10u64 {
                dir.join_shared(DeviceId(raw), &raw.to_le_bytes(), Arc::clone(&spec))
                    .unwrap();
            }
            (0..6).map(|_| dir.begin_epoch().cohort).collect()
        };
        assert_eq!(plans_for(42), plans_for(42));
        assert_ne!(
            plans_for(42),
            plans_for(43),
            "different seeds shuffle differently"
        );
    }

    #[test]
    fn leave_is_immediate_in_the_registry_and_tombstoned_at_the_boundary() {
        let dir = directory_of(4, 8);
        dir.begin_epoch();
        assert!(dir.leave(DeviceId(2)));
        assert_eq!(dir.state_of(DeviceId(2)), Some(DeviceState::Draining));
        assert!(!dir.fleet().is_registered(DeviceId(2)), "removal is now");
        assert!(!dir.leave(DeviceId(2)), "leave is not idempotent-true");

        let plan = dir.begin_epoch();
        assert!(!plan.cohort.contains(&DeviceId(2)));
        assert_eq!(dir.state_of(DeviceId(2)), Some(DeviceState::Evicted));
        assert_eq!(dir.purge_evicted(), 1);
        assert_eq!(dir.state_of(DeviceId(2)), None);
    }

    #[test]
    fn rekey_is_staged_to_the_boundary_and_restarts_the_key() {
        let dir = directory_of(2, 8);
        assert!(!dir.rekey(DeviceId(1), b"nope"), "joining is not rekeyable");
        dir.begin_epoch();
        assert!(dir.rekey(DeviceId(1), b"fresh"));
        assert_eq!(dir.state_of(DeviceId(1)), Some(DeviceState::Rekeying));
        // Staged only: the registry still issues under the old key (a
        // session begun now remains concludable).
        assert!(dir.fleet().begin(DeviceId(1)).is_ok());
        let plan = dir.begin_epoch();
        assert_eq!(dir.state_of(DeviceId(1)), Some(DeviceState::Active));
        assert!(plan.cohort.contains(&DeviceId(1)));
        assert!(
            !dir.fleet().session_pending(DeviceId(1)),
            "boundary rekey aborted the stale session"
        );
    }

    #[test]
    fn reconnects_count_only_live_devices() {
        let dir = directory_of(2, 8);
        assert!(dir.reconnect(DeviceId(1)));
        assert!(!dir.reconnect(DeviceId(99)));
        dir.leave(DeviceId(2));
        assert!(!dir.reconnect(DeviceId(2)));
        assert_eq!(dir.reconnects(), 1);
    }

    #[test]
    fn census_counts_every_state() {
        let dir = directory_of(5, 8);
        dir.begin_epoch(); // all active
        dir.join_shared(DeviceId(10), b"j", spec()).unwrap();
        dir.rekey(DeviceId(1), b"r");
        dir.leave(DeviceId(2));
        let census = dir.census();
        assert_eq!(census.joining, 1);
        assert_eq!(census.active, 3);
        assert_eq!(census.rekeying, 1);
        assert_eq!(census.draining, 1);
        assert_eq!(census.evicted, 0);
        dir.begin_epoch();
        assert_eq!(dir.census().evicted, 1);
    }

    #[test]
    fn evicted_ids_may_rejoin_fresh() {
        let dir = directory_of(1, 8);
        dir.begin_epoch();
        assert_eq!(
            dir.join_shared(DeviceId(1), b"again", spec()),
            Err(FleetError::DuplicateDevice(DeviceId(1))),
            "live devices cannot double-join"
        );
        dir.leave(DeviceId(1));
        dir.begin_epoch();
        dir.join_shared(DeviceId(1), b"again", spec()).unwrap();
        assert_eq!(dir.state_of(DeviceId(1)), Some(DeviceState::Joining));
        let plan = dir.begin_epoch();
        assert_eq!(plan.cohort, vec![DeviceId(1)]);
    }

    #[test]
    fn apply_maps_events_to_mutators() {
        let dir = directory_of(0, 8);
        dir.apply(ChurnEvent::Join {
            id: DeviceId(1),
            key: b"k".to_vec(),
            spec: spec(),
        })
        .unwrap();
        dir.begin_epoch();
        dir.apply(ChurnEvent::Rekey {
            id: DeviceId(1),
            key: b"k2".to_vec(),
        })
        .unwrap();
        dir.apply(ChurnEvent::Reconnect { id: DeviceId(1) })
            .unwrap();
        dir.apply(ChurnEvent::Leave { id: DeviceId(1) }).unwrap();
        assert_eq!(
            dir.apply(ChurnEvent::Leave { id: DeviceId(1) }),
            Err(FleetError::UnknownDevice(DeviceId(1)))
        );
    }
}
