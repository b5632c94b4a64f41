//! `fleet_steady` and `fleet_churn`: an enrolled fleet of simulated
//! Fig. 4 provers, judged round after round through a `FleetRuntime`.
//!
//! Two prover threads each host half the fleet behind one socketpair
//! into a runtime with one reactor and pipeline depth 1. The main
//! thread runs back-to-back full rounds in a closed loop: the next round
//! starts when the previous one has settled. The simulator runs only during set-up,
//! when every prover is run to its done loop; the timed phase is the MAC
//! on both sides, the wire, the registry, the engine and the runtime.
//!
//! `fleet_churn` additionally applies a seeded schedule before every
//! round: 5% of the devices leave and re-enroll, and another 5% are
//! rekeyed on the verifier side only, so their evidence is rejected as a
//! MAC mismatch; they are rekeyed back before the next round.

use crate::corpus::exercise;
use crate::probe::{self, Counted, SimStats, Span};
use crate::replay::{self, Member};
use crate::{Config, Layers, Outcome, Rounds, SetupTimes, Workload, TRACE_SEGMENTS, WORKERS};
use apex_pox::wire::Envelope;
use asap::{AsapError, AsapVerifier, PoxMode, VerifierSpec};
use asap_corpus::CorpusProgram;
use asap_fleet::{
    announce_devices, serve_frames, DeviceId, FleetRuntime, FleetVerifier, Loopback, NoListener,
    RoundReport,
};
use std::collections::HashMap;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Response budget of one round: far above a round's length, so only a
/// lost prover can hit it.
const ROUND_BUDGET: Duration = Duration::from_secs(5);

/// Untimed rounds between set-up and the timed phase.
const WARM_ROUNDS: usize = 3;

/// Seed offset of the wrong keys `fleet_churn` rekeys devices to.
const WRONG_KEY_SEED: u64 = 0x5EED_BAD0_C0FF_EE00;

/// Seed offset of `fleet_churn`'s schedule.
const CHURN_SEED: u64 = 0xB3C4_D5E6_F708_1929;

/// The 16-byte key of fleet device `id` under `seed`: the first half of
/// `SHA-256(seed ‖ id)`, as the repository's fleet harness derives it.
fn device_key(seed: u64, id: u64) -> Vec<u8> {
    let mut input = [0u8; 16];
    input[..8].copy_from_slice(&seed.to_le_bytes());
    input[8..].copy_from_slice(&id.to_le_bytes());
    pox_crypto::sha256::digest(&input)[..16].to_vec()
}

/// The program every fleet device runs.
fn fig4(link: &mut Span, traced: bool) -> Result<(CorpusProgram, u16), String> {
    let program = link
        .time(traced, || {
            asap_corpus::load_str("fig4-authorized", asap::programs::FIG4_AUTHORIZED)
        })
        .map_err(|e| e.to_string())?;
    let stop = program
        .image
        .symbol(&program.manifest.run_until)
        .ok_or("fig4-authorized has no stop symbol")?;
    Ok((program, stop))
}

/// What one prover thread measured over its life.
#[derive(Debug, Default)]
struct ProverReport {
    link: Span,
    build: Span,
    sim: SimStats,
    /// `attest_bytes` calls made while the main thread had tracing on.
    attest: Span,
    attests: u64,
    cycles: u64,
    errors: u64,
}

/// One set-up's share of the fleet for one prover thread.
struct Job {
    stream: Counted<UnixStream>,
    ids: Vec<DeviceId>,
    seed: u64,
    trace_setup: bool,
    ready: mpsc::Sender<Result<(), String>>,
}

/// Builds and runs a job's devices, announces them, then serves
/// attestation requests until the runtime hangs up.
fn host(job: Job, r: &mut ProverReport, tracing: &AtomicBool) {
    let Job {
        mut stream,
        ids,
        seed,
        trace_setup,
        ready,
    } = job;
    let built = (|| {
        let (program, stop) = fig4(&mut r.link, trace_setup)?;
        let mut devices = HashMap::with_capacity(ids.len());
        for &id in &ids {
            let key = device_key(seed, id.0);
            let device = exercise(&program, stop, &key, &mut r.build, &mut r.sim, trace_setup)?;
            devices.insert(id, device);
        }
        Ok::<_, String>(devices)
    })();
    let mut devices = match built {
        Ok(d) => d,
        Err(e) => {
            let _ = ready.send(Err(e));
            return;
        }
    };
    // Ready before announcing: the hellos fill the socket buffer until
    // the runtime reads them, which it does only once a round is live.
    let _ = ready.send(Ok(()));
    if announce_devices(&mut stream, &ids).is_err() {
        r.errors += 1;
        return;
    }
    serve_frames(stream, |id, envelope| {
        let device = devices.get_mut(&id)?;
        let on = tracing.load(Ordering::Relaxed);
        let before = device.mcu.cycles();
        match r.attest.time(on, || device.attest_bytes(&envelope.payload)) {
            Ok(response) => {
                r.attests += 1;
                r.cycles += device.mcu.cycles() - before;
                Some(Envelope::wrap(id.0, response).to_bytes())
            }
            Err(_) => {
                r.errors += 1;
                None
            }
        }
    });
}

/// The prover threads. They outlive set-ups, as prover hosts outlive
/// the verifier's re-provisioning: each rebuilds its share of the fleet
/// on its own allocator arena every set-up, so repeated set-ups reuse
/// the memory of the last one and the peak RSS does not depend on which
/// freed arena a new thread happens to pick.
struct Provers {
    jobs: Vec<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<ProverReport>>,
    finished: mpsc::Receiver<()>,
    tids: Vec<u64>,
    /// Socket calls made by each prover thread.
    calls: Vec<Arc<AtomicU64>>,
}

impl Provers {
    fn spawn(tracing: &Arc<AtomicBool>) -> Provers {
        let (finished_tx, finished) = mpsc::channel();
        let (tid_tx, tid_rx) = mpsc::channel();
        let (mut jobs, mut handles) = (Vec::new(), Vec::new());
        for _ in 0..WORKERS {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            let (finished_tx, tid_tx, tracing) =
                (finished_tx.clone(), tid_tx.clone(), Arc::clone(tracing));
            jobs.push(job_tx);
            handles.push(std::thread::spawn(move || {
                let _ = tid_tx.send(probe::current_tid());
                let mut r = ProverReport::default();
                for job in job_rx {
                    host(job, &mut r, &tracing);
                    let _ = finished_tx.send(());
                }
                r
            }));
        }
        let tids = (0..WORKERS).filter_map(|_| tid_rx.recv().ok()).collect();
        Provers {
            jobs,
            handles,
            finished,
            tids,
            calls: (0..WORKERS).map(|_| Arc::new(AtomicU64::new(0))).collect(),
        }
    }

    fn socket_calls(&self) -> u64 {
        self.calls.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Stops the threads and returns what they measured.
    fn finish(self) -> Vec<ProverReport> {
        drop(self.jobs);
        self.handles
            .into_iter()
            .map(|h| h.join().expect("a prover thread panicked"))
            .collect()
    }
}

/// A fleet ready to serve.
struct Served {
    fleet: Arc<FleetVerifier>,
    runtime: FleetRuntime<NoListener<Counted<UnixStream>>>,
    /// Socket calls made by the runtime.
    verifier_calls: Arc<AtomicU64>,
    spec: Arc<VerifierSpec>,
}

impl Served {
    /// Hangs up every connection and waits until every prover has
    /// dropped its devices.
    fn shut_down(self, provers: &Provers) {
        drop(self.runtime);
        for _ in &provers.jobs {
            let _ = provers.finished.recv();
        }
    }
}

/// The timed set-up: enroll the fleet, build the provers and run them
/// to their done loop, adopt the connections and warm the routes with
/// one full round.
fn setup(
    ids: &[DeviceId],
    seed: u64,
    traced: bool,
    provers: &Provers,
    link: &mut Span,
) -> Result<Served, String> {
    let (program, _) = fig4(link, traced)?;
    let spec = Arc::new(
        VerifierSpec::from_image(&program.image)
            .map_err(|e| format!("verifier spec: {e}"))?
            .mode(PoxMode::Asap),
    );
    let (ready_tx, ready_rx) = mpsc::channel();
    let mut verifier_ends = Vec::with_capacity(WORKERS);
    let chunks = ids.chunks(ids.len().div_ceil(WORKERS));
    for ((chunk, jobs), calls) in chunks.zip(&provers.jobs).zip(&provers.calls) {
        let (verifier_end, prover_end) =
            UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
        verifier_ends.push(verifier_end);
        jobs.send(Job {
            stream: Counted::new(prover_end, Arc::clone(calls)),
            ids: chunk.to_vec(),
            seed,
            trace_setup: traced,
            ready: ready_tx.clone(),
        })
        .map_err(|_| "a prover thread is gone")?;
    }
    let fleet = Arc::new(FleetVerifier::new());
    for &id in ids {
        fleet
            .register_shared(id, &device_key(seed, id.0), Arc::clone(&spec))
            .map_err(|e| format!("enroll: {e}"))?;
    }
    let mut runtime = FleetRuntime::detached(Arc::clone(&fleet), 1, 1);
    let verifier_calls = Arc::new(AtomicU64::new(0));
    for _ in 0..verifier_ends.len() {
        ready_rx
            .recv()
            .map_err(|_| "a prover thread exited before it was ready".to_string())??;
    }
    for end in verifier_ends {
        runtime
            .adopt(Counted::new(end, Arc::clone(&verifier_calls)))
            .map_err(|e| format!("adopt: {e}"))?;
    }
    let report = runtime
        .run_round(ids, ROUND_BUDGET)
        .map_err(|e| format!("warm-up round: {e}"))?;
    if report.verified() != ids.len() {
        return Err(format!(
            "warm-up round verified {} of {}",
            report.verified(),
            ids.len()
        ));
    }
    Ok(Served {
        fleet,
        runtime,
        verifier_calls,
        spec,
    })
}

/// `fleet_churn`'s seeded schedule, with every key it hands out
/// derived up front so the timed phase spends nothing on them.
struct Churn {
    rng: asap_corpus::XorShift64,
    order: Vec<usize>,
    /// Devices whose verifier-side key is wrong this round.
    wrong: Vec<bool>,
    per_round: usize,
    keys: Vec<Vec<u8>>,
    wrong_keys: Vec<Vec<u8>>,
}

impl Churn {
    fn new(seed: u64, ids: &[DeviceId]) -> Churn {
        Churn {
            rng: asap_corpus::XorShift64::new(seed ^ CHURN_SEED),
            order: (0..ids.len()).collect(),
            wrong: vec![false; ids.len()],
            per_round: ids.len() / 20,
            keys: ids.iter().map(|id| device_key(seed, id.0)).collect(),
            wrong_keys: ids
                .iter()
                .map(|id| device_key(seed ^ WRONG_KEY_SEED, id.0))
                .collect(),
        }
    }

    /// Gives every wrongly keyed device its own key back.
    fn rekey_back(&mut self, s: &Served, ids: &[DeviceId]) -> Result<(), String> {
        for (i, wrong) in self.wrong.iter_mut().enumerate() {
            if std::mem::take(wrong) {
                s.fleet
                    .rekey(ids[i], &self.keys[i])
                    .map_err(|e| format!("rekey back: {e}"))?;
            }
        }
        Ok(())
    }

    /// Undoes last round's wrong keys, then picks this round's leavers
    /// and wrongly keyed devices (disjoint, 5% each) and applies them.
    fn apply(&mut self, s: &Served, ids: &[DeviceId]) -> Result<(), String> {
        self.rekey_back(s, ids)?;
        let n = self.order.len();
        for j in 0..2 * self.per_round {
            let pick = j + self.rng.below((n - j) as u64) as usize;
            self.order.swap(j, pick);
        }
        for &i in &self.order[..self.per_round] {
            let id = ids[i];
            if !s.fleet.remove(id) {
                return Err(format!("device {id} was not enrolled"));
            }
            s.fleet
                .register_shared(id, &self.keys[i], Arc::clone(&s.spec))
                .map_err(|e| format!("re-enroll: {e}"))?;
        }
        for &i in &self.order[self.per_round..2 * self.per_round] {
            s.fleet
                .rekey(ids[i], &self.wrong_keys[i])
                .map_err(|e| format!("rekey: {e}"))?;
            self.wrong[i] = true;
        }
        Ok(())
    }
}

/// Sessions in `report` whose verdict differs from the expected one:
/// verified, or a MAC mismatch for a device in `wrong` (indexed by id-1).
fn misjudged(report: &RoundReport, devices: usize, wrong: Option<&[bool]>) -> u64 {
    let mut bad = 0;
    for o in &report.outcomes {
        let Some(i) = o
            .device
            .and_then(|d| d.0.checked_sub(1))
            .map(|i| i as usize)
        else {
            bad += 1;
            continue;
        };
        let want_reject = wrong.is_some_and(|w| w.get(i).copied().unwrap_or(false));
        let ok = match &o.result {
            Ok(_) => !want_reject && i < devices,
            Err(e) => want_reject && e.rejection() == Some(&AsapError::BadMac),
        };
        if !ok {
            bad += 1;
        }
    }
    let missing = devices.saturating_sub(report.outcomes.len());
    bad + missing as u64
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let scale = config.scale;
    let seed = config.seed;
    let n = scale.devices;
    let ids: Vec<DeviceId> = (1..=n as u64).map(DeviceId).collect();
    let tracing = Arc::new(AtomicBool::new(false));
    let mut layers = Layers::default();
    let provers = Provers::spawn(&tracing);

    let mut setups = SetupTimes::default();
    let mut served: Option<Served> = None;
    for _ in 0..scale.setup_repeats.max(1) {
        if let Some(old) = served.take() {
            old.shut_down(&provers);
        }
        served = Some(setups.time(|| setup(&ids, seed, config.trace, &provers, &mut layers.link))?);
    }
    let mut s = served.expect("at least one set-up ran");
    for _ in 0..WARM_ROUNDS {
        s.runtime
            .run_round(&ids, ROUND_BUDGET)
            .map_err(|e| format!("warm-up round: {e}"))?;
    }

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut churn = (config.workload == Workload::FleetChurn).then(|| Churn::new(seed, &ids));
    let accepted = s.runtime.accepted_connections();
    let (mut plain, mut traced) = (Rounds::default(), Rounds::default());
    // Wall time inside `run_round` during traced segments, for the
    // per-session round time the layer split adds up to.
    let mut traced_round_secs = 0.0;
    let socket_calls = |s: &Served| {
        (
            provers.socket_calls(),
            s.verifier_calls.load(Ordering::Relaxed),
        )
    };
    let calls_before = socket_calls(&s);
    let before = probe::ctx_switches();
    let segment = config.seconds / f64::from(TRACE_SEGMENTS);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < config.seconds {
        let on = config.trace && (start.elapsed().as_secs_f64() / segment) as u64 % 2 == 1;
        tracing.store(on, Ordering::Relaxed);
        let (cpu, wall) = (probe::process_cpu_secs(), Instant::now());
        if let Some(c) = churn.as_mut() {
            c.apply(&s, &ids)?;
        }
        let in_round = Instant::now();
        let result = s.runtime.run_round(&ids, ROUND_BUDGET);
        let round_secs = in_round.elapsed().as_secs_f64();
        let round = plain.count() + traced.count() + 1;
        out.attempted += n as u64;
        let wrong = match result {
            Ok(report) => misjudged(&report, n, churn.as_ref().map(|c| c.wrong.as_slice())),
            Err(e) => {
                out.note(format!("round {round} failed: {e}"));
                n as u64
            }
        };
        if wrong > 0 {
            out.fail(wrong, format!("round {round} misjudged {wrong} sessions"));
        }
        if s.fleet.in_flight() != 0 {
            out.fail(0, format!("round {round} left sessions in flight"));
        }
        let rounds = if on { &mut traced } else { &mut plain };
        rounds.record(
            wall.elapsed().as_secs_f64(),
            probe::process_cpu_secs() - cpu,
            n as u64,
            n as u64 - wrong,
        );
        if on {
            traced_round_secs += round_secs;
        }
    }
    let after = probe::ctx_switches();
    let calls_after = socket_calls(&s);
    tracing.store(false, Ordering::Relaxed);
    if s.runtime.accepted_connections() != accepted {
        out.fail(
            0,
            "the runtime accepted new connections during the timed phase",
        );
    }
    out.note(format!(
        "{}: {n} devices (seed {seed:#x}), {WORKERS} prover threads on {WORKERS} socketpairs, 1 reactor, depth 1, {} rounds in {:.2} s, nproc {}",
        config.workload.name(),
        plain.count() + traced.count(),
        plain.wall_s + traced.wall_s,
        std::thread::available_parallelism().map_or(0, usize::from),
    ));
    if let Some(c) = &churn {
        out.note(format!(
            "churn per round: {} leave and re-enroll, {} rekeyed wrong (expected MAC mismatches)",
            c.per_round, c.per_round
        ));
    }

    if config.trace {
        (layers.prover_ctx_switches, layers.verifier_ctx_switches) =
            probe::ctx_switch_delta(&before, &after, &provers.tids);
        layers.prover_syscalls = calls_after.0 - calls_before.0;
        layers.verifier_syscalls = calls_after.1 - calls_before.1;
        layers.timed(&plain, &traced);
        if let Some(c) = churn.as_mut() {
            c.rekey_back(&s, &ids)?;
        }
        let wrong = replay_fleet(&s, &ids, seed, scale.replay_rounds, &mut layers)?;
        if wrong > 0 {
            out.fail(wrong, "the lock-step replay misjudged fleet sessions");
        }
        s.shut_down(&provers);
        for r in &provers.finish() {
            layers.build.merge(&r.build);
            layers.sim.merge(&r.sim);
            layers.link.merge(&r.link);
            layers.attest.merge(&r.attest);
        }
        layers.session_us = probe::ratio(traced_round_secs * 1e6, traced.sessions);
        layers.layer_sum_us = layers.replay.session_path_us();
        let prover_us = traced.wall_s * 1e6 * WORKERS as f64;
        layers.busy_share = if prover_us > 0.0 {
            layers.attest.nanos as f64 / 1e3 / prover_us
        } else {
            0.0
        };
        out.note(format!(
            "trace: {} untraced rounds in {:.2} s, {} traced rounds in {:.2} s",
            plain.count(),
            plain.wall_s,
            traced.count(),
            traced.wall_s
        ));
        layers.report(&mut out);
    } else {
        s.shut_down(&provers);
        let reports = provers.finish();
        let (attests, cycles) = reports
            .iter()
            .fold((0, 0), |(a, c), r| (a + r.attests, c + r.cycles));
        let errors: u64 = reports.iter().map(|r| r.errors).sum();
        if errors > 0 {
            out.fail(
                0,
                format!("{errors} attestation requests failed on the provers"),
            );
        }
        plain.report(
            &mut out,
            &mut setups,
            probe::ratio(cycles as f64, attests),
            "rounds",
        );
    }
    Ok(out)
}

/// The lock-step replay over the served fleet's own registry, plus a
/// single-device conclude per device; returns the sessions misjudged.
fn replay_fleet(
    s: &Served,
    ids: &[DeviceId],
    seed: u64,
    rounds: usize,
    layers: &mut Layers,
) -> Result<u64, String> {
    let (program, stop) = fig4(&mut Span::default(), false)?;
    let (mut build, mut sim) = (Span::default(), SimStats::default());
    let mut provers = Loopback::new();
    let mut members = Vec::with_capacity(ids.len());
    for &id in ids {
        let key = device_key(seed, id.0);
        provers.attach(
            id,
            exercise(&program, stop, &key, &mut build, &mut sim, false)?,
        );
        members.push(Member {
            id,
            key,
            spec: Arc::clone(&s.spec),
        });
    }
    let n = ids.len();
    let mut wrong = replay::replay(
        &s.fleet,
        &members,
        &mut provers,
        rounds,
        &mut layers.replay,
        |r| misjudged(r, n, None),
    )?;
    for m in &members {
        let mut verifier = AsapVerifier::new_shared(&m.key, Arc::clone(&m.spec));
        let session = verifier.begin();
        let device = provers.device_mut(m.id).ok_or("replay prover missing")?;
        let response = device
            .attest_bytes(&session.request_bytes())
            .map_err(|e| format!("attest: {e}"))?;
        let verdict = layers.conclude.time(true, || {
            session
                .evidence_bytes(&response)
                .and_then(|s| s.conclude(&verifier).into_result())
        });
        if verdict.is_err() {
            wrong += 1;
        }
    }
    Ok(wrong)
}
