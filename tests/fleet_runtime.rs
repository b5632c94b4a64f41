//! The persistent fleet runtime end to end: rounds over a real socket
//! (socketpairs and a TCP listener, provers served from another thread
//! that shares nothing but bytes, silence and hangups resolved by
//! deadline), reactors that park between rounds instead of being
//! re-spawned, duplicate evidence concluded inline in stream order,
//! pipelined epochs with byte-identical per-epoch reports across every
//! reactor count *and* pipeline depth, verdict attribution under churn
//! with several epochs in flight, and online shard growth under live
//! rounds with no pause and no verdict changes.

use apex_pox::wire::{frame_stream, Envelope, StreamDeframer, ENVELOPE_OVERHEAD};
use asap::{programs, Device, PoxMode, VerifierSpec};
use asap_bench::fleet::{host_gateway_provers, DetRng};
use asap_fleet::{
    announce_devices, DeviceId, EpochPlan, FleetDirectory, FleetError, FleetRuntime, FleetVerifier,
    LifecycleConfig, NoListener, RoundReport,
};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wall-clock budget per round: generous enough that honest provers
/// never miss it on a loaded CI box.
const BUDGET: Duration = Duration::from_millis(1500);

fn key_for(id: DeviceId) -> Vec<u8> {
    format!("runtime-key-{id}").into_bytes()
}

fn shared_spec() -> Arc<VerifierSpec> {
    let image = programs::fig4_authorized().unwrap();
    Arc::new(
        VerifierSpec::from_image(&image)
            .unwrap()
            .mode(PoxMode::Asap),
    )
}

/// Enrolls `ids` into a fresh shared registry over `shards` lock
/// shards.
fn fleet_of(ids: &[DeviceId], shards: usize) -> Arc<FleetVerifier> {
    let fleet = FleetVerifier::with_shards(shards);
    let spec = shared_spec();
    for &id in ids {
        fleet
            .register_shared(id, &key_for(id), Arc::clone(&spec))
            .unwrap();
    }
    Arc::new(fleet)
}

/// Hosts provers for `ids` on the far end of a stream, on its own
/// thread (devices are built inside the thread; they are not `Send`).
fn spawn_host<S: std::io::Read + std::io::Write + Send + 'static>(
    stream: S,
    ids: Vec<DeviceId>,
    silent: Vec<DeviceId>,
) -> JoinHandle<()> {
    std::thread::spawn(move || host_gateway_provers(stream, &ids, key_for, &silent, || ()))
}

/// Polls until the registry holds an open session for `id` — the
/// gate that makes mid-round churn injection deterministic: once the
/// challenge is out, an eviction can only resolve as `Evicted`.
fn wait_session_pending(fleet: &FleetVerifier, id: DeviceId) {
    let start = Instant::now();
    while !fleet.session_pending(id) {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "challenge for {id} never issued"
        );
        std::thread::yield_now();
    }
}

/// The headline shape: one runtime, one connection, many rounds. The
/// reactors park between rounds and the adopted connection survives
/// them all.
#[test]
fn persistent_runtime_reuses_connections_across_rounds() {
    let ids: Vec<DeviceId> = (1..=6).map(DeviceId).collect();
    let fleet = fleet_of(&ids, 4);

    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), 2, 1);
    assert_eq!(runtime.reactors(), 2);
    assert_eq!(runtime.depth(), 1);

    let (gw_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(gw_end).unwrap();
    let host = spawn_host(prover_end, ids.clone(), Vec::new());

    for round in 1..=5 {
        let report = runtime.run_round(&ids, BUDGET).unwrap();
        assert_eq!(report.verified(), ids.len(), "round {round}: {report}");
        assert_eq!(runtime.in_flight_epochs(), 0);
    }
    assert_eq!(
        runtime.accepted_connections(),
        1,
        "five rounds, one connection: nothing was re-dialed or re-adopted"
    );
    assert_eq!(fleet.in_flight(), 0, "sessions leaked");

    drop(runtime);
    host.join().unwrap();
}

/// Hosts provers for `ids` behind `stream` and answers a whole round
/// in a single write: `forged`'s evidence with one payload bit flipped,
/// its honest evidence right behind it, then every other device's
/// evidence. Stays connected until the runtime hangs up.
fn host_duplicate_evidence(
    mut stream: UnixStream,
    ids: Vec<DeviceId>,
    forged: DeviceId,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let image = programs::fig4_authorized().unwrap();
        let mut devices: HashMap<DeviceId, Device> = ids
            .iter()
            .map(|&id| {
                let mut device = Device::builder(&image)
                    .mode(PoxMode::Asap)
                    .key(&key_for(id))
                    .build()
                    .unwrap();
                assert!(device.run_until_pc(programs::done_pc(), 10_000));
                (id, device)
            })
            .collect();
        announce_devices(&mut stream, &ids).unwrap();

        let mut deframer = StreamDeframer::new();
        let mut challenges = Vec::new();
        let mut buf = [0u8; 4096];
        while challenges.len() < ids.len() {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "the runtime hung up before challenging everyone");
            deframer.extend(&buf[..n]);
            while let Some(frame) = deframer.next_frame().unwrap() {
                challenges.push(Envelope::from_bytes(&frame).unwrap());
            }
        }

        let (mut burst, mut rest) = (Vec::new(), Vec::new());
        for challenge in challenges {
            let id = DeviceId(challenge.device_id);
            let evidence = devices
                .get_mut(&id)
                .unwrap()
                .attest_bytes(&challenge.payload)
                .unwrap();
            let honest = Envelope::wrap(id.0, evidence).to_bytes();
            if id == forged {
                let mut corrupt = honest.clone();
                corrupt[ENVELOPE_OVERHEAD as usize] ^= 0x01;
                burst.extend(frame_stream(&corrupt));
                burst.extend(frame_stream(&honest));
            } else {
                rest.extend(frame_stream(&honest));
            }
        }
        burst.extend(rest);
        stream.write_all(&burst).unwrap();
        while stream.read(&mut buf).is_ok_and(|n| n > 0) {}
    })
}

/// Duplicate evidence over a real socket, concluded inline on the
/// owning reactor: a corrupted response and then the honest one for
/// the same device arrive back to back in one write. The first frame in
/// stream order owns the session, so the device is `Rejected` and the
/// repeat settles as `NoSession`; every other device verifies, and the
/// report is identical at 1 and 2 reactors.
#[test]
fn duplicate_evidence_resolves_in_stream_order() {
    let ids: Vec<DeviceId> = (1..=8).map(DeviceId).collect();
    let forged = ids[0];
    let mut reports = Vec::new();
    for reactors in [1usize, 2] {
        let fleet = fleet_of(&ids, 4);
        // The repeat reaches its owner's engine before the engine can
        // settle only if the owner still awaits a later frame.
        let owner = fleet.reactor_of(forged, reactors);
        assert!(
            ids.iter()
                .filter(|&&id| fleet.reactor_of(id, reactors) == owner)
                .count()
                >= 2,
            "the forged device's owner must own another device"
        );
        let mut runtime: FleetRuntime<NoListener<UnixStream>> =
            FleetRuntime::detached(Arc::clone(&fleet), reactors, 1);
        let (rt_end, prover_end) = UnixStream::pair().unwrap();
        runtime.adopt(rt_end).unwrap();
        let host = host_duplicate_evidence(prover_end, ids.clone(), forged);

        let report = runtime.run_round(&ids, BUDGET).unwrap();
        let forged_outcomes: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| o.device == Some(forged))
            .map(|o| &o.result)
            .collect();
        assert_eq!(forged_outcomes.len(), 2, "{reactors} reactors: {report}");
        assert!(
            matches!(forged_outcomes[0], Err(FleetError::Rejected(_))),
            "{reactors} reactors: the first frame owns the session: {:?}",
            forged_outcomes[0]
        );
        assert_eq!(forged_outcomes[1], &Err(FleetError::NoSession(forged)));
        assert_eq!(report.verified(), ids.len() - 1, "{reactors} reactors");
        for &id in &ids[1..] {
            assert!(matches!(report.of(id), Some(Ok(_))), "{id}: {report}");
        }
        assert_eq!(fleet.in_flight(), 0, "sessions leaked");

        drop(runtime);
        host.join().unwrap();
        reports.push(report);
    }
    assert_eq!(reports[0], reports[1], "reports diverged across reactors");
}

/// Submitting an unknown device issues nothing, and a ticket that was
/// never issued errors instead of hanging.
#[test]
fn unknown_devices_and_tickets_are_rejected() {
    let ids: Vec<DeviceId> = (1..=2).map(DeviceId).collect();
    let fleet = fleet_of(&ids, 4);
    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), 1, 2);

    let stranger = DeviceId(99);
    assert_eq!(
        runtime.submit_round(&[ids[0], stranger], BUDGET),
        Err(FleetError::UnknownDevice(stranger))
    );
    assert_eq!(runtime.in_flight_epochs(), 0, "no partial submission");
    assert_eq!(
        runtime.wait_round(7),
        Err(FleetError::UnknownTicket(7)),
        "ticket 7 was never issued"
    );
    assert_eq!(
        runtime.poll_round(7),
        Some(Err(FleetError::UnknownTicket(7))),
        "polling an unissued ticket errors instead of pending forever"
    );
    assert_eq!(
        fleet.in_flight(),
        0,
        "validation failed before any challenge"
    );
}

/// Depth 2 genuinely overlaps: epoch B, submitted behind an epoch A
/// that is stuck waiting out a silent device's deadline, settles well
/// before A's budget expires — then A expires on schedule.
#[test]
fn pipelined_epochs_overlap_in_flight() {
    let ids: Vec<DeviceId> = (1..=8).map(DeviceId).collect();
    let cohort_a: Vec<DeviceId> = ids[..4].to_vec();
    let cohort_b: Vec<DeviceId> = ids[4..].to_vec();
    let silent = cohort_a[3];

    let fleet = fleet_of(&ids, 4);
    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), 2, 2);
    let (gw_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(gw_end).unwrap();
    let host = spawn_host(prover_end, ids.clone(), vec![silent]);

    let started = Instant::now();
    let ticket_a = runtime.submit_round(&cohort_a, BUDGET).unwrap();
    let ticket_b = runtime.submit_round(&cohort_b, BUDGET).unwrap();
    assert_eq!(runtime.in_flight_epochs(), 2);

    let report_b = runtime.wait_round(ticket_b).unwrap();
    let overlap = started.elapsed();
    assert_eq!(report_b.verified(), cohort_b.len(), "{report_b}");
    assert!(
        overlap < BUDGET,
        "epoch B settled in {overlap:?} — behind A's deadline, not pipelined"
    );

    let report_a = runtime.wait_round(ticket_a).unwrap();
    assert!(
        started.elapsed() >= BUDGET,
        "the silent device only expires at A's deadline"
    );
    assert_eq!(report_a.verified(), 3);
    assert!(
        matches!(report_a.of(silent), Some(Err(FleetError::NoResponse(_)))),
        "{report_a:?}"
    );
    drop(runtime);
    host.join().unwrap();
}

/// One run of the determinism matrix: a seeded directory over 24
/// devices, epochs driven through a runtime at the given reactor count
/// and pipeline depth, with churn injected at fixed points in the
/// submission schedule — the evictee leaves mid-flight of the first
/// epoch that challenges it.
fn churned_epochs(
    reactors: usize,
    depth: usize,
    epochs: usize,
    evictee: DeviceId,
    dropped: DeviceId,
) -> Vec<(EpochPlan, RoundReport)> {
    const FLEET: u64 = 24;
    let dir = FleetDirectory::new(
        LifecycleConfig::new()
            .shards(4)
            .cohort(6)
            .seed(0x6A7E_0010)
            .pipeline_window(4),
    );
    let spec = shared_spec();
    let all: Vec<DeviceId> = (1..=FLEET).map(DeviceId).collect();
    for &id in &all {
        dir.join_shared(id, &key_for(id), Arc::clone(&spec))
            .unwrap();
    }
    let fleet = dir.fleet_arc();

    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), reactors, depth);
    let (gw_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(gw_end).unwrap();
    let host = spawn_host(prover_end, all, vec![evictee, dropped]);

    let window = depth.min(4);
    let mut in_flight: VecDeque<(EpochPlan, u64)> = VecDeque::new();
    let mut out = Vec::with_capacity(epochs);
    let mut submitted = 0usize;
    let mut evicted = false;
    while out.len() < epochs {
        while in_flight.len() < window && submitted < epochs {
            let plan = dir.begin_epoch();
            let ticket = runtime.submit_round(&plan.cohort, BUDGET).unwrap();
            let hits_evictee = plan.cohort.contains(&evictee);
            in_flight.push_back((plan, ticket));
            submitted += 1;
            // Churn lands at the same point in the *submission*
            // schedule in every run: once the evictee's challenge is
            // out, it leaves — mid-flight, possibly with several other
            // epochs in the window.
            if !evicted && hits_evictee {
                wait_session_pending(&fleet, evictee);
                assert!(dir.leave(evictee));
                evicted = true;
            }
        }
        let (plan, ticket) = in_flight.pop_front().expect("window is at least one");
        let report = runtime.wait_round(ticket).unwrap();
        out.push((plan, report));
    }
    assert!(evicted, "the rotation never drew the evictee");
    drop(runtime);
    host.join().unwrap();
    out
}

/// The tentpole determinism pin: the same seeded churn schedule yields
/// **byte-identical per-epoch reports** at pipeline depth 1, 2 and 4
/// across 1, 2 and 4 reactors — nine runs, one answer. The evicted
/// device is charged `Evicted` in exactly one epoch, the dropped
/// device expires as `NoResponse` wherever it is drawn, and everyone
/// else verifies.
#[test]
fn pipelined_epoch_reports_are_identical_across_depths_and_reactors() {
    const EPOCHS: usize = 6;
    let evictee = DeviceId(5);
    let dropped = DeviceId(11);

    let reference = churned_epochs(1, 1, EPOCHS, evictee, dropped);
    assert_eq!(reference.len(), EPOCHS);

    let evicted_in: Vec<u64> = reference
        .iter()
        .filter(|(_, r)| matches!(r.of(evictee), Some(Err(FleetError::Evicted(_)))))
        .map(|(p, _)| p.epoch)
        .collect();
    assert_eq!(
        evicted_in.len(),
        1,
        "the eviction is charged to exactly one epoch: {evicted_in:?}"
    );
    for (plan, report) in &reference {
        for &id in &plan.cohort {
            match report.of(id) {
                Some(Ok(_)) => assert!(id != evictee && id != dropped),
                Some(Err(FleetError::Evicted(_))) => assert_eq!(id, evictee),
                Some(Err(FleetError::NoResponse(_))) => assert_eq!(id, dropped),
                other => panic!("epoch {}: {id} settled as {other:?}", plan.epoch),
            }
        }
    }

    for reactors in [1usize, 2, 4] {
        for depth in [1usize, 2, 4] {
            if (reactors, depth) == (1, 1) {
                continue; // the reference itself
            }
            let run = churned_epochs(reactors, depth, EPOCHS, evictee, dropped);
            assert_eq!(
                run, reference,
                "reports diverged at {reactors} reactors, depth {depth}"
            );
        }
    }
}

/// An eviction landing while two epochs are in flight resolves in the
/// single epoch that was awaiting the device — the other epoch's
/// report carries no trace of it.
#[test]
fn eviction_with_two_epochs_in_flight_charges_exactly_one() {
    let ids: Vec<DeviceId> = (1..=8).map(DeviceId).collect();
    let cohort_a: Vec<DeviceId> = ids[..4].to_vec();
    let cohort_b: Vec<DeviceId> = ids[4..].to_vec();
    let victim = cohort_a[3];

    let fleet = fleet_of(&ids, 4);
    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), 2, 2);
    let (gw_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(gw_end).unwrap();
    let host = spawn_host(prover_end, ids.clone(), vec![victim]);

    let ticket_a = runtime.submit_round(&cohort_a, BUDGET).unwrap();
    wait_session_pending(&fleet, victim);
    let ticket_b = runtime.submit_round(&cohort_b, BUDGET).unwrap();
    assert_eq!(runtime.in_flight_epochs(), 2);
    fleet.remove(victim);

    let report_a = runtime.wait_round(ticket_a).unwrap();
    assert_eq!(report_a.outcomes.len(), cohort_a.len());
    assert_eq!(report_a.of(victim), Some(&Err(FleetError::Evicted(victim))));
    assert_eq!(report_a.verified(), 3);

    let report_b = runtime.wait_round(ticket_b).unwrap();
    assert_eq!(report_b.outcomes.len(), cohort_b.len());
    assert!(
        report_b.outcome_for(victim).is_none(),
        "the eviction must not leak into the overlapping epoch: {report_b:?}"
    );
    assert_eq!(report_b.verified(), cohort_b.len());

    drop(runtime);
    host.join().unwrap();
}

/// Online shard growth under live rounds: the registry doubles its
/// shard count mid-flight — splits proceeding while reactors issue and
/// conclude — and every verdict matches a control fleet that never
/// grew. No pause, no reconstruction, no verdict changes.
#[test]
fn shard_growth_mid_round_changes_no_verdicts() {
    let ids: Vec<DeviceId> = (1..=32).map(DeviceId).collect();

    let run = |grow: bool| -> Vec<RoundReport> {
        // 4 shards at 2 reactors: the pre-growth count is a multiple
        // of the reactor count, so affinity stays stable across splits
        // (see `FleetVerifier::grow_shards`) and growth is safe even
        // mid-round.
        let fleet = fleet_of(&ids, 4);
        let mut runtime: FleetRuntime<NoListener<UnixStream>> =
            FleetRuntime::detached(Arc::clone(&fleet), 2, 1);
        let (gw_end, prover_end) = UnixStream::pair().unwrap();
        runtime.adopt(gw_end).unwrap();
        let host = spawn_host(prover_end, ids.clone(), Vec::new());

        let mut reports = Vec::new();
        let ticket = runtime.submit_round(&ids, BUDGET).unwrap();
        if grow {
            // Split every shard while the round is in flight.
            assert_eq!(fleet.grow_shards(), 8);
        }
        reports.push(runtime.wait_round(ticket).unwrap());
        if grow {
            assert_eq!(fleet.grow_shards(), 16);
        }
        reports.push(runtime.run_round(&ids, BUDGET).unwrap());

        assert_eq!(runtime.in_flight_epochs(), 0);
        assert_eq!(fleet.shard_count(), if grow { 16 } else { 4 });
        assert_eq!(fleet.in_flight(), 0, "sessions leaked");
        drop(runtime);
        host.join().unwrap();
        reports
    };

    let grown = run(true);
    let control = run(false);
    assert_eq!(grown, control, "growth must be invisible to round verdicts");
    assert!(grown.iter().all(|r| r.verified() == ids.len()));
}

/// The TCP face of the runtime: bind an ephemeral listener, let the
/// driver's wait loops accept the dialing prover host, and drive
/// multiple rounds over the one accepted connection.
#[test]
fn runtime_accepts_tcp_connections_while_driving_rounds() {
    let ids: Vec<DeviceId> = (1..=6).map(DeviceId).collect();
    let fleet = fleet_of(&ids, 4);
    let mut runtime = FleetRuntime::bind_tcp("127.0.0.1:0", Arc::clone(&fleet), 2, 1).unwrap();
    let addr = runtime.listener().unwrap().local_addr().unwrap();

    let hosted = ids.clone();
    let host = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        host_gateway_provers(stream, &hosted, key_for, &[], || ());
    });

    for round in 1..=3 {
        let report = runtime.run_round(&ids, BUDGET).unwrap();
        assert_eq!(report.verified(), ids.len(), "round {round}: {report}");
    }
    assert_eq!(runtime.accepted_connections(), 1);
    drop(runtime);
    host.join().unwrap();
}

/// The directory's pipelined driver: `run_epochs_runtime` keeps
/// `min(depth, pipeline_window)` epochs in flight, cohorts in the
/// window never overlap, and every epoch verifies in full.
#[test]
fn directory_drives_pipelined_epochs_through_the_runtime() {
    const FLEET: u64 = 12;
    let dir = FleetDirectory::new(
        LifecycleConfig::new()
            .shards(4)
            .cohort(4)
            .seed(9)
            .pipeline_window(2),
    );
    let spec = shared_spec();
    let all: Vec<DeviceId> = (1..=FLEET).map(DeviceId).collect();
    for &id in &all {
        dir.join_shared(id, &key_for(id), Arc::clone(&spec))
            .unwrap();
    }
    let fleet = dir.fleet_arc();

    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), 2, 2);
    let (gw_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(gw_end).unwrap();
    let (ready_tx, ready_rx) = mpsc::channel();
    let hosted = all.clone();
    let host = std::thread::spawn(move || {
        host_gateway_provers(prover_end, &hosted, key_for, &[], move || {
            ready_tx.send(()).unwrap()
        });
    });
    ready_rx.recv().unwrap();

    let epochs = dir.run_epochs_runtime(&mut runtime, 6, BUDGET).unwrap();
    assert_eq!(epochs.len(), 6);
    for window in epochs.windows(2) {
        let (ref a, _) = window[0];
        let (ref b, _) = window[1];
        assert!(
            a.cohort.iter().all(|id| !b.cohort.contains(id)),
            "in-flight cohorts must be disjoint: {a:?} vs {b:?}"
        );
    }
    for (plan, report) in &epochs {
        assert_eq!(
            report.verified(),
            plan.cohort.len(),
            "epoch {}: {report}",
            plan.epoch
        );
    }
    drop(runtime);
    host.join().unwrap();
}

/// A detached single-reactor runtime over `ids`, for the plain socket
/// rounds below.
fn single_reactor_runtime(ids: &[DeviceId]) -> FleetRuntime<NoListener<UnixStream>> {
    FleetRuntime::detached(fleet_of(ids, 4), 1, 1)
}

#[test]
fn socketpair_round_verifies_every_device() {
    let ids: Vec<DeviceId> = (1..=4).map(DeviceId).collect();
    let mut runtime = single_reactor_runtime(&ids);
    let (rt_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(rt_end).unwrap();
    let host = spawn_host(prover_end, ids.clone(), Vec::new());

    let report = runtime.run_round(&ids, Duration::from_secs(5)).unwrap();
    assert_eq!(report.verified(), ids.len(), "{:#?}", report.outcomes);
    assert_eq!(runtime.fleet().in_flight(), 0, "rounds never leak sessions");

    drop(runtime); // hang up: the prover host sees EOF and returns
    host.join().unwrap();
}

#[test]
fn silent_prover_times_out_as_no_response_only() {
    let ids: Vec<DeviceId> = (1..=3).map(DeviceId).collect();
    let silent = DeviceId(2);
    let mut runtime = single_reactor_runtime(&ids);
    let (rt_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(rt_end).unwrap();
    let host = spawn_host(prover_end, ids.clone(), vec![silent]);

    // The budget bounds the wall-clock cost of the silent device; the
    // answering devices settle as soon as their frames arrive.
    let report = runtime.run_round(&ids, Duration::from_millis(400)).unwrap();
    assert_eq!(
        report.of(silent),
        Some(&Err(FleetError::NoResponse(silent))),
        "the elapsed budget surfaced as ticks that expired the deadline"
    );
    assert_eq!(report.verified(), 2, "silence never stalls the others");
    assert_eq!(runtime.fleet().in_flight(), 0);

    drop(runtime);
    host.join().unwrap();
}

#[test]
fn peer_hangup_settles_the_round_by_deadline() {
    let ids: Vec<DeviceId> = (1..=2).map(DeviceId).collect();
    let mut runtime = single_reactor_runtime(&ids);
    let (rt_end, prover_end) = UnixStream::pair().unwrap();
    runtime.adopt(rt_end).unwrap();
    drop(prover_end); // nobody home

    let report = runtime.run_round(&ids, Duration::from_millis(200)).unwrap();
    let stats = runtime.reactor_stats();
    assert_eq!(stats[0].dropped_connections, 1, "EOF reaps the connection");
    assert_eq!(runtime.connections(), 0);
    assert_eq!(report.verified(), 0);
    for &id in &ids {
        assert_eq!(report.of(id), Some(&Err(FleetError::NoResponse(id))));
    }
    assert_eq!(runtime.fleet().in_flight(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Adversarial segmentation: any sequence of frames, delivered in
    /// chunks split at arbitrary byte boundaries (1-byte reads
    /// included), deframes to the identical frame sequence — each
    /// frame surfacing exactly once, in order, with nothing left over.
    #[test]
    fn any_segmentation_deframes_to_the_same_frames(
        payload_lens in proptest::collection::vec(0usize..300, 1..6),
        split_seed in any::<u64>(),
    ) {
        let frames: Vec<Vec<u8>> = payload_lens
            .iter()
            .enumerate()
            .map(|(i, &len)| Envelope::wrap(i as u64, vec![i as u8; len]).to_bytes())
            .collect();
        let stream: Vec<u8> = frames.iter().flat_map(|f| frame_stream(f)).collect();

        // Seed-drawn cuts, biased hard toward tiny reads so length
        // prefixes and frame boundaries get split mid-field often.
        let mut rng = DetRng::new(split_seed);
        let mut deframer = StreamDeframer::new();
        let mut got = Vec::new();
        let mut offset = 0;
        while offset < stream.len() {
            let n = 1 + rng.below(7.min(stream.len() - offset));
            deframer.extend(&stream[offset..offset + n]);
            offset += n;
            while let Some(frame) = deframer.next_frame().unwrap() {
                got.push(frame);
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(deframer.pending(), 0, "no bytes left behind");
    }
}

#[test]
fn tcp_round_verifies_over_a_real_listener() {
    let ids: Vec<DeviceId> = (1..=3).map(DeviceId).collect();
    let mut runtime = FleetRuntime::bind_tcp("127.0.0.1:0", fleet_of(&ids, 4), 1, 1).unwrap();
    let addr = runtime.listener().unwrap().local_addr().unwrap();
    let hosted = ids.clone();
    let host = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        host_gateway_provers(stream, &hosted, key_for, &[], || ());
    });

    let report = runtime.run_round(&ids, Duration::from_secs(5)).unwrap();
    assert_eq!(report.verified(), ids.len(), "{:#?}", report.outcomes);
    assert_eq!(runtime.fleet().in_flight(), 0);

    drop(runtime);
    host.join().unwrap();
}
