//! Fleet verification over a real socket.
//!
//! The verifier and the provers share nothing but a byte stream: a
//! prover-host thread builds three simulated MCUs, announces them with
//! hello frames and serves length-prefixed `Envelope` frames over its
//! end of a socketpair; the verifier drives the sans-IO `RoundEngine`
//! through a single-reactor `FleetRuntime` that adopted the other end.
//! One device is scripted to stay silent, so the round also shows a
//! deadline resolving to `NoResponse` without ever stalling the
//! devices that did answer.
//!
//! Run with: `cargo run --example fleet_socket`

use apex_pox::wire::Envelope;
use asap::{programs, Device, PoxMode, VerifierSpec};
use asap_fleet::{
    announce_devices, serve_frames, DeviceId, FleetRuntime, FleetVerifier, NoListener,
};
use std::collections::HashMap;
use std::error::Error;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

fn key_for(id: DeviceId) -> Vec<u8> {
    format!("example-key-{id}").into_bytes()
}

fn main() -> Result<(), Box<dyn Error>> {
    let ids: Vec<DeviceId> = (1..=3).map(DeviceId).collect();
    let silent = DeviceId(3);

    // Verifier side: enroll every device by its key and image-derived
    // spec. Note there is no Device anywhere on this side — only keys,
    // specs and bytes.
    let image = programs::fig4_authorized()?;
    let fleet = Arc::new(FleetVerifier::new());
    for &id in &ids {
        fleet.register(
            id,
            &key_for(id),
            VerifierSpec::from_image(&image)?.mode(PoxMode::Asap),
        )?;
    }

    // The runtime adopts the verifier end of a socketpair: one reactor
    // thread, one round in flight at a time.
    let mut runtime: FleetRuntime<NoListener<UnixStream>> =
        FleetRuntime::detached(Arc::clone(&fleet), 1, 1);
    let (verifier_end, mut prover_stream) = UnixStream::pair()?;
    runtime.adopt(verifier_end)?;

    // Prover host: its own thread, its own devices, nothing shared but
    // the socket. Device 3 is "partitioned" and never answers.
    let host_ids = ids.clone();
    let host = std::thread::spawn(move || {
        let image = programs::fig4_authorized().expect("image links");
        let mut devices: HashMap<DeviceId, Device> = host_ids
            .iter()
            .map(|&id| {
                let mut device = Device::builder(&image)
                    .key(&key_for(id))
                    .build()
                    .expect("device builds");
                device.run_steps(6);
                device.set_button(0, true); // async event mid-ER: ASAP shrugs
                assert!(device.run_until_pc(programs::done_pc(), 10_000));
                (id, device)
            })
            .collect();
        // Hellos tell the runtime which connection carries which device.
        announce_devices(&mut prover_stream, &host_ids).expect("announce");
        serve_frames(prover_stream, move |id, envelope| {
            if id == silent {
                return None; // models a crashed/partitioned prover
            }
            let response = devices.get_mut(&id)?.attest_bytes(&envelope.payload).ok()?;
            Some(Envelope::wrap(id.0, response).to_bytes())
        });
    });

    // One round: challenges out, responses (or silence) back, elapsed
    // wall-clock milliseconds becoming ticks of logical time.
    println!("challenging {} devices over the socket…", ids.len());
    let report = runtime.run_round(&ids, Duration::from_millis(500))?;

    for &id in &ids {
        match report.outcome_for(id).map(|o| &o.result) {
            Some(Ok(attested)) => println!(
                "  device {id}: VERIFIED, {} bytes of authenticated output",
                attested.output.len()
            ),
            Some(Err(e)) => println!("  device {id}: {e}"),
            None => println!("  device {id}: (no outcome)"),
        }
    }
    assert_eq!(report.verified(), 2);
    assert_eq!(fleet.in_flight(), 0);
    println!(
        "round settled: {} verified, {} timed out, 0 sessions leaked",
        report.verified(),
        report.no_response()
    );

    drop(runtime); // hang up; the prover host sees EOF and exits
    host.join().expect("prover host exits cleanly");
    Ok(())
}
