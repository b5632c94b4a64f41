//! The in-process transport: request frames reach simulated provers
//! and response frames come back, with no socket in between.
//!
//! [`Loopback`] is a **non-blocking frame pump**: [`send`] puts one
//! enveloped frame on the wire, [`try_recv`] returns a received frame
//! if one is available *right now*. Nothing here blocks on a device —
//! waiting, deadlines and verdicts all live in the sans-IO
//! [`RoundEngine`](crate::RoundEngine). It wires frames straight into
//! simulated [`Device`]s: the deterministic reference vehicle for
//! tests, scenarios and benchmarks, driven lock-step by
//! [`FleetVerifier::run_round`](crate::FleetVerifier::run_round).
//! Provers in other processes or hosts speak to a
//! [`FleetRuntime`](crate::FleetRuntime) over sockets instead.
//!
//! [`send`]: Loopback::send
//! [`try_recv`]: Loopback::try_recv

use crate::DeviceId;
use apex_pox::wire::Envelope;
use asap::Device;
use std::collections::{HashMap, VecDeque};

/// An in-memory transport backed by real simulated devices.
///
/// [`send`](Loopback::send) unwraps the frame, dispatches it to the
/// owned [`Device`]'s [`attest_bytes`](Device::attest_bytes), and
/// queues the re-enveloped response for [`try_recv`](Loopback::try_recv)
/// — exactly the work a network stack plus the prover's UART shim
/// would do, minus the latency.
#[derive(Default)]
pub struct Loopback {
    devices: HashMap<DeviceId, Device>,
    inbox: VecDeque<Vec<u8>>,
}

impl Loopback {
    /// An empty loopback fabric.
    pub fn new() -> Loopback {
        Loopback::default()
    }

    /// Attaches a device under `id`, replacing any previous occupant.
    pub fn attach(&mut self, id: DeviceId, device: Device) {
        self.devices.insert(id, device);
    }

    /// The attached device, for scenario setup (running it to its done
    /// loop, pressing buttons, tampering with memory).
    pub fn device_mut(&mut self, id: DeviceId) -> Option<&mut Device> {
        self.devices.get_mut(&id)
    }

    /// Number of attached devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when no devices are attached.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// One synchronous exchange, bypassing the receive queue: the
    /// device's response to `frame`, if it answers. A convenience for
    /// tests and scenario priming that need a specific device's frame
    /// in hand; round driving goes through [`send`](Loopback::send) and
    /// [`try_recv`](Loopback::try_recv).
    pub fn exchange(&mut self, device: DeviceId, frame: &[u8]) -> Option<Vec<u8>> {
        let envelope = Envelope::from_bytes(frame).ok()?;
        // A prover ignores frames addressed to somebody else.
        if envelope.device_id != device.0 {
            return None;
        }
        let prover = self.devices.get_mut(&device)?;
        let response = prover.attest_bytes(&envelope.payload).ok()?;
        Some(Envelope::wrap(device.0, response).to_bytes())
    }

    /// Puts one enveloped request frame on the wire towards `device`.
    /// Delivery is best-effort: loss shows as the response never
    /// appearing in [`try_recv`](Loopback::try_recv), never as a forged
    /// frame — the engine's deadline then charges the device
    /// [`NoResponse`](crate::FleetError::NoResponse).
    pub fn send(&mut self, device: DeviceId, frame: &[u8]) {
        if let Some(response) = self.exchange(device, frame) {
            self.inbox.push_back(response);
        }
    }

    /// The next received enveloped response frame, if one is queued;
    /// `None` means "nothing yet", and the driver should `tick` the
    /// engine.
    pub fn try_recv(&mut self) -> Option<Vec<u8>> {
        self.inbox.pop_front()
    }
}
