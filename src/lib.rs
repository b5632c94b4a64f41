//! # asap-repro — umbrella crate for the ASAP (DAC 2022) reproduction
//!
//! Re-exports every workspace crate under one roof so the examples and
//! integration tests can reach the whole stack, and so `cargo doc`
//! produces a single navigable tree:
//!
//! * [`openmsp430`] — the MCU instruction-set/signal simulator;
//! * [`periph`] — timer, GPIO, UART, DMA;
//! * [`pox_crypto`] — SHA-256 / HMAC-SHA256;
//! * [`msp430_tools`] — assembler, linker (Fig. 4 section discipline),
//!   disassembler;
//! * [`ltl_mc`] — LTL trace checking and explicit-state model checking;
//! * [`vrased`] — the hybrid remote-attestation substrate;
//! * [`apex_pox`] — proofs of execution (the `EXEC` monitor and the
//!   PoX wire protocol);
//! * [`asap`] — the paper's contribution: interrupt-tolerant PoX,
//!   exposed through `Device::builder`, `VerifierSpec::from_image` and
//!   the `PoxSession` state machine;
//! * [`asap_fleet`] — fleet-scale verification: the `DeviceId`-keyed
//!   `FleetVerifier` with its sharded session registry, the sans-IO
//!   `RoundEngine` (events in, frames and deadlines out, on injected
//!   logical time), the lock-step `Loopback` reference driver, and
//!   `FleetRuntime`, the one socket driver serving framed TCP/UDS
//!   prover connections on persistent reactor threads;
//! * [`rtl_synth`] — LUT/FF cost model (Fig. 6);
//! * [`sim_wave`] — waveforms (Fig. 5).
//!
//! See `README.md` for the quickstart and the workspace map.

pub use apex_pox;
pub use asap;
pub use asap_corpus;
pub use asap_fleet;
pub use ltl_mc;
pub use msp430_tools;
pub use openmsp430;
pub use periph;
pub use pox_crypto;
pub use rtl_synth;
pub use sim_wave;
pub use vrased;
