//! Device step-pipeline throughput: legacy vs predecoded, plus
//! attestation round rate, recorded into `BENCH_device.json`.
//!
//! The workload is the honestly-executed Fig. 4 ASAP device parked in
//! its `done` spin loop — the steady state a deployed prover sits in
//! between PoX rounds. Two arms step the *same* machine state through
//! the *same* monitor semantics:
//!
//! * **legacy** — the pre-refactor pipeline, reproduced faithfully:
//!   predecode cache off (every step re-decodes through closure-based
//!   bus reads), a fresh `Signals` allocation per step, the monitors
//!   clocked through a `dyn HwModule` walk with the key guard going
//!   through the proposition-set conversion (`PropCtx::props_of`), and
//!   the per-step report cloning the signal bundle — exactly what
//!   `Device::step()` used to do.
//! * **predecoded** — the per-step pipeline: `Device::step_into` into
//!   one reused `Signals` buffer, generation-checked predecoded
//!   instructions, sorted MMIO lookup and the statically composed
//!   monitor stack.
//! * **superblock** — the burst pipeline: `Device::run_steps` over the
//!   superblock trace cache, with monitor-aware dead-signal elision on
//!   interior steps (only the wires the composed stack declares via
//!   `ObservesWires` are computed).
//!
//! Both arms step identically prepared machines through the same monitor
//! kernels (whose per-step cost does not depend on register state), so
//! the ablation compares pipeline cost, not behaviour.
//!
//! The **mac** arm times the SW-Att MAC alone: HMACs per second over
//! the Fig. 4 ASAP transcript (`EXEC ‖ ER ‖ OR ‖ IVT` with the verifier's
//! midstate key), fresh challenge each time. `mac_path` records which
//! SHA-256 compression run-time detection picked (`"sha_ni"` or
//! `"scalar"`), since the two differ by several times.
//!
//! Environment knobs:
//!
//! * `DEVICE_SMOKE=1` — small step/round counts for CI bit-rot checks;
//! * `DEVICE_STEPS=n` / `DEVICE_ROUNDS=n` / `DEVICE_MACS=n` — explicit
//!   workload sizes;
//! * `DEVICE_TRIALS=n` — trials per arm (best-of wins; default 3, 1 in
//!   smoke mode), stripping scheduler noise from the recorded numbers.

use apex_pox::protocol::PoxMeasurement;
use asap::device::{Device, PoxMode};
use asap::{programs, AsapVerifier, VerifierSpec};
use openmsp430::hwmod::{HwAction, HwModule};
use openmsp430::signals::Signals;
use pox_crypto::hmac::HmacKey;
use pox_crypto::sha256::Backend;
use std::hint::black_box;
use std::time::Instant;
use vrased::hw::{KeyGuard, KeyGuardIn, SwAttAtomicity};
use vrased::props::{names, PropCtx};
use vrased::protocol::Challenge;

const KEY: &[u8] = b"bench-key";

/// The pre-refactor key-access monitor step: the same [`KeyGuard`]
/// kernel, but fed through the allocating proposition-set conversion the
/// old `HwModule` implementation used. Kept here so the legacy arm pays
/// the historical per-step cost the refactor removed.
struct PropsKeyGuard {
    ctx: PropCtx,
    violated: bool,
}

impl HwModule for PropsKeyGuard {
    fn name(&self) -> &'static str {
        "legacy.key_guard"
    }

    fn reset(&mut self) {
        self.violated = false;
    }

    fn step(&mut self, signals: &Signals) -> HwAction {
        let props = self.ctx.props_of(signals);
        let i = KeyGuardIn {
            ren_key: props.contains(names::REN_KEY),
            dma_key: props.contains(names::DMA_KEY),
            pc_in_swatt: props.contains(names::PC_IN_SWATT),
        };
        let was = self.violated;
        self.violated = KeyGuard::kernel(self.violated, i);
        let mut action = HwAction {
            reset_mcu: self.violated,
            ..HwAction::none()
        };
        if self.violated && !was {
            action
                .violations
                .push("key region accessed outside SW-Att".into());
        }
        action
    }
}

/// Builds the Fig. 4 ASAP device and runs it honestly to its done loop.
fn steady_device() -> Device {
    let image = programs::fig4_authorized().expect("image links");
    let mut device = Device::builder(&image)
        .mode(PoxMode::Asap)
        .key(KEY)
        .build()
        .expect("device builds");
    device.run_steps(6);
    device.set_button(0, true);
    assert!(device.run_until_pc(programs::done_pc(), 10_000));
    assert!(device.exec(), "the workload is an honestly-executed device");
    device
}

/// Steps the legacy pipeline: closure decode, fresh per-step `Signals`,
/// `dyn HwModule` walk, cloned report. Returns steps/sec.
fn measure_legacy(steps: u64) -> f64 {
    let mut device = steady_device();
    let ctx = *device.ctx();
    device.mcu.set_predecode(false);
    let mut monitors: Vec<Box<dyn HwModule>> = vec![
        Box::new(PropsKeyGuard {
            ctx,
            violated: false,
        }),
        Box::new(SwAttAtomicity::new(ctx)),
        Box::new(asap::monitor::AsapMonitor::new(ctx)),
    ];
    // The guard FSMs in `monitors` start fresh, exactly as a power-on
    // legacy device would; re-arm EXEC by re-entering ER honestly.
    let t0 = Instant::now();
    let mut exec = false;
    for _ in 0..steps {
        let signals = device.mcu.step();
        let mut action = HwAction::none();
        for m in &mut monitors {
            action.merge(m.step(&signals));
        }
        exec = action.exec.unwrap_or(false);
        device
            .mcu
            .set_hw_cell(ctx.layout.exec_flag_addr, exec as u16);
        // The legacy step report cloned the full signal bundle.
        black_box(signals.clone());
    }
    let secs = t0.elapsed().as_secs_f64();
    assert!(!exec, "fresh monitors have not observed an ERmin entry");
    steps as f64 / secs.max(f64::EPSILON)
}

/// Steps the predecoded pipeline (`Device::step_into`, reused buffer,
/// static monitor stack). Returns steps/sec.
fn measure_predecoded(steps: u64) -> f64 {
    let mut device = steady_device();
    let mut signals = Signals::default();
    let t0 = Instant::now();
    let mut verdict = device.step_into(&mut signals);
    for _ in 1..steps {
        verdict = device.step_into(&mut signals);
    }
    let secs = t0.elapsed().as_secs_f64();
    assert!(verdict.exec, "honest stepping preserves EXEC");
    black_box(&signals);
    steps as f64 / secs.max(f64::EPSILON)
}

/// Bursts the superblock pipeline (`Device::run_steps`: cached
/// straight-line traces, elided interior wires). Returns steps/sec.
fn measure_superblock(steps: u64) -> f64 {
    let mut device = steady_device();
    let t0 = Instant::now();
    device.run_steps(steps);
    let secs = t0.elapsed().as_secs_f64();
    assert!(device.exec(), "honest bursting preserves EXEC");
    black_box(device.mcu.cache_stats());
    steps as f64 / secs.max(f64::EPSILON)
}

/// Full PoX rounds (challenge → SW-Att → verify) per second over the
/// wire-encoded path, the same shape fleet rounds drive per device.
fn measure_attestations(rounds: u64) -> f64 {
    let image = programs::fig4_authorized().expect("image links");
    let mut device = steady_device();
    let mut verifier = AsapVerifier::new(
        KEY,
        VerifierSpec::from_image(&image)
            .expect("spec derives")
            .mode(PoxMode::Asap),
    );
    let t0 = Instant::now();
    for _ in 0..rounds {
        let session = verifier.begin();
        let response = device
            .attest_bytes(&session.request_bytes())
            .expect("attestation runs");
        let outcome = session
            .evidence_bytes(&response)
            .expect("well-formed evidence")
            .conclude(&verifier);
        assert!(outcome.is_verified());
    }
    let secs = t0.elapsed().as_secs_f64();
    rounds as f64 / secs.max(f64::EPSILON)
}

/// SW-Att MACs per second over the Fig. 4 ASAP transcript: the bytes
/// the verifier measures for the steady device, under a midstate key,
/// one fresh challenge per MAC.
fn measure_macs(macs: u64) -> f64 {
    let image = programs::fig4_authorized().expect("image links");
    let spec = VerifierSpec::from_image(&image).expect("spec derives");
    let device = steady_device();
    let key = HmacKey::new(KEY);
    let mem = &device.mcu.mem;
    let transcript = PoxMeasurement {
        exec: true,
        er: spec.er,
        er_bytes: &spec.expected_er,
        or: spec.or,
        or_bytes: mem.slice(spec.or),
        ivt: Some((spec.ivt_region, mem.slice(spec.ivt_region))),
    };
    let chals: Vec<Challenge> = (1..=64).map(Challenge::from_counter).collect();
    let t0 = Instant::now();
    let mut acc = 0u8;
    for i in 0..macs {
        let chal = &chals[i as usize % chals.len()];
        acc ^= black_box(&transcript).attest(&key, chal.as_bytes())[0];
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(acc);
    macs as f64 / secs.max(f64::EPSILON)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .map(|v| v.parse().unwrap_or_else(|_| panic!("{name}: u64")))
        .unwrap_or(default)
}

/// One arm's measurements: every trial, the best (which wins — the
/// standard way to strip scheduler noise on a shared host), and the
/// relative spread `(best - worst) / best` as a noise indicator.
struct Arm {
    best: f64,
    trials: Vec<f64>,
    spread: f64,
}

fn run_trials(trials: u64, measure: impl Fn() -> f64) -> Arm {
    let trials: Vec<f64> = (0..trials).map(|_| measure()).collect();
    let best = trials.iter().fold(f64::MIN, |a, &b| a.max(b));
    let worst = trials.iter().fold(f64::MAX, |a, &b| a.min(b));
    Arm {
        best,
        spread: if best > 0.0 {
            (best - worst) / best
        } else {
            0.0
        },
        trials,
    }
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let smoke = std::env::var("DEVICE_SMOKE").is_ok();
    let steps = env_u64("DEVICE_STEPS", if smoke { 50_000 } else { 2_000_000 });
    let rounds = env_u64("DEVICE_ROUNDS", if smoke { 200 } else { 2_000 });
    let macs = env_u64("DEVICE_MACS", if smoke { 20_000 } else { 400_000 });
    let trials = env_u64("DEVICE_TRIALS", if smoke { 1 } else { 3 });

    let legacy = run_trials(trials, || measure_legacy(steps));
    let predecoded = run_trials(trials, || measure_predecoded(steps));
    let superblock = run_trials(trials, || measure_superblock(steps));
    let attestations = run_trials(trials, || measure_attestations(rounds));
    let mac = run_trials(trials, || measure_macs(macs));
    let mac_path = Backend::detected().name();
    let speedup = predecoded.best / legacy.best.max(f64::EPSILON);
    let superblock_speedup = superblock.best / predecoded.best.max(f64::EPSILON);

    println!("{:<12} {:>16} {:>8}", "pipeline", "steps/sec", "spread");
    println!(
        "{:<12} {:>16.0} {:>7.1}%",
        "legacy",
        legacy.best,
        legacy.spread * 100.0
    );
    println!(
        "{:<12} {:>16.0} {:>7.1}%",
        "predecoded",
        predecoded.best,
        predecoded.spread * 100.0
    );
    println!(
        "{:<12} {:>16.0} {:>7.1}%",
        "superblock",
        superblock.best,
        superblock.spread * 100.0
    );
    println!("speedup: {speedup:.2}x predecoded/legacy over {steps} steps");
    println!("superblock_speedup: {superblock_speedup:.2}x superblock/predecoded");
    println!(
        "attestations/sec: {:.0} over {rounds} rounds",
        attestations.best
    );
    println!(
        "macs/sec: {:.0} over {macs} fig4 ASAP transcripts on {mac_path} ({:.1}% spread)",
        mac.best,
        mac.spread * 100.0
    );

    let json = format!(
        "{{\n  \"bench\": \"device_throughput\",\n  \"workload\": {{\"image\": \
         \"fig4_authorized\", \"mode\": \"asap\", \"steps\": {steps}, \"rounds\": {rounds}, \
         \"macs\": {macs}, \"trials\": {trials}}},\n  \
         \"steps_per_sec\": {{\"legacy\": {legacy_best:.0}, \"predecoded\": {predecoded_best:.0}, \
         \"superblock\": {superblock_best:.0}, \"speedup\": {speedup:.3}, \
         \"superblock_speedup\": {superblock_speedup:.3}}},\n  \
         \"trial_steps_per_sec\": {{\"legacy\": {legacy_trials}, \"predecoded\": \
         {predecoded_trials}, \"superblock\": {superblock_trials}}},\n  \
         \"spread\": {{\"legacy\": {legacy_spread:.4}, \"predecoded\": {predecoded_spread:.4}, \
         \"superblock\": {superblock_spread:.4}}},\n  \
         \"attestations_per_sec\": {attestations_best:.1},\n  \
         \"trial_attestations_per_sec\": {attestations_trials},\n  \
         \"attestations_spread\": {attestations_spread:.4},\n  \
         \"mac_path\": \"{mac_path}\",\n  \
         \"macs_per_sec\": {mac_best:.1},\n  \
         \"trial_macs_per_sec\": {mac_trials},\n  \
         \"macs_spread\": {mac_spread:.4}\n}}\n",
        legacy_best = legacy.best,
        predecoded_best = predecoded.best,
        superblock_best = superblock.best,
        legacy_trials = json_list(&legacy.trials),
        predecoded_trials = json_list(&predecoded.trials),
        superblock_trials = json_list(&superblock.trials),
        legacy_spread = legacy.spread,
        predecoded_spread = predecoded.spread,
        superblock_spread = superblock.spread,
        attestations_best = attestations.best,
        attestations_trials = json_list(&attestations.trials),
        attestations_spread = attestations.spread,
        mac_best = mac.best,
        mac_trials = json_list(&mac.trials),
        mac_spread = mac.spread,
    );
    std::fs::write("BENCH_device.json", &json).expect("write BENCH_device.json");
    println!("\nwrote BENCH_device.json");
}
