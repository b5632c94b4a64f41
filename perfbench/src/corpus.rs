//! `corpus_pox`: the literate corpus plus a seeded generated batch,
//! judged program by program on two worker threads.
//!
//! A closed loop of passes: the main thread starts a pass over the whole
//! program list, the workers share it through an atomic cursor, and the
//! next pass starts only when both have finished. For each program a
//! worker builds the device and verifier, applies the manifest's
//! stimuli, runs to the stop symbol, attests the wire request, concludes
//! the evidence and compares the verdict with the manifest's `expect:`.
//! No fleet layer runs in the timed phase.

use crate::probe::{self, SimStats, Span};
use crate::replay::{self, Member, ReplaySpans};
use crate::{Config, Layers, Outcome, Rounds, SetupTimes, TRACE_SEGMENTS, WORKERS};
use asap::{AsapVerifier, Device, VerifierSpec};
use asap_corpus::{CorpusProgram, StimulusKind, Verdict};
use asap_fleet::{DeviceId, FleetError, FleetVerifier, Loopback, RoundReport};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// One program, loaded and ready to judge.
struct Prepared {
    program: CorpusProgram,
    spec: Arc<VerifierSpec>,
    stop: u16,
}

/// A literate source text and where it came from; generated programs
/// carry the verdict their recipe guarantees.
struct Source {
    origin: String,
    text: String,
    generated_expect: Option<Verdict>,
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect(&path, out)?;
        } else if path.to_string_lossy().ends_with(".s.md") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workload's inputs: every `programs/**/*.s.md`, sorted by path,
/// then `batch` programs generated from `seed`.
fn sources(seed: u64, batch: usize) -> Result<Vec<Source>, String> {
    let dir = asap_corpus::default_programs_dir();
    let mut paths = Vec::new();
    collect(&dir, &mut paths).map_err(|e| format!("{}: {e}", dir.display()))?;
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(Source {
            origin: path.display().to_string(),
            text,
            generated_expect: None,
        });
    }
    out.extend(
        asap_corpus::generate_batch(seed, batch)
            .into_iter()
            .map(|g| Source {
                origin: g.name,
                text: g.text,
                generated_expect: Some(g.expect),
            }),
    );
    Ok(out)
}

fn prepare(source: &Source, link: &mut Span, traced: bool) -> Result<Prepared, String> {
    let program = link
        .time(traced, || {
            asap_corpus::load_str(&source.origin, &source.text)
        })
        .map_err(|e| e.to_string())?;
    if let Some(expect) = source.generated_expect {
        if expect != program.manifest.expect {
            return Err(format!(
                "{}: generator promised {expect}, manifest says {}",
                source.origin, program.manifest.expect
            ));
        }
    }
    let spec = VerifierSpec::from_image(&program.image)
        .map_err(|e| format!("{}: verifier spec: {e}", source.origin))?
        .mode(program.manifest.verifier_mode);
    let stop = program
        .image
        .symbol(&program.manifest.run_until)
        .ok_or_else(|| {
            format!(
                "{}: no `{}` symbol",
                source.origin, program.manifest.run_until
            )
        })?;
    Ok(Prepared {
        program,
        spec: Arc::new(spec),
        stop,
    })
}

/// The timed set-up: load, assemble and link every program and derive
/// its verifier spec, split over the workers.
fn setup(sources: &[Source], link: &mut Span, traced: bool) -> Result<Vec<Prepared>, String> {
    let parts: Vec<Result<(Vec<Prepared>, Span), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = sources
            .chunks(sources.len().div_ceil(WORKERS))
            .map(|chunk| {
                s.spawn(move || {
                    let mut span = Span::default();
                    let mine = chunk
                        .iter()
                        .map(|src| prepare(src, &mut span, traced))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok((mine, span))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a set-up thread panicked"))
            .collect()
    });
    let mut programs = Vec::with_capacity(sources.len());
    for part in parts {
        let (mine, span) = part?;
        link.merge(&span);
        programs.extend(mine);
    }
    Ok(programs)
}

/// Builds `program`'s device under `key`, applies the manifest's
/// stimuli and runs to `stop`, the manifest's stop symbol.
pub(crate) fn exercise(
    program: &CorpusProgram,
    stop: u16,
    key: &[u8],
    build: &mut Span,
    sim: &mut SimStats,
    traced: bool,
) -> Result<Device, String> {
    let m = &program.manifest;
    let mut device = build
        .time(traced, || {
            Device::builder(&program.image)
                .mode(m.mode)
                .key(key)
                .build()
        })
        .map_err(|e| format!("device build: {e}"))?;
    let reached = sim.span.time(traced, || {
        let mut now = 0;
        for stimulus in &m.stimuli {
            if stimulus.at_step > now {
                device.run_steps(stimulus.at_step - now);
                now = stimulus.at_step;
            }
            match &stimulus.kind {
                StimulusKind::PressButton(pin) => device.set_button(*pin, true),
                StimulusKind::UartRx(bytes) => device.uart_rx(bytes),
            }
        }
        device.run_until_pc(stop, m.step_budget)
    });
    if traced {
        sim.record_device(&device);
    }
    if !reached {
        return Err(format!("never reached `{}`", m.run_until));
    }
    for want in &m.expect_violations {
        if !device.violations().iter().any(|(_, v)| v.contains(want)) {
            return Err(format!("expected a violation containing {want:?}"));
        }
    }
    Ok(device)
}

/// What one worker measured.
#[derive(Default)]
struct WorkerStats {
    tid: u64,
    build: Span,
    sim: SimStats,
    attest: Span,
    conclude: Span,
    sessions: u64,
    cycles: u64,
    wrong: u64,
    first_error: Option<String>,
}

/// Judges one program: verdict and the simulated cycles it took.
fn judge(p: &Prepared, w: &mut WorkerStats, traced: bool) -> Result<(Verdict, u64), String> {
    let key = p.program.manifest.device_key.as_bytes();
    let mut device = exercise(&p.program, p.stop, key, &mut w.build, &mut w.sim, traced)?;
    let mut verifier = AsapVerifier::new_shared(
        p.program.manifest.verifier_key.as_bytes(),
        Arc::clone(&p.spec),
    );
    let session = verifier.begin();
    let request = session.request_bytes();
    let response = w
        .attest
        .time(traced, || device.attest_bytes(&request))
        .map_err(|e| format!("attest: {e}"))?;
    let result = w.conclude.time(traced, || {
        session
            .evidence_bytes(&response)
            .and_then(|s| s.conclude(&verifier).into_result())
    });
    let verdict = match result {
        Ok(_) => Verdict::Verified,
        Err(e) => Verdict::classify(&e)?,
    };
    Ok((verdict, device.mcu.cycles()))
}

/// What the main thread shares with the workers.
struct Pass<'a> {
    programs: &'a [Prepared],
    cursor: AtomicUsize,
    traced: AtomicBool,
    stop: AtomicBool,
    /// Sessions judged wrongly so far, across workers.
    wrong: AtomicU64,
    barrier: Barrier,
}

fn worker(pass: &Pass) -> WorkerStats {
    let mut w = WorkerStats {
        tid: probe::current_tid(),
        ..WorkerStats::default()
    };
    loop {
        pass.barrier.wait();
        if pass.stop.load(Ordering::Acquire) {
            return w;
        }
        let traced = pass.traced.load(Ordering::Acquire);
        loop {
            let i = pass.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(p) = pass.programs.get(i) else { break };
            w.sessions += 1;
            let m = &p.program.manifest;
            let error = match judge(p, &mut w, traced) {
                Ok((verdict, cycles)) if verdict == m.expect => {
                    w.cycles += cycles;
                    continue;
                }
                Ok((verdict, _)) => format!("{}: got {verdict}, expected {}", m.name, m.expect),
                Err(e) => format!("{}: {e}", m.name),
            };
            w.wrong += 1;
            pass.wrong.fetch_add(1, Ordering::Relaxed);
            w.first_error.get_or_insert(error);
        }
        pass.barrier.wait();
    }
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let scale = config.scale;
    let inputs = sources(config.seed, scale.corpus_batch)?;
    let mut layers = Layers::default();

    let mut setups = SetupTimes::default();
    let mut programs = Vec::new();
    for _ in 0..scale.setup_repeats.max(1) {
        // Free the last set-up's programs before timing the next one.
        drop(std::mem::take(&mut programs));
        programs = setups.time(|| setup(&inputs, &mut layers.link, config.trace))?;
    }
    let n = programs.len() as u64;

    let shared = Pass {
        programs: &programs,
        cursor: AtomicUsize::new(0),
        traced: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        wrong: AtomicU64::new(0),
        barrier: Barrier::new(WORKERS + 1),
    };
    let (mut plain, mut tracing) = (Rounds::default(), Rounds::default());
    let (mut before, mut after) = Default::default();

    let workers: Vec<WorkerStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS).map(|_| s.spawn(|| worker(&shared))).collect();
        let pass = |on: bool, rounds: &mut Rounds| {
            shared.cursor.store(0, Ordering::Relaxed);
            shared.traced.store(on, Ordering::Release);
            let wrong = shared.wrong.load(Ordering::Relaxed);
            let (cpu, wall) = (probe::process_cpu_secs(), Instant::now());
            shared.barrier.wait();
            shared.barrier.wait();
            let wrong = shared.wrong.load(Ordering::Relaxed) - wrong;
            rounds.record(
                wall.elapsed().as_secs_f64(),
                probe::process_cpu_secs() - cpu,
                n,
                n - wrong,
            );
        };
        pass(false, &mut Rounds::default()); // warm-up: caches and allocator arenas fill
        before = probe::ctx_switches();
        let segment = config.seconds / f64::from(TRACE_SEGMENTS);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < config.seconds {
            let on = config.trace && (start.elapsed().as_secs_f64() / segment) as u64 % 2 == 1;
            pass(on, if on { &mut tracing } else { &mut plain });
        }
        after = probe::ctx_switches();
        shared.stop.store(true, Ordering::Release);
        shared.barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("a corpus worker panicked"))
            .collect()
    });

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (mut cycles, mut judged) = (0, 0);
    for w in &workers {
        out.attempted += w.sessions;
        judged += w.sessions - w.wrong;
        cycles += w.cycles;
        if w.wrong > 0 {
            out.fail(w.wrong, w.first_error.clone().unwrap_or_default());
        }
        layers.build.merge(&w.build);
        layers.sim.merge(&w.sim);
        layers.attest.merge(&w.attest);
        layers.conclude.merge(&w.conclude);
    }
    out.note(format!(
        "corpus_pox: {n} programs per pass ({} literate + {} generated, seed {:#x}), {WORKERS} worker threads, {} passes in {:.2} s, nproc {}",
        n - scale.corpus_batch as u64,
        scale.corpus_batch,
        config.seed,
        plain.count() + tracing.count(),
        plain.wall_s + tracing.wall_s,
        std::thread::available_parallelism().map_or(0, usize::from),
    ));

    if config.trace {
        // Corpus workers make no socket calls: both syscall counts stay 0.
        let provers: Vec<u64> = workers.iter().map(|w| w.tid).collect();
        (layers.prover_ctx_switches, layers.verifier_ctx_switches) =
            probe::ctx_switch_delta(&before, &after, &provers);
        layers.timed(&plain, &tracing);
        let worker_us = tracing.wall_s * 1e6 * WORKERS as f64;
        layers.session_us = probe::ratio(worker_us, tracing.sessions);
        layers.layer_sum_us =
            layers.build.us() + layers.sim.span.us() + layers.attest.us() + layers.conclude.us();
        layers.busy_share = if worker_us > 0.0 {
            layers.attest.nanos as f64 / 1e3 / worker_us
        } else {
            0.0
        };
        out.note(format!(
            "trace: {} untraced passes in {:.2} s, {} traced passes in {:.2} s",
            plain.count(),
            plain.wall_s,
            tracing.count(),
            tracing.wall_s
        ));
        let wrong = replay_corpus(&programs, scale.replay_rounds, &mut layers.replay)?;
        if wrong > 0 {
            out.fail(wrong, "the fleet replay misjudged corpus programs");
        }
        layers.report(&mut out);
    } else {
        plain.report(
            &mut out,
            &mut setups,
            probe::ratio(cycles as f64, judged),
            "passes",
        );
    }
    Ok(out)
}

/// The corpus as one fleet: every program a device of a fresh registry,
/// replayed in lock step; returns the sessions judged wrongly.
fn replay_corpus(
    programs: &[Prepared],
    rounds: usize,
    spans: &mut ReplaySpans,
) -> Result<u64, String> {
    let fleet = FleetVerifier::new();
    let mut provers = Loopback::new();
    let mut members = Vec::with_capacity(programs.len());
    let mut expected = Vec::with_capacity(programs.len());
    let (mut build, mut sim) = (Span::default(), SimStats::default());
    for (i, p) in programs.iter().enumerate() {
        let id = DeviceId(i as u64 + 1);
        let key = p.program.manifest.device_key.as_bytes();
        let device = exercise(&p.program, p.stop, key, &mut build, &mut sim, false)?;
        provers.attach(id, device);
        members.push(Member {
            id,
            key: p.program.manifest.verifier_key.as_bytes().to_vec(),
            spec: Arc::clone(&p.spec),
        });
        expected.push(p.program.manifest.expect);
    }
    replay::enroll(&fleet, &members, spans)?;
    replay::replay(
        &fleet,
        &members,
        &mut provers,
        rounds,
        spans,
        |report: &RoundReport| {
            let mut wrong = 0;
            for o in &report.outcomes {
                let want = o
                    .device
                    .and_then(|d| expected.get(d.0.checked_sub(1)? as usize));
                let got = match &o.result {
                    Ok(_) => Ok(Verdict::Verified),
                    Err(FleetError::Rejected(e)) => Verdict::classify(e),
                    Err(other) => Err(other.to_string()),
                };
                if want.is_none() || got.as_ref().ok() != want {
                    wrong += 1;
                }
            }
            wrong
        },
    )
}
