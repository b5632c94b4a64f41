//! The repository benchmark: three closed-loop workloads over the ASAP
//! proof-of-execution stack, measured end to end by an untraced run and
//! split by layer in a separately traced run.
//!
//! * [`corpus`] — `corpus_pox`: every literate program plus a seeded
//!   generated batch, each built, run, attested and judged;
//! * [`fleet`] — `fleet_steady` and `fleet_churn`: an enrolled fleet of
//!   simulated provers served through a `FleetRuntime` over socketpairs;
//! * [`replay`] — the traced run's lock-step replay that times the
//!   verifier-side fleet layers call by call.
//!
//! Every span is timed from this crate, around calls into the layers'
//! public functions; nothing inside the program is instrumented.

pub mod alloc;
pub mod corpus;
pub mod fleet;
pub mod probe;
pub mod replay;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CorpusPox,
    FleetSteady,
    FleetChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CorpusPox,
        Workload::FleetSteady,
        Workload::FleetChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusPox => "corpus_pox",
            Workload::FleetSteady => "fleet_steady",
            Workload::FleetChurn => "fleet_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a run is. [`Scale::FULL`] is the benchmark; tests use
/// [`Scale::TINY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Generated programs judged beside the literate corpus.
    pub corpus_batch: usize,
    /// Enrolled devices in the fleet workloads.
    pub devices: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Lock-step rounds in the traced run's replay.
    pub replay_rounds: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        corpus_batch: 183,
        devices: 1000,
        setup_repeats: 15,
        replay_rounds: 5,
    };
    pub const TINY: Scale = Scale {
        corpus_batch: 3,
        devices: 40,
        setup_repeats: 2,
        replay_rounds: 1,
    };
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
}

/// Threads that judge corpus programs, prover threads in the fleet, and
/// socketpair connections into the fleet runtime: one per core of the
/// 2-core host the benchmark was designed on, so every timed phase
/// keeps both cores busy.
pub const WORKERS: usize = 2;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's result: correctness, op counts, metrics, and human-readable
/// notes (sample counts, thread counts, the layer sum) printed above
/// the result line.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed correctness gate.
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        self.correct = false;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A set-up failure that leaves nothing to measure (a program that does
/// not load, a socket that cannot be made). Wrong verdicts are not
/// errors: they are counted as failed ops in the [`Outcome`].
pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut outcome = match config.workload {
        Workload::CorpusPox => corpus::run(config)?,
        Workload::FleetSteady | Workload::FleetChurn => fleet::run(config)?,
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "metric {} is not a number: {}",
            bad.name, bad.value
        ));
    }
    if outcome.attempted == 0 {
        outcome.fail(0, "no session was attempted in the timed phase");
    }
    Ok(outcome)
}

/// A shared layer breakdown both workload families fill in and report
/// as the per-layer metrics, so every traced run emits the same names.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub link: probe::Span,
    pub build: probe::Span,
    pub sim: probe::SimStats,
    pub attest: probe::Span,
    pub conclude: probe::Span,
    pub replay: replay::ReplaySpans,
    /// Per-session wall time the layer sum is subtracted from, µs.
    pub session_us: f64,
    /// Sum of the layers on the per-session path, µs.
    pub layer_sum_us: f64,
    /// Socket calls (one system call each) on each side.
    pub prover_syscalls: u64,
    pub verifier_syscalls: u64,
    pub prover_ctx_switches: u64,
    pub verifier_ctx_switches: u64,
    pub sessions: u64,
    pub rounds: u64,
    pub busy_share: f64,
    pub overhead_pct: f64,
}

impl Layers {
    /// Takes the session and round counts and the tracing overhead from
    /// a traced run's untraced and traced segments.
    pub fn timed(&mut self, untraced: &Rounds, traced: &Rounds) {
        self.sessions = untraced.sessions + traced.sessions;
        self.rounds = (untraced.count() + traced.count()) as u64;
        let per_session = |r: &Rounds| probe::ratio(r.cpu_s, r.sessions);
        let (u, t) = (per_session(untraced), per_session(traced));
        self.overhead_pct = if u > 0.0 { (t / u - 1.0) * 100.0 } else { 0.0 };
    }

    /// Appends every per-layer metric, in `BENCHMARK.json` order. The
    /// tracing overhead is the traced segments' CPU time per session
    /// over the untraced segments', in percent.
    pub fn report(&self, out: &mut Outcome) {
        let sim = &self.sim;
        let sim_runs = sim.span.calls;
        out.metric("tools.link_us", self.link.us(), "us");
        out.metric("device.build_us", self.build.us(), "us");
        out.metric("device.build_allocs", self.build.allocs_per_call(), "count");
        out.metric(
            "sim.ns_per_step",
            probe::ratio(sim.span.nanos as f64, sim.steps),
            "ns",
        );
        out.metric(
            "sim.steps_per_session",
            probe::ratio(sim.steps as f64, sim_runs),
            "count",
        );
        out.metric(
            "sim.sb_hit_ratio",
            probe::ratio(sim.hits as f64, sim.hits + sim.misses),
            "ratio",
        );
        out.metric(
            "sim.blocks_built_per_session",
            probe::ratio(sim.blocks_built as f64, sim_runs),
            "count",
        );
        out.metric("swatt.attest_us", self.attest.us(), "us");
        out.metric(
            "swatt.attest_allocs",
            self.attest.allocs_per_call(),
            "count",
        );
        out.metric("verifier.conclude_us", self.conclude.us(), "us");
        out.metric(
            "verifier.conclude_allocs",
            self.conclude.allocs_per_call(),
            "count",
        );
        let r = &self.replay;
        out.metric("registry.begin_us", r.begin.us(), "us");
        out.metric("registry.conclude_us", r.conclude.us(), "us");
        out.metric("engine.settle_us", r.settle.us(), "us");
        out.metric("wire.deframe_us", r.deframe.us(), "us");
        out.metric("registry.enroll_us", r.enroll.us(), "us");
        out.metric("registry.rekey_us", r.rekey.us(), "us");
        out.metric("registry.remove_us", r.remove.us(), "us");
        out.metric(
            "runtime.unaccounted_us",
            self.session_us - self.layer_sum_us,
            "us",
        );
        let per_session = |n: u64| probe::ratio(n as f64, self.sessions);
        let per_round = |n: u64| probe::ratio(n as f64, self.rounds);
        out.metric(
            "runtime.syscalls_per_session.verifier",
            per_session(self.verifier_syscalls),
            "count",
        );
        out.metric(
            "runtime.syscalls_per_session.prover",
            per_session(self.prover_syscalls),
            "count",
        );
        out.metric(
            "runtime.ctx_switches_per_round.verifier",
            per_round(self.verifier_ctx_switches),
            "count",
        );
        out.metric(
            "runtime.ctx_switches_per_round.prover",
            per_round(self.prover_ctx_switches),
            "count",
        );
        out.metric("prover.busy_share", self.busy_share, "ratio");
        out.metric("trace.overhead_pct", self.overhead_pct, "%");
        out.note(format!(
            "layer sum: {:.3} us/session on the path + {:.3} us unaccounted = {:.3} us/session of round time",
            self.layer_sum_us,
            self.session_us - self.layer_sum_us,
            self.session_us
        ));
    }
}

/// Set-up times of one run, one entry per repeated set-up.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub cpu_s: Vec<f64>,
    pub wall_s: Vec<f64>,
}

impl SetupTimes {
    /// Times one set-up.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (cpu, wall) = (probe::process_cpu_secs(), std::time::Instant::now());
        let out = f();
        self.cpu_s.push(probe::process_cpu_secs() - cpu);
        self.wall_s.push(wall.elapsed().as_secs_f64());
        out
    }
}

/// The closed loop's rounds (corpus passes, fleet rounds) in the
/// timed phase, per mode.
#[derive(Debug, Default)]
pub struct Rounds {
    pub wall_ms: Vec<f64>,
    pub cpu_ms: Vec<f64>,
    /// Sessions attempted, and judged as expected.
    pub sessions: u64,
    pub judged: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Rounds {
    pub fn record(&mut self, wall_s: f64, cpu_s: f64, sessions: u64, judged: u64) {
        self.wall_ms.push(wall_s * 1e3);
        self.cpu_ms.push(cpu_s * 1e3);
        self.sessions += sessions;
        self.judged += judged;
        self.wall_s += wall_s;
        self.cpu_s += cpu_s;
    }

    pub fn count(&self) -> usize {
        self.wall_ms.len()
    }

    /// Appends every end-to-end metric, in `BENCHMARK.json` order, and
    /// notes the wall-clock figures beside them. Times are CPU times of
    /// the whole process: see [`probe::process_cpu_secs`].
    pub fn report(
        mut self,
        out: &mut Outcome,
        setup: &mut SetupTimes,
        sim_cycles_per_session: f64,
        noun: &str,
    ) {
        let n = self.count();
        out.metric("setup_s", probe::median(&mut setup.cpu_s), "s");
        out.metric(
            "sessions_per_cpu_s",
            self.judged as f64 / self.cpu_s,
            "1/cpu_s",
        );
        out.metric(
            "round_cpu_ms_p50",
            probe::percentile(&mut self.cpu_ms, 50.0),
            "ms",
        );
        out.metric(
            "round_cpu_ms_p90",
            probe::percentile(&mut self.cpu_ms, 90.0),
            "ms",
        );
        out.metric("sim_cycles_per_session", sim_cycles_per_session, "cycles");
        out.metric("peak_rss_mb", probe::peak_rss_mb(), "MiB");
        out.note(format!(
            "setup_s is the median CPU time of {} set-ups (median wall time {:.4} s); round percentiles are over {n} {noun}, {} of them beyond p90",
            setup.cpu_s.len(),
            probe::median(&mut setup.wall_s),
            n - n * 9 / 10,
        ));
        out.note(format!(
            "wall clock, not gated: sessions_per_s {:.1} 1/s, round_ms_p50 {:.3} ms, round_ms_p90 {:.3} ms ({noun}), {:.2} CPUs busy",
            self.judged as f64 / self.wall_s,
            probe::percentile(&mut self.wall_ms, 50.0),
            probe::percentile(&mut self.wall_ms, 90.0),
            self.cpu_s / self.wall_s,
        ));
    }
}

/// Segments per timed phase in a traced run, alternating untraced and
/// traced so the overhead estimate sees the same host-speed phases on
/// both sides.
pub const TRACE_SEGMENTS: u32 = 8;
