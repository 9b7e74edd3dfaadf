//! End-to-end and per-layer benchmark of the lvp system.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from `--seed`, sets up several times (the
//! median is `setup_s`), then measures for `--seconds`, cut into slices.
//! Each slice runs the Algorithm 1 path (repeated
//! `PerformancePredictor::fit` plus serve ops), then the lvpd path
//! (closed-loop connections through the shipped client to an in-process
//! server). The workload sets the lvpd traffic, the slices and how each
//! slice is shared between the two paths. The run holds itself to one
//! CPU; set-up, fits and serve ops are timed by the CPU clock of the one
//! thread that runs them, lvpd round trips by the wall clock. Every output
//! is checked; a failed check fails the run. The last stdout line is one
//! JSON object: end-to-end metrics with `--trace 0`, per-layer metrics
//! (spans recorded around each layer's public calls) with `--trace 1`. See
//! `perfbench/DESIGN.md`.

mod alg1;
mod calibrate;
mod cpu;
mod lvpd;
mod stats;
mod trace;

use lvpd::Role;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::Samples;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Calibration kernel passes after each set-up, to scale `setup_s` by the
/// host's speed at set-up time.
const SETUP_KERNEL_PASSES: usize = 30;

struct Workload {
    name: &'static str,
    /// Slices the measured time is cut into; every lvpd part reconnects
    /// its clients. How the transport treats a connection depends on its
    /// TCP state, which differs between connections: whether the
    /// server-side stall hits a 64 KB `history` response, and how long a
    /// 4096-row `observe` takes. A run spreads its traffic over several
    /// fresh connections so that its figures do not hang on one of them.
    slices: u32,
    /// Share of each slice given to the Algorithm 1 path; the rest goes to
    /// lvpd traffic.
    alg1_share: f64,
    roles: fn() -> Vec<Role>,
    /// Whether `write_p50_ms` is the CPU cost of a write (process CPU time,
    /// scaled like the Algorithm 1 figures) rather than its wall time. A
    /// 4096-row round trip is CPU work on both ends, and its wall time
    /// mostly measured how much of the run's CPU the host took away: ten
    /// seeds spread 0.38 of the median. Its stalls still show in
    /// `write_tail_ms`. Small writes wait on the delayed-ACK timer, so
    /// their wall time is the figure.
    write_p50_cpu: bool,
}

/// A 64-row writer with a `finish` every 16 chunks, and a reader on its
/// deployment.
fn small_mixed() -> Vec<Role> {
    vec![
        Role::Writer {
            deployment: 0,
            chunk_rows: 64,
            finish_every: 16,
            read_after_finish: false,
        },
        Role::Reader { deployment: 0 },
    ]
}

/// One writer of 4096-row chunks with a `finish` every 8. A second such
/// writer would put four CPU-bound threads (two clients, two connection
/// threads) on the run's CPU, and their round trips would measure how
/// the scheduler slices it.
fn chunk4k() -> Vec<Role> {
    vec![Role::Writer {
        deployment: 0,
        chunk_rows: 4096,
        finish_every: 8,
        read_after_finish: true,
    }]
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "alg1_xgb_income",
        slices: 8,
        alg1_share: 0.7,
        roles: chunk4k,
        write_p50_cpu: true,
    },
    Workload {
        name: "lvpd_small_mixed",
        slices: 4,
        alg1_share: 0.6,
        roles: small_mixed,
        write_p50_cpu: false,
    },
];

/// An independent RNG stream of the run seed.
pub fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(lvp_models::mix64(seed ^ lvp_models::mix64(tag)))
}

/// Correctness bookkeeping: a failed check fails the run; it is never
/// counted as a slow sample.
#[derive(Default)]
pub struct Check {
    failures: Vec<String>,
}

impl Check {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn fail(&mut self, message: String) {
        eprintln!("check failed: {message}");
        self.failures.push(message);
    }

    pub fn record(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail(e);
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Everything one set-up produces.
struct Fixture {
    alg1: alg1::Alg1Fixture,
    script: lvpd::Script,
    live: lvpd::Live,
}

fn set_up(args: &Args, out_dir: &std::path::Path, repeat: usize) -> Result<Fixture, String> {
    let alg1 = alg1::Alg1Fixture::build(args.seed, args.trace)?;
    let script = lvpd::Script::new((args.workload.roles)(), args.seed, &alg1);
    let dir = out_dir.join(format!("state-{}-{repeat}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live = lvpd::Live::start(dir, &script, &alg1.artifact)?;
    Ok(Fixture { alg1, script, live })
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every thread of the run shares one CPU, and the Algorithm 1 path runs
    // on this thread alone, timed by its CPU clock (see `cpu`). On a shared
    // host the share of each core the host takes away drifts, and work
    // spread over cores waits for the slowest: fits forked by the engine's
    // pool and 4096-row round trips (client and connection thread streaming
    // the line between them) measured the host, not the program. The
    // engine's results do not depend on the thread count.
    if let Err(e) = cpu::pin_to_one() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let serial = match rayon::ThreadPoolBuilder::new().num_threads(1).build() {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("perfbench: one-thread pool: {e}");
            return ExitCode::FAILURE;
        }
    };
    match serial.install(|| run(&args)) {
        Ok((metrics, check, attempted)) => {
            if print_result(&metrics, &check, attempted) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(Metrics, Check, u64), String> {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let mut check = Check::default();

    // Set up several times; keep the last, and require every repeat to
    // produce bit-identical reference answers.
    let (mut setup, mut setup_kernel) = (Samples::default(), Samples::default());
    let mut fixture: Option<Fixture> = None;
    let mut digest = None;
    for repeat in 0..SETUP_REPEATS {
        if let Some(old) = fixture.take() {
            old.live.stop();
        }
        let start = cpu::thread_ms();
        let fx = set_up(args, &out_dir, repeat)?;
        setup.push((cpu::thread_ms() - start) / 1e3);
        for _ in 0..SETUP_KERNEL_PASSES {
            setup_kernel.push(calibrate::pass_ms());
        }
        let d = fx.alg1.digest();
        if digest.as_ref().is_some_and(|first| *first != d) {
            check.fail(format!("set-up {repeat} differs from set-up 0"));
        }
        digest = Some(d);
        fixture = Some(fx);
    }
    let Fixture {
        alg1: fx,
        script,
        mut live,
    } = fixture.expect("at least one set-up");

    let tracer = args.trace.then(|| Arc::new(Tracer::new()));
    // The measured time is cut into slices, each an Algorithm 1 part then
    // an lvpd part, so both paths sample the whole run.
    let slices = args.workload.slices;
    let slice = Duration::from_secs(args.seconds).div_f64(f64::from(slices));
    let mut alg1_loop = alg1::Alg1Loop::new(&fx, tracer.as_ref());
    let mut lvpd_samples = lvpd::LiveSamples::default();
    let start = Instant::now();
    for i in 1..=slices {
        let slice_end = start + slice.mul_f64(i as f64);
        alg1_loop.run_until(
            slice_end - slice.mul_f64(1.0 - args.workload.alg1_share),
            &mut check,
        );
        if check.ok() {
            live.run_slice(
                &script,
                slice_end,
                args.workload.write_p50_cpu,
                tracer.as_ref(),
                &mut lvpd_samples,
                &mut check,
            );
        }
    }
    if check.ok() {
        check.record(live.check_final_state(&script));
    }
    live.stop();
    let (alg1_samples, alg1_layers, kernel) = alg1_loop.finish();
    // Estimate quality is checked once, untimed; traced runs skip it.
    let quality = if args.trace {
        alg1::Quality::default()
    } else {
        fx.quality(args.seed)?
    };
    let attempted = (alg1_samples.fit.len()
        + alg1_samples.serve.len()
        + alg1_layers.traced.fit.len()
        + alg1_layers.traced.serve.len()) as u64
        + lvpd_samples.requests;

    let metrics = match &tracer {
        None => {
            print_tails(&alg1_samples, &lvpd_samples);
            println!(
                "calibration kernel median {:.4} ms after set-up, {:.4} ms between serve ops; unscaled setup_s {:.4}, fit_p50_ms {:.4}, serve_p50_ms {:.4}; write_p50_ms {:.4} wall, {:.4} CPU unscaled",
                setup_kernel.median(),
                kernel.median(),
                setup.median(),
                alg1_samples.fit.median(),
                alg1_samples.serve.median(),
                lvpd_samples.write.median(),
                lvpd_samples.write_cpu.median(),
            );
            let ok_share = 1.0 - check.failures.len() as f64 / attempted.max(1) as f64;
            end_to_end(
                setup.median() * calibrate::scale(&setup_kernel),
                &quality,
                &alg1_samples,
                &lvpd_samples,
                peak_rss_mib()?,
                ok_share,
                calibrate::scale(&kernel),
            )
        }
        Some(tracer) => {
            let dir = out_dir.join(format!("replay-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let layers = if check.ok() {
                lvpd::replay(&dir, &script, &fx, &lvpd_samples, tracer)
            } else {
                Ok(lvpd::LvpdLayers::default())
            };
            let _ = std::fs::remove_dir_all(&dir);
            let layers = layers.unwrap_or_else(|e| {
                check.fail(e);
                lvpd::LvpdLayers::default()
            });
            let path = out_dir.join(format!("trace-{}-{}.json", args.workload.name, args.seed));
            tracer
                .write(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!(
                "perfbench: {} spans written to {}",
                tracer.len(),
                path.display()
            );
            per_layer(
                &alg1_samples,
                &alg1_layers,
                &kernel,
                &lvpd_samples,
                &layers,
                tracer,
                &mut check,
            )
        }
    };
    Ok((metrics, check, attempted.max(1)))
}

fn print_tails(alg1: &alg1::Alg1Samples, live: &lvpd::LiveSamples) {
    for (name, samples) in [
        ("fit_tail_ms", &alg1.fit),
        ("serve_tail_ms", &alg1.serve),
        ("write_tail_ms", &live.write),
        ("read_tail_ms", &live.read),
    ] {
        let t = samples.tail();
        println!(
            "tail {name}: p{:.1} of {} samples (10 beyond it when n >= 21)",
            t.percentile, t.samples
        );
    }
}

fn end_to_end(
    setup_s: f64,
    quality: &alg1::Quality,
    alg1: &alg1::Alg1Samples,
    live: &lvpd::LiveSamples,
    peak_rss: f64,
    ok_share: f64,
    scale: f64,
) -> Metrics {
    // Set-up, fits and serve ops are CPU time of the thread that ran them,
    // scaled to the reference host speed (see `calibrate`); the lvpd round
    // trips are wall time at the client, except a CPU-bound median write
    // (see `Workload::write_p50_cpu`).
    vec![
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
        ("ok_share", ok_share, "ratio"),
        ("fit_p50_ms", alg1.fit.median() * scale, "ms"),
        ("fit_tail_ms", alg1.fit.tail().value * scale, "ms"),
        ("serve_p50_ms", alg1.serve.median() * scale, "ms"),
        ("serve_tail_ms", alg1.serve.tail().value * scale, "ms"),
        ("estimate_mae", quality.estimate_mae, "score"),
        ("interval_coverage", quality.interval_coverage, "ratio"),
        ("validate_f1", quality.validate_f1, "ratio"),
        (
            "write_p50_ms",
            if live.write_cpu.len() > 0 {
                live.write_cpu.median() * scale
            } else {
                live.write.median()
            },
            "ms",
        ),
        ("write_tail_ms", live.write.tail().value, "ms"),
        ("read_p50_ms", live.read.median(), "ms"),
        ("read_tail_ms", live.read.tail().value, "ms"),
        ("requests_per_s", live.requests_per_s, "req/s"),
    ]
}

/// The single value every traced fit must agree on, or a failed check.
fn exact(name: &str, values: &[u64], check: &mut Check) -> f64 {
    match values.first() {
        Some(&first) if values.iter().all(|&v| v == first) => first as f64,
        Some(_) => {
            check.fail(format!("{name} differs between identical fits: {values:?}"));
            f64::NAN
        }
        None => {
            check.fail(format!("{name}: no traced fit completed"));
            f64::NAN
        }
    }
}

fn per_layer(
    alg1: &alg1::Alg1Samples,
    a: &alg1::Alg1Layers,
    kernel: &Samples,
    live: &lvpd::LiveSamples,
    l: &lvpd::LvpdLayers,
    tracer: &Tracer,
    check: &mut Check,
) -> Metrics {
    let handle = |verb: &str| l.handle_ms.get(verb).map_or(f64::NAN, Samples::median);
    let counter = |name: &str| l.counters.get(name).copied().unwrap_or(0) as f64;
    let bytes = l.journal_bytes.iter().sum::<u64>() as f64 / l.journal_bytes.len() as f64;
    vec![
        ("corruptions.corrupt_ms", a.corrupt_ms.median(), "ms"),
        (
            "corruptions.calls",
            exact("corruptions.calls", &a.corrupt_calls, check),
            "count",
        ),
        ("models.predict_proba_ms", a.predict_ms.median(), "ms"),
        (
            "models.predict_proba_calls",
            exact("models.predict_proba_calls", &a.predict_calls, check),
            "count",
        ),
        (
            "models.predict_proba_rows",
            exact("models.predict_proba_rows", &a.predict_rows, check),
            "count",
        ),
        ("featurize.cache_hit_ratio", a.cache_hit_ratio, "ratio"),
        ("core.engine.generate_ms", a.generate_ms.median(), "ms"),
        ("core.engine.score_ms", a.score_ms.median(), "ms"),
        ("core.engine.featurize_ms", a.featurize_ms.median(), "ms"),
        ("core.predictor.meta_fit_ms", a.meta_fit_ms.median(), "ms"),
        ("core.predictor.interval_ms", a.interval_ms.median(), "ms"),
        (
            "core.features.statistics_ms",
            a.statistics_ms.median(),
            "ms",
        ),
        ("core.validator.validate_ms", a.validate_ms.median(), "ms"),
        ("server.client_encode_ms", l.client_encode_ms.median(), "ms"),
        ("server.protocol.decode_ms", l.decode_ms.median(), "ms"),
        (
            "server.daemon.observe_ms",
            handle("server.daemon.observe"),
            "ms",
        ),
        (
            "server.daemon.finish_ms",
            handle("server.daemon.finish"),
            "ms",
        ),
        (
            "server.daemon.history_ms",
            handle("server.daemon.history"),
            "ms",
        ),
        (
            "server.daemon.metrics_ms",
            handle("server.daemon.metrics"),
            "ms",
        ),
        ("server.daemon.lock_wait_ms", l.lock_wait_ms, "ms"),
        (
            "server.protocol.response_encode_ms",
            l.response_encode_ms.median(),
            "ms",
        ),
        ("server.net.transport_ms", l.transport_ms.median(), "ms"),
        (
            "server.net.read_transport_ms",
            l.read_transport_ms.median(),
            "ms",
        ),
        (
            "server.journal.encode_ms",
            l.journal_encode_ms.median(),
            "ms",
        ),
        ("server.journal.bytes_per_observe", bytes, "bytes"),
        ("server.journal.append_ms", l.append_ms.median(), "ms"),
        (
            "server.journal.append_fsync_ms",
            l.append_fsync_ms.median(),
            "ms",
        ),
        ("core.monitor.fold_ms", l.fold_ms.median(), "ms"),
        ("core.monitor.finish_ms", l.finish_ms.median(), "ms"),
        ("linalg.from_rows_ms", l.from_rows_ms.median(), "ms"),
        ("server.requests", counter("server.requests"), "count"),
        (
            "server.error_responses",
            counter("server.error_responses"),
            "count",
        ),
        (
            "server.shed_requests",
            counter("server.shed_requests"),
            "count",
        ),
        ("journal.appends", counter("journal.appends"), "count"),
        (
            "trace.overhead.fit_ms",
            a.traced.fit.median() - alg1.fit.median(),
            "ms",
        ),
        (
            "trace.overhead.serve_ms",
            a.traced.serve.median() - alg1.serve.median(),
            "ms",
        ),
        (
            "trace.overhead.write_ms",
            live.traced_write.median() - live.bare_write.median(),
            "ms",
        ),
        (
            "trace.overhead.read_ms",
            live.traced_read.median() - live.bare_read.median(),
            "ms",
        ),
        ("trace.spans", tracer.len() as f64, "count"),
        ("host.calibration_ms", kernel.median(), "ms"),
    ]
}

/// Prints one line per metric, then the result object as the last line.
/// A metric that could not be measured fails the run. Returns whether
/// the run is correct.
fn print_result(metrics: &Metrics, check: &Check, attempted: u64) -> bool {
    let mut json = String::from("{");
    let mut correct = check.ok();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        println!("{name:<36} {value:>16.6} {unit}");
        if !value.is_finite() {
            eprintln!("check failed: {name} is not a finite number");
            correct = false;
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push('}');
    let failed = (check.failures.len() as u64).max(u64::from(!correct));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {json}}}"
    );
    correct
}
