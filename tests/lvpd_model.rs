//! Model-based properties of lvpd's single mutation path. Random request
//! sequences over every verb and all four observe modes — with overflow
//! sheds, breaker open/half-open, `finish` without a window, rejected
//! inputs and mid-sequence compacting saves — must answer identically
//! with and without the write-ahead journal, and a crash at any request
//! boundary must recover exactly the live state at that boundary. The
//! untrusted byte inputs (wire lines, journal bytes, artifact envelopes
//! and artifact files) must come back as typed results, never panics.

use lvp_core::{
    load_json, to_json, unwrap_envelope, wrap_envelope, BatchMonitor, MonitorPolicy,
    PerformancePredictor, PredictorConfig, ScoreInterval, ServingArtifact,
};
use lvp_corruptions::standard_tabular_suite;
use lvp_dataframe::toy_frame;
use lvp_models::{train_model, BlackBoxModel, BreakerConfig, CircuitState, ModelKind};
use lvp_server::{
    encode_record, scan_journal, Daemon, DaemonConfig, DurabilityConfig, FsyncPolicy, JournalOp,
    JournalRecord, MonitorKey, RegistrySnapshot, Request, Response,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// The serving artifact every deployment registers, fitted once.
fn artifact() -> &'static ServingArtifact {
    static ARTIFACT: OnceLock<ServingArtifact> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let df = toy_frame(220);
        let mut rng = StdRng::seed_from_u64(29);
        let (train, rest) = df.split_frac(0.4, &mut rng);
        let (test, _serving) = rest.split_frac(0.5, &mut rng);
        let model: Arc<dyn BlackBoxModel> =
            Arc::from(train_model(ModelKind::Lr, &train, &mut rng).unwrap());
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let monitor = BatchMonitor::new(predictor, MonitorPolicy::default()).unwrap();
        ServingArtifact::from_monitor(&monitor)
    })
}

/// A tight budget and a short cooldown, so random traffic overflows,
/// trips the breaker and probes it half-open within a few requests.
fn config() -> DaemonConfig {
    DaemonConfig {
        queue_capacity: 2,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_nanos: 4_000_000,
            half_open_successes: 2,
        },
        history_limit: Some(16),
        ..DaemonConfig::default()
    }
}

const TENANTS: [&str; 2] = ["acme", "bravo"];

fn key(rng: &mut StdRng) -> MonitorKey {
    MonitorKey {
        tenant: TENANTS[rng.gen_range(0..2)].to_string(),
        model: ["fraud", "churn"][rng.gen_range(0..2)].to_string(),
        version: "v1".to_string(),
    }
}

/// Up to `max` two-class probability rows (possibly none).
fn probability_rows(rng: &mut StdRng, max: usize) -> Vec<Vec<f64>> {
    let n = rng.gen_range(0..=max);
    (0..n)
        .map(|_| {
            let p = rng.gen_range(0.02..0.98);
            vec![p, 1.0 - p]
        })
        .collect()
}

/// Rows the daemon must reject before journaling: non-probabilities,
/// ragged rows, or the wrong class count.
fn bad_rows(rng: &mut StdRng) -> Vec<Vec<f64>> {
    match rng.gen_range(0..5) {
        0 => vec![vec![-1.0, 2.0]],
        1 => vec![vec![1e308, 1e308]],
        2 => vec![vec![0.5, 0.5], vec![f64::NAN, 0.5]],
        3 => vec![vec![0.5, 0.5], vec![1.0]],
        _ => vec![vec![0.2, 0.3, 0.5]],
    }
}

/// Placeholder `save` targets, resolved per daemon by [`in_dir`].
const SNAPSHOT: &str = "<snapshot>";
const EXPORT: &str = "<export>";

/// One random request over every verb and observe mode.
fn random_request(rng: &mut StdRng) -> Request {
    let mut req = Request::targeted("observe", &key(rng));
    match rng.gen_range(0..100) {
        0..=5 => {
            req.verb = "register".to_string();
            req.artifact = Some(artifact().clone());
        }
        6..=13 => req.outputs = Some(probability_rows(rng, 10)),
        14..=41 => req.chunk = Some(probability_rows(rng, 8)),
        42..=51 => req.estimate = Some(rng.gen_range(0.3..0.95)),
        52..=56 => {
            // Inverted bounds are journaled and rejected by the monitor.
            let (lo, hi) = if rng.gen_bool(0.5) {
                (0.7, 0.9)
            } else {
                (0.9, 0.7)
            };
            req.interval = Some(ScoreInterval {
                point: 0.8,
                lo,
                hi,
                alpha: 0.1,
            });
        }
        57..=59 => req.outputs = Some(bad_rows(rng)),
        60..=62 => req.chunk = Some(bad_rows(rng)),
        63..=64 => {
            if rng.gen_bool(0.5) {
                req.estimate = Some(0.5);
                req.chunk = Some(probability_rows(rng, 2));
            }
        }
        65..=79 => req.verb = "finish".to_string(),
        80..=84 => {
            req.verb = "history".to_string();
            req.limit = Some(rng.gen_range(0..6));
            req.offset = Some(rng.gen_range(0..4));
        }
        85..=87 => req = Request::new("metrics"),
        88..=89 => req = Request::new("list"),
        90..=95 => {
            req = Request::new("save");
            let target = if rng.gen_bool(0.7) { SNAPSHOT } else { EXPORT };
            req.path = Some(target.to_string());
        }
        _ => {
            req.model = None;
            req.estimate = Some(0.5);
        }
    }
    req
}

/// `req` with its placeholder `save` target resolved inside `dir`.
fn in_dir(req: &Request, dir: &Path) -> Request {
    let mut req = req.clone();
    req.path = req.path.map(|p| match p.as_str() {
        SNAPSHOT => dir.join("registry.json").to_string_lossy().into_owned(),
        _ => dir.join("export.json").to_string_lossy().into_owned(),
    });
    req
}

/// A response with what legitimately differs between a durable and a
/// journal-less daemon removed: file paths, the compaction note of a
/// `save`, and the `journal.*` counters.
fn comparable(mut resp: Response, dir: &Path) -> String {
    if let Some(metrics) = resp.metrics.as_mut() {
        metrics
            .counters
            .retain(|name, _| !name.starts_with("journal."));
    }
    serde_json::to_string(&resp)
        .unwrap()
        .replace(&*dir.to_string_lossy(), "<dir>")
        .replace(" (journal compacted)", "")
}

/// What a crash right after one request leaves on disk, plus the live
/// registry state recovery must reproduce from it.
struct Boundary {
    journal: Vec<u8>,
    snapshot: Option<Vec<u8>>,
    state: String,
}

#[test]
fn durable_and_journal_less_daemons_agree_and_recover_at_any_boundary() {
    let root = std::env::temp_dir().join(format!("lvpd-model-{}", std::process::id()));
    let (mut opened, mut half_opened, mut sheds, mut errors) = (0, 0, 0, 0);
    let mut runner = TestRunner::new(ProptestConfig::with_cases(24));
    runner.run("single_mutation_path", |rng| {
        let (live_dir, plain_dir) = (root.join("live"), root.join("plain"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&live_dir).unwrap();
        std::fs::create_dir_all(&plain_dir).unwrap();
        let durability = DurabilityConfig::in_dir_with_fsync(&live_dir, FsyncPolicy::Never);
        let (durable, _) = Daemon::recover(config(), durability.clone()).unwrap();
        let plain = Daemon::new(config());

        let mut requests: Vec<Request> = TENANTS
            .iter()
            .map(|tenant| {
                let key = MonitorKey {
                    tenant: tenant.to_string(),
                    model: "fraud".to_string(),
                    version: "v1".to_string(),
                };
                let mut req = Request::targeted("register", &key);
                req.artifact = Some(artifact().clone());
                req
            })
            .collect();
        let n = rng.gen_range(30..70);
        requests.extend((0..n).map(|_| random_request(rng)));
        let crash_at: Vec<usize> = (0..4).map(|_| rng.gen_range(0..requests.len())).collect();

        let mut boundaries = Vec::new();
        for (step, req) in requests.iter().enumerate() {
            let live = durable.handle_request(in_dir(req, &live_dir));
            let reference = plain.handle_request(in_dir(req, &plain_dir));
            sheds += usize::from(live.is_shed());
            errors += usize::from(live.status == "error");
            let (live, reference) = (
                comparable(live, &live_dir),
                comparable(reference, &plain_dir),
            );
            prop_assert_eq!(live, reference, "responses diverged at step {}", step);
            for tenant in TENANTS {
                match durable.tenant_circuit(tenant) {
                    CircuitState::Open => opened += 1,
                    CircuitState::HalfOpen => half_opened += 1,
                    CircuitState::Closed => {}
                }
            }
            if crash_at.contains(&step) {
                boundaries.push(Boundary {
                    journal: std::fs::read(durability.journal_path.as_ref().unwrap()).unwrap(),
                    snapshot: std::fs::read(durability.snapshot_path.as_ref().unwrap()).ok(),
                    state: to_json(&durable.snapshot()).unwrap(),
                });
            }
        }
        prop_assert_eq!(
            to_json(&durable.snapshot()).unwrap(),
            to_json(&plain.snapshot()).unwrap()
        );

        for boundary in boundaries {
            let crash_dir = root.join("crash");
            let _ = std::fs::remove_dir_all(&crash_dir);
            std::fs::create_dir_all(&crash_dir).unwrap();
            let planted = DurabilityConfig::in_dir_with_fsync(&crash_dir, FsyncPolicy::Never);
            std::fs::write(planted.journal_path.as_ref().unwrap(), &boundary.journal).unwrap();
            if let Some(bytes) = &boundary.snapshot {
                std::fs::write(planted.snapshot_path.as_ref().unwrap(), bytes).unwrap();
            }
            let (recovered, report) = Daemon::recover(config(), planted).unwrap();
            prop_assert!(report.tail_defect.is_none(), "{:?}", report);
            prop_assert_eq!(to_json(&recovered.snapshot()).unwrap(), boundary.state);
        }
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&root);
    // The sequences really drove the paths the single mutation path must
    // get right.
    assert!(sheds > 0 && errors > 0, "sheds {sheds}, errors {errors}");
    assert!(
        opened > 0 && half_opened > 0,
        "open {opened}, half-open {half_opened}"
    );
}

/// Flips the bits named by `flips` (bit indices, wrapped into `bytes`).
fn flip_bits(bytes: &mut [u8], flips: &[usize]) {
    if bytes.is_empty() {
        return;
    }
    for &bit in flips {
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

/// A daemon with one registered deployment, shared by the wire fuzz
/// cases so flipped lines can reach admission and the monitor.
fn wire_daemon() -> &'static Daemon {
    static DAEMON: OnceLock<Daemon> = OnceLock::new();
    DAEMON.get_or_init(|| {
        let daemon = Daemon::new(config());
        let mut req = Request::targeted("register", &wire_key());
        req.artifact = Some(artifact().clone());
        assert!(daemon.handle_request(req).is_ok());
        daemon
    })
}

fn wire_key() -> MonitorKey {
    MonitorKey {
        tenant: "acme".to_string(),
        model: "fraud".to_string(),
        version: "v1".to_string(),
    }
}

/// Valid request lines for every non-`save` verb (a flipped `save` path
/// could write anywhere).
fn valid_lines() -> Vec<String> {
    let key = wire_key();
    let mut chunk = Request::targeted("observe", &key);
    chunk.chunk = Some(vec![vec![0.3, 0.7], vec![0.6, 0.4]]);
    let mut outputs = Request::targeted("observe", &key);
    outputs.outputs = Some(vec![vec![0.9, 0.1], vec![0.2, 0.8]]);
    let mut estimate = Request::targeted("observe", &key);
    estimate.estimate = Some(0.8);
    let mut interval = Request::targeted("observe", &key);
    interval.interval = Some(ScoreInterval {
        point: 0.8,
        lo: 0.7,
        hi: 0.9,
        alpha: 0.1,
    });
    let mut history = Request::targeted("history", &key);
    history.limit = Some(2);
    let requests = [
        chunk,
        outputs,
        estimate,
        interval,
        Request::targeted("finish", &key),
        history,
        Request::new("list"),
    ];
    requests
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect()
}

/// A small valid journal: one record per non-register op kind.
fn valid_journal() -> Vec<u8> {
    let key = wire_key();
    let ops = [
        JournalOp::ObserveChunk {
            key: key.clone(),
            rows: vec![vec![0.3, 0.7]],
        },
        JournalOp::ObserveOutputs {
            key: key.clone(),
            rows: vec![vec![0.9, 0.1]],
        },
        JournalOp::ObserveEstimate {
            key: key.clone(),
            estimate: 0.8,
        },
        JournalOp::ObserveInterval {
            key: key.clone(),
            interval: ScoreInterval {
                point: 0.8,
                lo: 0.7,
                hi: 0.9,
                alpha: 0.1,
            },
        },
        JournalOp::Finish { key: key.clone() },
        JournalOp::AbandonWindow {
            key: key.clone(),
            reason: "shed".to_string(),
        },
        JournalOp::ObserveDegraded {
            key,
            reason: "shed".to_string(),
        },
    ];
    ops.into_iter()
        .flat_map(|op| encode_record(&JournalRecord { epoch: 3, op }).unwrap())
        .collect()
}

/// Valid JSON of both artifact kinds `lvpd` loads from disk: a serving
/// artifact and a registry snapshot holding one deployment.
fn valid_artifact_json() -> &'static [String; 2] {
    static JSON: OnceLock<[String; 2]> = OnceLock::new();
    JSON.get_or_init(|| {
        let daemon = Daemon::new(config());
        let mut req = Request::targeted("register", &wire_key());
        req.artifact = Some(artifact().clone());
        assert!(daemon.handle_request(req).is_ok());
        [
            to_json(artifact()).unwrap(),
            to_json(&daemon.snapshot()).unwrap(),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn handle_line_answers_arbitrary_and_bit_flipped_lines(
        bytes in prop::collection::vec(0u8..=255, 0..160),
        flips in prop::collection::vec(0usize..1 << 16, 1..4),
        which in 0usize..7,
    ) {
        let daemon = wire_daemon();
        let mut flipped = valid_lines()[which].clone().into_bytes();
        flip_bits(&mut flipped, &flips);
        for line in [bytes, flipped] {
            let answer = daemon.handle_line(&String::from_utf8_lossy(&line));
            let resp: Response = serde_json::from_str(&answer).unwrap();
            prop_assert!(["ok", "shed", "error"].contains(&resp.status.as_str()), "{}", answer);
        }
    }

    #[test]
    fn scan_journal_classifies_arbitrary_and_bit_flipped_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..256),
        flips in prop::collection::vec(0usize..1 << 16, 1..4),
        cut in 0usize..4096,
    ) {
        let mut flipped = valid_journal();
        flip_bits(&mut flipped, &flips);
        flipped.truncate(cut.max(1));
        for input in [bytes, flipped] {
            let scan = scan_journal(&input);
            prop_assert!(scan.valid_len <= input.len());
            prop_assert!(scan.defect.is_some() || scan.valid_len == input.len());
            // Recovery truncates to the valid prefix; rescanning it must
            // find the same records and no defect.
            let prefix = scan_journal(&input[..scan.valid_len]);
            prop_assert!(prefix.defect.is_none());
            prop_assert_eq!(prefix.records.len(), scan.records.len());
        }
    }

    #[test]
    fn unwrap_envelope_rejects_arbitrary_and_bit_flipped_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..128),
        payload in prop::collection::vec(0u8..=255, 0..128),
        flips in prop::collection::vec(0usize..1 << 16, 1..4),
    ) {
        let _ = unwrap_envelope(&bytes);
        let wrapped = wrap_envelope(&payload);
        prop_assert_eq!(unwrap_envelope(&wrapped).unwrap(), &payload[..]);
        let mut flipped = wrapped;
        flip_bits(&mut flipped, &flips);
        let _ = unwrap_envelope(&flipped);
    }

    #[test]
    fn load_json_types_arbitrary_and_bit_flipped_artifact_files(
        bytes in prop::collection::vec(0u8..=255, 0..256),
        flips in prop::collection::vec(0usize..1 << 24, 1..4),
        which in 0usize..2,
    ) {
        let dir = std::env::temp_dir().join(format!("lvpd-load-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        let json = valid_artifact_json()[which].as_bytes();
        // A flipped envelope exercises the integrity frame; flipped bare
        // JSON (the legacy unframed format) reaches the deserializer.
        let mut enveloped = wrap_envelope(json);
        flip_bits(&mut enveloped, &flips);
        let mut bare = json.to_vec();
        flip_bits(&mut bare, &flips);
        for input in [bytes, enveloped, bare] {
            std::fs::write(&path, &input).unwrap();
            let _ = load_json::<ServingArtifact>(&path);
            let _ = load_json::<RegistrySnapshot>(&path);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
