//! The daemon state machine: a registry of deployed monitors plus
//! per-tenant admission control, independent of any transport.
//!
//! [`Daemon::handle_line`] maps one request line to one response line, so
//! the whole protocol is testable without a socket; the TCP listener in
//! [`crate::net`] is a thin framing layer over it.
//!
//! ## Admission control
//!
//! Streaming chunks are the unbounded input: a tenant can open windows on
//! every deployment and feed them forever without calling `finish`. Each
//! tenant therefore gets a bounded in-flight budget — the total number of
//! chunks sitting in the tenant's unfinished windows. A chunk that would
//! exceed the budget is *shed*, 429-style: the response carries a
//! deterministic retry-after hint (exponential in the tenant's consecutive
//! overflows, jittered like the [`lvp_models::ResilientModel`] backoff),
//! and the target window is poisoned so its eventual `finish` reports a
//! degraded batch — shed load degrades monitor state, it never silently
//! disappears from it. Sustained overflow trips a per-tenant
//! [`CircuitBreaker`] (the resilience layer's breaker, under the daemon's
//! [`BreakerConfig`]): while open, every observe from the tenant is shed
//! immediately with the remaining cooldown as the retry-after, and each
//! shed full batch is recorded as a degraded report. Cooldowns run on a
//! [`VirtualClock`] advanced a fixed tick per request, so breaker behavior
//! is a pure function of the request sequence.

use crate::journal::{scan_journal, FsyncPolicy, Journal, JournalFaultPlan, JournalOp};
use crate::protocol::{DeploymentEntry, MonitorKey, RegistrySnapshot, Request, Response};
use lvp_core::{
    feature_dimensionality, load_json, save_json, BatchMonitor, BatchReport, ServingArtifact,
    ARTIFACT_VERSION,
};
use lvp_linalg::DenseMatrix;
use lvp_models::{
    jittered_backoff_nanos, mix64, validate_probability_matrix, BlackBoxModel, BreakerConfig,
    CircuitBreaker, CircuitState, ModelError, VirtualClock,
};
use lvp_telemetry::{Counter, Histogram, Registry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Stand-in for the black box model of a registered deployment. The model
/// itself serves in the tenant's own infrastructure; the daemon only ever
/// receives its *outputs* (or score estimates), so the monitor's model
/// handle exists purely to satisfy the predictor's class-count contract.
struct DetachedModel {
    n_classes: usize,
    label: String,
}

impl BlackBoxModel for DetachedModel {
    fn predict_proba(&self, _data: &lvp_dataframe::DataFrame) -> DenseMatrix {
        // Unreachable through the daemon: every observe path feeds
        // pre-computed outputs or estimates. Fail loudly if a future code
        // path tries to score raw frames against a detached handle.
        panic!(
            "detached model '{}' cannot predict; submit model outputs instead",
            self.label
        )
    }

    fn try_predict_proba(
        &self,
        _data: &lvp_dataframe::DataFrame,
    ) -> Result<DenseMatrix, ModelError> {
        Err(ModelError::invalid_input(format!(
            "detached model '{}' cannot predict; submit model outputs instead",
            self.label
        )))
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn name(&self) -> &str {
        "detached"
    }
}

/// Admission-control and retention knobs of a [`Daemon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Per-tenant budget of in-flight chunks (chunks folded into windows
    /// not yet closed by `finish`); the next chunk beyond it is shed.
    pub queue_capacity: u64,
    /// Per-tenant circuit breaker tripped by consecutive overflows.
    pub breaker: BreakerConfig,
    /// Virtual nanoseconds the clock advances per handled request; breaker
    /// cooldowns are measured in these ticks, so behavior is a pure
    /// function of the request sequence.
    pub clock_tick_nanos: u64,
    /// Base of the exponential retry-after hint on overflow sheds.
    pub base_retry_nanos: u64,
    /// Cap on the un-jittered exponential retry-after.
    pub max_retry_nanos: u64,
    /// Seed of the deterministic retry-after jitter.
    pub jitter_seed: u64,
    /// Report-history bound applied to every registered monitor (`None`
    /// retains everything; daemons should bound it).
    pub history_limit: Option<usize>,
    /// Upper bound on one request line in bytes; longer lines are
    /// discarded unread and answered with a typed error instead of
    /// buffering without limit.
    pub max_request_bytes: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            breaker: BreakerConfig::default(),
            clock_tick_nanos: 1_000_000, // 1 virtual ms per request
            base_retry_nanos: 10_000_000,
            max_retry_nanos: 1_000_000_000,
            jitter_seed: 0x1_5EED_D0E5,
            history_limit: Some(256),
            max_request_bytes: 16 << 20, // 16 MiB
        }
    }
}

/// Durability wiring of a [`Daemon`]: where its recovery snapshot and
/// write-ahead journal live, and how eagerly the journal fsyncs. All
/// fields are optional — an empty config is a purely in-memory daemon.
#[derive(Debug, Clone, Default)]
pub struct DurabilityConfig {
    /// The recovery snapshot: loaded by [`Daemon::recover`], compacted to
    /// by `save` requests targeting this path, and written on shutdown.
    pub snapshot_path: Option<PathBuf>,
    /// The write-ahead journal: every accepted mutation is appended here
    /// *before* it is applied.
    pub journal_path: Option<PathBuf>,
    /// The journal's fsync policy.
    pub fsync: FsyncPolicy,
}

impl DurabilityConfig {
    /// The conventional layout inside a state directory:
    /// `<dir>/registry.json` + `<dir>/observe.journal`.
    pub fn in_dir(dir: impl AsRef<Path>) -> Self {
        let dir = dir.as_ref();
        Self {
            snapshot_path: Some(dir.join("registry.json")),
            journal_path: Some(dir.join("observe.journal")),
            fsync: FsyncPolicy::default(),
        }
    }

    /// Same layout with an explicit fsync policy.
    pub fn in_dir_with_fsync(dir: impl AsRef<Path>, fsync: FsyncPolicy) -> Self {
        Self {
            fsync,
            ..Self::in_dir(dir)
        }
    }
}

/// What [`Daemon::recover`] found and did. Every count is also surfaced
/// as a `journal.*` telemetry counter on the recovered daemon.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a registry snapshot file existed and was loaded.
    pub snapshot_loaded: bool,
    /// Deployments restored from the snapshot.
    pub snapshot_deployments: usize,
    /// Bytes found in the journal file.
    pub journal_bytes: u64,
    /// Records replayed over the snapshot (current epoch).
    pub records_replayed: usize,
    /// Records skipped as stale — an older epoch already folded into the
    /// snapshot by a compaction the crash interrupted after the snapshot
    /// write.
    pub records_stale: usize,
    /// Records skipped as future — a *newer* epoch than the snapshot,
    /// meaning the snapshot is not this journal's recovery source (e.g. a
    /// standalone export). Nothing is guessed: the records are skipped
    /// and counted, never misapplied.
    pub records_future: usize,
    /// Replayed records whose application errored — by construction the
    /// same error the live daemon answered, so these are reproduced
    /// no-ops, not divergence.
    pub replay_op_errors: usize,
    /// Bytes of damaged tail truncated off the journal.
    pub truncated_tail_bytes: u64,
    /// Human-readable classification of the tail defect, if any.
    pub tail_defect: Option<String>,
}

impl RecoveryReport {
    /// One-line operator summary (printed by `lvpd` at startup).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "recovered {} deployments from snapshot={} journal={}B: {} replayed, {} stale, {} future, {} op errors",
            self.snapshot_deployments,
            if self.snapshot_loaded { "yes" } else { "no" },
            self.journal_bytes,
            self.records_replayed,
            self.records_stale,
            self.records_future,
            self.replay_op_errors,
        );
        if let Some(defect) = &self.tail_defect {
            s.push_str(&format!(
                "; truncated {}B damaged tail ({defect})",
                self.truncated_tail_bytes
            ));
        }
        s
    }
}

/// Per-tenant admission gate: circuit breaker plus overflow bookkeeping.
/// The in-flight chunk count is *not* stored here — it is derived from the
/// open windows of the tenant's monitors, so it survives a registry
/// save/restore cycle with no extra state.
#[derive(Debug, Clone, Default)]
struct TenantGate {
    breaker: CircuitBreaker,
    sheds: u64,
}

#[derive(Default)]
struct Inner {
    deployments: BTreeMap<MonitorKey, BatchMonitor>,
    tenants: BTreeMap<String, TenantGate>,
    /// The write-ahead journal, when durability is configured. Living
    /// under the state mutex guarantees append order == application
    /// order, which is what makes replay bit-identical.
    journal: Option<Journal>,
}

/// How the response to an admitted op is built once it is applied.
enum Answer {
    /// `register`: names the installed deployment.
    Registered,
    /// An accepted observe — a success signal for the tenant's breaker.
    Observed,
    /// `finish`: publishes the tenant's gate even when no window was open.
    Finished,
    /// Admission control shed the request; the op is the shed's effect.
    Shed {
        retry_after_nanos: u64,
        reason: String,
    },
}

/// What applying one op produced, for the response.
struct Applied {
    report: Option<BatchReport>,
    batches_seen: usize,
}

impl Applied {
    fn into_response(self) -> Response {
        let mut r = Response::ok();
        r.report = self.report;
        r.batches_seen = Some(self.batches_seen);
        r
    }
}

/// An error response, boxed for the admission `Result`s.
fn reject(message: impl Into<String>) -> Box<Response> {
    Box::new(Response::error(message))
}

/// Daemon-level request counters (all deterministic in the request
/// sequence, except the volatile fsync latency histogram).
struct ServerMetrics {
    /// `server.requests` — lines handled.
    requests: Counter,
    /// `server.registrations` — deployments (re)installed.
    registrations: Counter,
    /// `server.shed_requests` — observes rejected by admission control.
    shed: Counter,
    /// `server.error_responses` — lines answered with an error status.
    errors: Counter,
    /// `server.oversized_requests` — request lines discarded for
    /// exceeding [`DaemonConfig::max_request_bytes`].
    oversized: Counter,
    /// `journal.appends` — records appended to the write-ahead journal.
    journal_appends: Counter,
    /// `journal.append_failures` — appends that failed (the request was
    /// rejected without being applied).
    journal_append_failures: Counter,
    /// `journal.compactions` — snapshot saves that truncated the journal.
    journal_compactions: Counter,
    /// `journal.records_replayed` — records applied during recovery.
    journal_replayed: Counter,
    /// `journal.replay_op_errors` — replayed records that reproduced the
    /// live request's error (no-ops, counted for visibility).
    journal_replay_errors: Counter,
    /// `journal.stale_records_skipped` — pre-compaction records skipped
    /// during recovery.
    journal_stale_skipped: Counter,
    /// `journal.future_records_skipped` — records newer than the snapshot
    /// epoch, skipped rather than misapplied.
    journal_future_skipped: Counter,
    /// `journal.tail_defects` — damaged journal tails found at recovery.
    journal_tail_defects: Counter,
    /// `journal.tail_truncated_bytes` — damaged bytes truncated away.
    journal_tail_truncated: Counter,
    /// `journal.fsync_latency` — wall-clock fsync durations (volatile:
    /// both values and count depend on the fsync policy and hardware).
    fsync_latency: Histogram,
}

/// The lvpd daemon: a registry of deployed monitors keyed by
/// `(tenant, model, version)` with per-tenant admission control, exposed
/// as a pure line-in/line-out request handler.
pub struct Daemon {
    inner: Mutex<Inner>,
    registry: Registry,
    metrics: ServerMetrics,
    clock: VirtualClock,
    config: DaemonConfig,
    durability: DurabilityConfig,
    shutdown: AtomicBool,
}

/// FNV-style hash of a tenant name, for per-tenant jitter derivation.
/// Its multiplier `0x1000001b3` is not the FNV-1a 64 prime; changing it
/// would move every tenant's retry-after jitter.
fn tenant_hash(tenant: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

impl Daemon {
    /// An empty daemon.
    pub fn new(config: DaemonConfig) -> Self {
        let registry = Registry::new();
        let metrics = ServerMetrics {
            requests: registry.counter("server.requests"),
            registrations: registry.counter("server.registrations"),
            shed: registry.counter("server.shed_requests"),
            errors: registry.counter("server.error_responses"),
            oversized: registry.counter("server.oversized_requests"),
            journal_appends: registry.counter("journal.appends"),
            journal_append_failures: registry.counter("journal.append_failures"),
            journal_compactions: registry.counter("journal.compactions"),
            journal_replayed: registry.counter("journal.records_replayed"),
            journal_replay_errors: registry.counter("journal.replay_op_errors"),
            journal_stale_skipped: registry.counter("journal.stale_records_skipped"),
            journal_future_skipped: registry.counter("journal.future_records_skipped"),
            journal_tail_defects: registry.counter("journal.tail_defects"),
            journal_tail_truncated: registry.counter("journal.tail_truncated_bytes"),
            fsync_latency: registry.volatile_histogram("journal.fsync_latency"),
        };
        Self {
            inner: Mutex::new(Inner::default()),
            registry,
            metrics,
            clock: VirtualClock::new(),
            config,
            durability: DurabilityConfig::default(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// A daemon whose registry is restored from a [`RegistrySnapshot`]
    /// file previously written by the `save` verb. Monitor state — open
    /// streaming windows included — carries over bit-identically. This is
    /// the *standalone* restore path: no journal is attached and any
    /// `journal_epoch` in the file is ignored; use [`Self::recover`] for
    /// the full snapshot + journal-replay startup.
    pub fn with_state_file(config: DaemonConfig, path: impl AsRef<Path>) -> Result<Self, String> {
        let daemon = Self::new(config);
        daemon.load_snapshot(path.as_ref())?;
        Ok(daemon)
    }

    /// The one snapshot loader behind [`Self::with_state_file`] and
    /// [`Self::recover`]: checks the file's version and installs every
    /// deployment. Returns the snapshot's journal epoch.
    fn load_snapshot(&self, path: &Path) -> Result<Option<u64>, String> {
        let snapshot: RegistrySnapshot = load_json(path).map_err(|e| e.to_string())?;
        if snapshot.version == 0 || snapshot.version > ARTIFACT_VERSION {
            return Err(format!(
                "unsupported registry snapshot version {} (supported: 1..={ARTIFACT_VERSION})",
                snapshot.version
            ));
        }
        let mut inner = self.lock_inner();
        for entry in snapshot.deployments {
            self.install(&mut inner, entry.key, entry.artifact)?;
        }
        Ok(snapshot.journal_epoch)
    }

    /// Crash-recovering startup: loads the last registry snapshot (if the
    /// configured file exists), replays the write-ahead journal tail over
    /// it, truncates any damaged tail to the last durable record, and
    /// leaves the journal open for appending. Replay runs every record
    /// through the same `apply_op` that live requests use, so the
    /// recovered registry is bit-identical to the pre-crash one up to the
    /// last durable journal record.
    ///
    /// Defects are never fatal: a torn or bit-flipped tail is classified
    /// and truncated ([`RecoveryReport::tail_defect`], `journal.tail_*`
    /// counters), stale/future-epoch records are skipped and counted.
    /// Only unreadable files (I/O or a corrupt snapshot envelope) error.
    pub fn recover(
        config: DaemonConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), String> {
        let mut daemon = Self::new(config);
        daemon.durability = durability.clone();
        let mut report = RecoveryReport::default();
        let mut epoch = 0u64;

        if let Some(path) = durability.snapshot_path.as_deref().filter(|p| p.exists()) {
            epoch = daemon
                .load_snapshot(path)
                .map_err(|e| format!("recover registry snapshot: {e}"))?
                .unwrap_or(0);
            report.snapshot_loaded = true;
            report.snapshot_deployments = daemon.lock_inner().deployments.len();
        }

        if let Some(jpath) = durability.journal_path.as_deref() {
            if jpath.exists() {
                let bytes = std::fs::read(jpath)
                    .map_err(|e| format!("read journal {}: {e}", jpath.display()))?;
                report.journal_bytes = bytes.len() as u64;
                let scan = scan_journal(&bytes);
                {
                    let mut inner = daemon.lock_inner();
                    let inner = &mut *inner;
                    for record in scan.records {
                        match record.epoch.cmp(&epoch) {
                            std::cmp::Ordering::Less => report.records_stale += 1,
                            std::cmp::Ordering::Greater => report.records_future += 1,
                            std::cmp::Ordering::Equal => {
                                report.records_replayed += 1;
                                if daemon.apply_op(inner, record.op).is_err() {
                                    // The live daemon answered this exact
                                    // request with an error and applied
                                    // nothing; the replay just reproduced
                                    // that no-op.
                                    report.replay_op_errors += 1;
                                }
                            }
                        }
                    }
                }
                if let Some(defect) = scan.defect {
                    report.truncated_tail_bytes = (bytes.len() - scan.valid_len) as u64;
                    report.tail_defect = Some(defect.to_string());
                    let file = std::fs::OpenOptions::new()
                        .write(true)
                        .open(jpath)
                        .map_err(|e| format!("open journal for repair: {e}"))?;
                    file.set_len(scan.valid_len as u64)
                        .map_err(|e| format!("truncate damaged journal tail: {e}"))?;
                    file.sync_all()
                        .map_err(|e| format!("sync repaired journal: {e}"))?;
                }
            }
            let journal = Journal::open(jpath, durability.fsync, epoch)
                .map_err(|e| format!("open journal {}: {e}", jpath.display()))?;
            daemon.lock_inner().journal = Some(journal);
        }

        let m = &daemon.metrics;
        m.journal_replayed.add(report.records_replayed as u64);
        m.journal_replay_errors.add(report.replay_op_errors as u64);
        m.journal_stale_skipped.add(report.records_stale as u64);
        m.journal_future_skipped.add(report.records_future as u64);
        if report.tail_defect.is_some() {
            m.journal_tail_defects.inc();
            m.journal_tail_truncated.add(report.truncated_tail_bytes);
        }
        Ok((daemon, report))
    }

    /// The daemon's metrics registry (scraped by the `metrics` verb).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The daemon's admission/retention configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// The journal's current compaction epoch (`None` without a journal).
    pub fn journal_epoch(&self) -> Option<u64> {
        self.lock_inner().journal.as_ref().map(Journal::epoch)
    }

    /// Wraps the live journal sink in a seeded fault injector — test and
    /// chaos-example plumbing; a no-op without a journal.
    pub fn inject_journal_faults(&self, plan: JournalFaultPlan) {
        if let Some(journal) = self.lock_inner().journal.as_mut() {
            journal.wrap_sink(|sink| Box::new(crate::journal::FaultFile::new(sink, plan)));
        }
    }

    /// The virtual clock admission cooldowns run on.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The tenant's current admission circuit state (`Closed` for tenants
    /// the daemon has never seen).
    pub fn tenant_circuit(&self, tenant: &str) -> CircuitState {
        Self::circuit_locked(&self.lock_inner(), tenant)
    }

    fn circuit_locked(inner: &Inner, tenant: &str) -> CircuitState {
        inner
            .tenants
            .get(tenant)
            .map(|gate| gate.breaker.state())
            .unwrap_or_default()
    }

    /// Whether a `shutdown` request has been received.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown (also reachable through the `shutdown` verb).
    ///
    /// The first call flushes durable state: with a configured snapshot
    /// path the registry is saved there (compacting the journal); with
    /// only a journal configured, the journal is fsynced so every
    /// acknowledged mutation survives. Failures are reported on stderr —
    /// shutdown proceeds regardless, and the journal still holds whatever
    /// was durable before the failure.
    pub fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(path) = self.durability.snapshot_path.clone() {
            if let Err(e) = self.save_to(&path) {
                eprintln!("lvpd: shutdown save failed: {e}");
            }
        } else if let Some(journal) = self.lock_inner().journal.as_mut() {
            if let Err(e) = journal.flush() {
                eprintln!("lvpd: shutdown journal flush failed: {e}");
            }
        }
    }

    /// State access, recovering a poisoned lock: every mutation is a
    /// single monitor/gate method call, so a panicking handler thread
    /// leaves valid state behind and must not brick the daemon (mirroring
    /// the telemetry registry's poisoning policy).
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Handles one request line, returning the response line (without the
    /// trailing newline). Never panics on malformed input — parse and
    /// validation failures come back as `status: "error"` responses.
    pub fn handle_line(&self, line: &str) -> String {
        let response = match serde_json::from_str::<Request>(line) {
            Ok(request) => self.handle_request(request),
            Err(e) => {
                self.clock.advance(self.config.clock_tick_nanos);
                self.metrics.requests.inc();
                self.metrics.errors.inc();
                Response::error(format!("malformed request: {e}"))
            }
        };
        serde_json::to_string(&response)
            .unwrap_or_else(|e| format!("{{\"status\":\"error\",\"message\":\"encode: {e}\"}}"))
    }

    /// The response line for a request whose raw bytes exceeded
    /// [`DaemonConfig::max_request_bytes`]. The transport calls this
    /// *instead of* [`Self::handle_line`] — the oversized line was never
    /// fully buffered, so there is nothing to parse — and the rejection
    /// still ticks the clock and the request/error counters like any
    /// other handled request.
    pub fn reject_oversized(&self) -> String {
        self.clock.advance(self.config.clock_tick_nanos);
        self.metrics.requests.inc();
        self.metrics.errors.inc();
        self.metrics.oversized.inc();
        let response = Response::error(format!(
            "request line exceeds max_request_bytes ({}); raise the cap or split the batch",
            self.config.max_request_bytes
        ));
        serde_json::to_string(&response)
            .unwrap_or_else(|e| format!("{{\"status\":\"error\",\"message\":\"encode: {e}\"}}"))
    }

    /// Typed entry point behind [`Self::handle_line`] (useful for
    /// embedding the daemon without a socket). Advances the virtual clock
    /// one tick, so admission timing is a pure function of the request
    /// sequence.
    pub fn handle_request(&self, request: Request) -> Response {
        self.clock.advance(self.config.clock_tick_nanos);
        self.metrics.requests.inc();
        let response = self.dispatch(request);
        if response.status == "error" {
            self.metrics.errors.inc();
        }
        response
    }

    fn dispatch(&self, request: Request) -> Response {
        match request.verb.as_str() {
            "register" | "observe" | "finish" => self.mutate(request),
            "history" => self.history(request),
            "metrics" => self.metrics(),
            "list" => self.list(),
            "save" => self.save(request),
            "shutdown" => {
                self.request_shutdown();
                let mut r = Response::ok();
                r.message = Some("shutting down".to_string());
                r
            }
            other => Response::error(format!("unknown verb '{other}'")),
        }
    }

    /// The single mutation path. Admission turns the request into exactly
    /// one [`JournalOp`]; the op is appended to the write-ahead journal and
    /// then applied by the same [`Self::apply_op`] that recovery replays,
    /// so live and replayed state agree by construction.
    fn mutate(&self, request: Request) -> Response {
        let key = match Self::require_key(&request) {
            Ok(key) => key,
            Err(resp) => return *resp,
        };
        let now = self.clock.now_nanos();
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        let (op, answer) = match self.admit(inner, &key, request, now) {
            Ok(admitted) => admitted,
            Err(resp) => return *resp,
        };
        if let Err(resp) = self.journal_append(inner, &op) {
            return *resp;
        }
        let applied = self.apply_op(inner, op);
        match (answer, applied) {
            (
                Answer::Shed {
                    retry_after_nanos,
                    reason,
                },
                Ok(applied),
            ) => {
                let mut resp = Response::shed(retry_after_nanos, reason);
                resp.report = applied.report;
                self.note_shed(&key.tenant);
                resp.pending_chunks = Some(self.publish_gate(inner, &key.tenant));
                resp
            }
            (Answer::Finished, applied) => {
                let pending = self.publish_gate(inner, &key.tenant);
                applied.map_or_else(Response::error, |applied| {
                    let mut r = applied.into_response();
                    r.pending_chunks = Some(pending);
                    r
                })
            }
            (_, Err(message)) => Response::error(message),
            (Answer::Registered, Ok(applied)) => {
                let mut r = applied.into_response();
                r.message = Some(format!("registered {key}"));
                r
            }
            (Answer::Observed, Ok(applied)) => {
                self.note_accepted(inner, &key.tenant);
                let mut r = applied.into_response();
                r.pending_chunks = Some(self.publish_gate(inner, &key.tenant));
                r
            }
        }
    }

    /// Admission: checks a mutating request and turns it into the one
    /// [`JournalOp`] describing its effect, moving the request's payload
    /// into the op. A shed becomes its effect ([`Self::shed`]) with the
    /// literal reason, so replay needs no gate state. Rejections journal
    /// nothing and mutate no monitor; the tenant gate's breaker
    /// bookkeeping is live-only and happens here.
    fn admit(
        &self,
        inner: &mut Inner,
        key: &MonitorKey,
        request: Request,
        now: u64,
    ) -> Result<(JournalOp, Answer), Box<Response>> {
        if request.verb == "register" {
            let artifact = request
                .artifact
                .ok_or_else(|| reject("register requires an artifact"))?;
            let key = key.clone();
            return Ok((JournalOp::Register { key, artifact }, Answer::Registered));
        }
        let n_classes = inner
            .deployments
            .get(key)
            .ok_or_else(|| reject(format!("unknown deployment {key}")))?
            .predictor()
            .n_classes();
        if request.verb == "finish" {
            // Journaled even when no window is open: the apply error is a
            // no-op on monitor state, and replay reproduces it.
            return Ok((JournalOp::Finish { key: key.clone() }, Answer::Finished));
        }
        let mode_count = usize::from(request.outputs.is_some())
            + usize::from(request.chunk.is_some())
            + usize::from(request.estimate.is_some())
            + usize::from(request.interval.is_some());
        if mode_count != 1 {
            return Err(reject(
                "observe requires exactly one of outputs, chunk, estimate or interval",
            ));
        }

        // Breaker check first: an open breaker sheds every observe form.
        let gate = inner.tenants.entry(key.tenant.clone()).or_default();
        if let Err(retry) = gate.breaker.admit(&self.config.breaker, now) {
            gate.sheds += 1;
            let reason = format!(
                "tenant '{}' circuit open: observe shed, retry in {retry} virtual ns",
                key.tenant
            );
            let chunk = request.chunk.is_some();
            return Ok(Self::shed(key, chunk, retry, reason));
        }

        let key = key.clone();
        let op = if let Some(rows) = request.outputs {
            Self::check_outputs(&rows, "outputs")?;
            JournalOp::ObserveOutputs { key, rows }
        } else if let Some(rows) = request.chunk {
            if let Some(shed) = self.admit_overflow(inner, &key, now) {
                return Ok(shed);
            }
            let proba = Self::check_outputs(&rows, "chunk")?;
            if proba.rows() > 0 && proba.cols() != n_classes {
                return Err(reject(format!(
                    "chunk has {} columns but {key} serves {n_classes} classes",
                    proba.cols(),
                )));
            }
            JournalOp::ObserveChunk { key, rows }
        } else if let Some(interval) = request.interval {
            // The monitor validates external intervals before they touch
            // any alarm state: a malformed one is journaled, errors without
            // consuming a batch index, and replays into the same no-op.
            JournalOp::ObserveInterval { key, interval }
        } else {
            let estimate = request.estimate.expect("mode checked above");
            JournalOp::ObserveEstimate { key, estimate }
        };
        Ok((op, Answer::Observed))
    }

    /// The overflow shed: a chunk beyond the tenant's in-flight budget
    /// counts against the breaker and becomes an `AbandonWindow` of the
    /// window it belonged to. `None` while the tenant is within budget.
    fn admit_overflow(
        &self,
        inner: &mut Inner,
        key: &MonitorKey,
        now: u64,
    ) -> Option<(JournalOp, Answer)> {
        let pending = Self::tenant_pending(inner, &key.tenant);
        if pending < self.config.queue_capacity {
            return None;
        }
        let gate = inner.tenants.entry(key.tenant.clone()).or_default();
        gate.sheds += 1;
        gate.breaker.on_failure(&self.config.breaker, now);
        let retry = self.retry_after(&key.tenant, gate.breaker.consecutive_failures(), gate.sheds);
        let reason = format!(
            "tenant '{}' over its in-flight chunk budget ({pending}/{}): chunk shed",
            key.tenant, self.config.queue_capacity
        );
        Some(Self::shed(key, true, retry, reason))
    }

    /// A shed as the op recording its effect: a shed chunk poisons its
    /// window (degrade, never drop: the window must not finish as if it
    /// saw every chunk), any other shed observe is a degraded batch.
    fn shed(key: &MonitorKey, chunk: bool, retry: u64, reason: String) -> (JournalOp, Answer) {
        let (key, effect) = (key.clone(), reason.clone());
        let op = if chunk {
            JournalOp::AbandonWindow {
                key,
                reason: effect,
            }
        } else {
            JournalOp::ObserveDegraded {
                key,
                reason: effect,
            }
        };
        let answer = Answer::Shed {
            retry_after_nanos: retry,
            reason,
        };
        (op, answer)
    }

    /// Pre-append check of submitted model output rows: they must form a
    /// matrix and, when non-empty, satisfy the probability contract of
    /// [`validate_probability_matrix`]. A failing batch is answered with an
    /// error and never reaches the journal or the monitor.
    fn check_outputs(rows: &[Vec<f64>], what: &str) -> Result<DenseMatrix, Box<Response>> {
        let proba = DenseMatrix::from_rows(rows).map_err(|e| reject(format!("bad {what}: {e}")))?;
        if proba.rows() > 0 {
            validate_probability_matrix(&proba, proba.rows(), proba.cols())
                .map_err(|e| reject(format!("bad {what}: {e}")))?;
        }
        Ok(proba)
    }

    /// Appends `op` to the write-ahead journal (a no-op without one).
    /// Called *before* the op is applied; on failure the caller returns
    /// the error response and applies nothing, preserving the invariant
    /// that replaying the journal reproduces exactly the mutations the
    /// daemon acknowledged.
    fn journal_append(&self, inner: &mut Inner, op: &JournalOp) -> Result<(), Box<Response>> {
        let Some(journal) = inner.journal.as_mut() else {
            return Ok(());
        };
        match journal.append(op) {
            Ok(sync_nanos) => {
                self.metrics.journal_appends.inc();
                if let Some(nanos) = sync_nanos {
                    self.metrics.fsync_latency.record_nanos(nanos);
                }
                Ok(())
            }
            Err(e) => {
                self.metrics.journal_append_failures.inc();
                Err(reject(format!(
                    "write-ahead journal append failed; request not applied: {e}"
                )))
            }
        }
    }

    fn monitor_mut<'a>(
        inner: &'a mut Inner,
        key: &MonitorKey,
    ) -> Result<&'a mut BatchMonitor, String> {
        inner
            .deployments
            .get_mut(key)
            .ok_or_else(|| format!("unknown deployment {key}"))
    }

    /// Applies one admitted op — the only place monitor state mutates,
    /// shared by live requests (after the journal append) and recovery
    /// (replaying the journal). The outcome is a pure function of the
    /// registry state and the op, so replaying an op reproduces its live
    /// outcome, errors included.
    fn apply_op(&self, inner: &mut Inner, op: JournalOp) -> Result<Applied, String> {
        let (monitor, report) = match op {
            JournalOp::Register { key, artifact } => {
                let batches_seen = self.install(inner, key, artifact)?;
                return Ok(Applied {
                    report: None,
                    batches_seen,
                });
            }
            JournalOp::ObserveOutputs { key, rows } => {
                let monitor = Self::monitor_mut(inner, &key)?;
                let proba =
                    DenseMatrix::from_rows(&rows).map_err(|e| format!("bad outputs: {e}"))?;
                let report = monitor.observe_outputs(&proba).map_err(|e| e.to_string())?;
                (monitor, Some(report))
            }
            JournalOp::ObserveChunk { key, rows } => {
                let monitor = Self::monitor_mut(inner, &key)?;
                let proba = DenseMatrix::from_rows(&rows).map_err(|e| format!("bad chunk: {e}"))?;
                monitor
                    .observe_output_chunk(&proba)
                    .map_err(|e| e.to_string())?;
                (monitor, None)
            }
            JournalOp::ObserveEstimate { key, estimate } => {
                let monitor = Self::monitor_mut(inner, &key)?;
                let report = monitor.observe_estimate(estimate);
                (monitor, Some(report))
            }
            JournalOp::ObserveInterval { key, interval } => {
                let monitor = Self::monitor_mut(inner, &key)?;
                let report = monitor
                    .observe_interval(interval)
                    .map_err(|e| e.to_string())?;
                (monitor, Some(report))
            }
            JournalOp::Finish { key } => {
                let monitor = Self::monitor_mut(inner, &key)?;
                let report = monitor.finish_window().map_err(|e| e.to_string())?;
                (monitor, Some(report))
            }
            JournalOp::AbandonWindow { key, reason } => {
                let monitor = Self::monitor_mut(inner, &key)?;
                monitor.abandon_window(reason);
                (monitor, None)
            }
            JournalOp::ObserveDegraded { key, reason } => {
                let monitor = Self::monitor_mut(inner, &key)?;
                let report = monitor.observe_degraded(reason);
                (monitor, Some(report))
            }
        };
        Ok(Applied {
            report,
            batches_seen: monitor.batches_seen(),
        })
    }

    fn require_key(request: &Request) -> Result<MonitorKey, Box<Response>> {
        match (&request.tenant, &request.model, &request.version) {
            (Some(tenant), Some(model), Some(version)) => Ok(MonitorKey {
                tenant: tenant.clone(),
                model: model.clone(),
                version: version.clone(),
            }),
            _ => Err(reject(
                "tenant, model and version are all required for this verb",
            )),
        }
    }

    /// Installs (or replaces) a deployment, attaching per-tenant telemetry
    /// and the configured history bound.
    fn install(
        &self,
        inner: &mut Inner,
        key: MonitorKey,
        artifact: ServingArtifact,
    ) -> Result<usize, String> {
        let n_classes = artifact
            .predictor
            .n_classes
            .unwrap_or(artifact.predictor.n_feature_dims / feature_dimensionality(1));
        if n_classes == 0 {
            return Err(format!("register {key}: artifact declares zero classes"));
        }
        let model: Arc<dyn BlackBoxModel> = Arc::new(DetachedModel {
            n_classes,
            label: key.to_string(),
        });
        let mut monitor = artifact
            .into_monitor(model)
            .map_err(|e| format!("register {key}: {e}"))?;
        monitor.set_history_limit(self.config.history_limit);
        monitor.attach_telemetry_prefixed(&self.registry, &key.metric_prefix());
        let batches_seen = monitor.batches_seen();
        inner.tenants.entry(key.tenant.clone()).or_default();
        inner.deployments.insert(key, monitor);
        self.metrics.registrations.inc();
        Ok(batches_seen)
    }

    /// Total in-flight chunks of a tenant: the chunk counts of every open
    /// window across the tenant's deployments. Derived from monitor state
    /// so it is exact after any save/restore cycle.
    fn tenant_pending(inner: &Inner, tenant: &str) -> u64 {
        inner
            .deployments
            .iter()
            .filter(|(key, _)| key.tenant == tenant)
            .filter_map(|(_, monitor)| monitor.window())
            .map(|window| window.chunks())
            .sum()
    }

    /// Deterministic retry-after for the `n`-th consecutive overflow:
    /// exponential in `n`, capped, with jitter in `[0.5, 1.5)` derived
    /// from `(jitter_seed, tenant, total sheds)` exactly like the
    /// resilience layer's backoff jitter.
    fn retry_after(&self, tenant: &str, consecutive: u32, sheds: u64) -> u64 {
        let h = mix64(
            self.config
                .jitter_seed
                .wrapping_add(tenant_hash(tenant))
                .wrapping_add(sheds),
        );
        jittered_backoff_nanos(
            self.config.base_retry_nanos,
            self.config.max_retry_nanos,
            consecutive.saturating_sub(1).min(16),
            h,
        )
    }

    /// Publishes the tenant's breaker-state and queue-depth gauges and
    /// returns its in-flight chunk count.
    fn publish_gate(&self, inner: &Inner, tenant: &str) -> u64 {
        let pending = Self::tenant_pending(inner, tenant);
        self.registry
            .gauge(&format!("tenant.{tenant}.server.breaker_state"))
            .set(Self::circuit_locked(inner, tenant).gauge_value());
        self.registry
            .gauge(&format!("tenant.{tenant}.server.queue_depth"))
            .set(pending as f64);
        pending
    }

    fn note_shed(&self, tenant: &str) {
        self.metrics.shed.inc();
        self.registry
            .counter(&format!("tenant.{tenant}.server.shed_requests"))
            .inc();
    }

    /// An accepted observe is a success signal for the tenant's breaker.
    fn note_accepted(&self, inner: &mut Inner, tenant: &str) {
        if let Some(gate) = inner.tenants.get_mut(tenant) {
            gate.breaker.on_success(&self.config.breaker);
        }
    }

    fn history(&self, request: Request) -> Response {
        let key = match Self::require_key(&request) {
            Ok(key) => key,
            Err(resp) => return *resp,
        };
        let inner = self.lock_inner();
        let Some(monitor) = inner.deployments.get(&key) else {
            return Response::error(format!("unknown deployment {key}"));
        };
        let reports = monitor.history();
        let offset = request.offset.unwrap_or(0);
        let limit = request.limit.unwrap_or(reports.len());
        let mut r = Response::ok();
        r.history = Some(reports.iter().skip(offset).take(limit).cloned().collect());
        r.batches_seen = Some(monitor.batches_seen());
        r
    }

    fn metrics(&self) -> Response {
        let mut r = Response::ok();
        r.metrics = Some(self.registry.snapshot().deterministic());
        r
    }

    fn list(&self) -> Response {
        let inner = self.lock_inner();
        let mut r = Response::ok();
        r.deployments = Some(inner.deployments.keys().cloned().collect());
        r
    }

    /// Snapshot of the registry contents, for embedding and tests. Pure
    /// content — `journal_epoch` is `None`, so two daemons holding the
    /// same monitor state snapshot identically regardless of how many
    /// compactions each has been through.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.lock_inner();
        Self::snapshot_locked(&inner, None)
    }

    fn snapshot_locked(inner: &Inner, journal_epoch: Option<u64>) -> RegistrySnapshot {
        RegistrySnapshot {
            version: ARTIFACT_VERSION,
            journal_epoch,
            deployments: inner
                .deployments
                .iter()
                .map(|(key, monitor)| DeploymentEntry {
                    key: key.clone(),
                    artifact: ServingArtifact::from_monitor(monitor),
                })
                .collect(),
        }
    }

    /// Writes the registry to `path` (enveloped, atomic, durable).
    ///
    /// A save to the *configured* snapshot path additionally compacts the
    /// write-ahead journal: the snapshot records `epoch + 1`, and once it
    /// is durable the journal is truncated and moves to the new epoch. A
    /// crash between those two steps leaves old-epoch records in the
    /// journal that recovery recognizes as stale and skips — the crash
    /// window double-applies nothing. A save to any *other* path is a
    /// plain export (`journal_epoch: None`) that restores standalone via
    /// [`Daemon::with_state_file`] without consuming this daemon's
    /// journal.
    pub fn save_to(&self, path: &Path) -> Result<String, String> {
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        let compacting =
            inner.journal.is_some() && self.durability.snapshot_path.as_deref() == Some(path);
        let journal_epoch = compacting.then(|| {
            inner
                .journal
                .as_ref()
                .expect("compacting implies a journal")
                .next_epoch()
        });
        let snapshot = Self::snapshot_locked(inner, journal_epoch);
        save_json(&snapshot, path).map_err(|e| e.to_string())?;
        if let Some(epoch) = journal_epoch {
            let journal = inner
                .journal
                .as_mut()
                .expect("compacting implies a journal");
            journal.compact_to_epoch(epoch).map_err(|e| {
                format!(
                    "snapshot saved to {} but journal compaction failed: {e}",
                    path.display()
                )
            })?;
            self.metrics.journal_compactions.inc();
        }
        Ok(format!(
            "saved {} deployments to {}{}",
            snapshot.deployments.len(),
            path.display(),
            if compacting {
                " (journal compacted)"
            } else {
                ""
            },
        ))
    }

    fn save(&self, request: Request) -> Response {
        let Some(path) = request.path else {
            return Response::error("save requires a path");
        };
        match self.save_to(Path::new(&path)) {
            Ok(message) => {
                let mut r = Response::ok();
                r.message = Some(message);
                r
            }
            Err(e) => Response::error(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use lvp_core::{MonitorPolicy, PerformancePredictor, PredictorConfig};
    use lvp_corruptions::standard_tabular_suite;
    use lvp_dataframe::toy_frame;
    use lvp_models::{train_model, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn artifact() -> ServingArtifact {
        let df = toy_frame(220);
        let mut rng = StdRng::seed_from_u64(17);
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
    }

    fn key(tenant: &str) -> MonitorKey {
        MonitorKey {
            tenant: tenant.to_string(),
            model: "fraud".to_string(),
            version: "v1".to_string(),
        }
    }

    fn register(daemon: &Daemon, key: &MonitorKey, artifact: ServingArtifact) {
        let mut req = Request::targeted("register", key);
        req.artifact = Some(artifact);
        let resp = daemon.handle_request(req);
        assert!(resp.is_ok(), "register failed: {:?}", resp.message);
    }

    fn chunk_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let p = 0.2 + 0.6 * (i as f64 / n.max(1) as f64);
                vec![p, 1.0 - p]
            })
            .collect()
    }

    #[test]
    fn register_observe_finish_history_round_trip() {
        let daemon = Daemon::new(DaemonConfig::default());
        let k = key("acme");
        register(&daemon, &k, artifact());

        let mut req = Request::targeted("observe", &k);
        req.estimate = Some(0.81);
        let resp = daemon.handle_request(req);
        assert!(resp.is_ok());
        assert_eq!(resp.batches_seen, Some(1));
        assert!(resp.report.unwrap().estimate.is_finite());

        for _ in 0..2 {
            let mut req = Request::targeted("observe", &k);
            req.chunk = Some(chunk_rows(16));
            let resp = daemon.handle_request(req);
            assert!(resp.is_ok(), "chunk rejected: {:?}", resp.message);
        }
        let resp = daemon.handle_request(Request::targeted("finish", &k));
        assert!(resp.is_ok(), "finish failed: {:?}", resp.message);
        let report = resp.report.unwrap();
        assert!(report.estimate.is_finite() && !report.degraded);
        assert_eq!(resp.pending_chunks, Some(0));

        let mut req = Request::targeted("history", &k);
        req.limit = Some(1);
        req.offset = Some(1);
        let resp = daemon.handle_request(req);
        let history = resp.history.unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].batch_index, 1);

        let resp = daemon.handle_request(Request::new("list"));
        assert_eq!(resp.deployments.unwrap(), vec![k]);
        assert!(daemon
            .handle_request(Request::new("metrics"))
            .metrics
            .is_some());
    }

    #[test]
    fn overflow_sheds_trip_the_breaker_and_cooldown_recovers() {
        let config = DaemonConfig {
            queue_capacity: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_nanos: 2_000_000, // two request ticks
                half_open_successes: 2,
            },
            ..DaemonConfig::default()
        };
        let daemon = Daemon::new(config);
        let k = key("noisy");
        register(&daemon, &k, artifact());

        let chunk = |daemon: &Daemon| {
            let mut req = Request::targeted("observe", &k);
            req.chunk = Some(chunk_rows(8));
            daemon.handle_request(req)
        };

        assert!(chunk(&daemon).is_ok()); // pending: 1 == capacity
        let shed = chunk(&daemon);
        assert!(shed.is_shed());
        assert!(shed.retry_after_nanos.unwrap() > 0);
        assert_eq!(daemon.tenant_circuit("noisy"), CircuitState::Closed);

        let shed = chunk(&daemon); // second consecutive overflow trips it
        assert!(shed.is_shed());
        assert_eq!(daemon.tenant_circuit("noisy"), CircuitState::Open);

        // Open breaker sheds even estimate observes, recording the loss as
        // a degraded batch (never dropping it).
        let mut req = Request::targeted("observe", &k);
        req.estimate = Some(0.8);
        let resp = daemon.handle_request(req);
        assert!(resp.is_shed());
        let degraded = resp.report.unwrap();
        assert!(degraded.estimate.is_nan());
        assert!(degraded.degrade_reason.unwrap().contains("circuit open"));

        // The poisoned window still finishes (degraded), freeing the budget.
        let resp = daemon.handle_request(Request::targeted("finish", &k));
        assert!(resp.is_ok());
        assert!(resp
            .report
            .unwrap()
            .degrade_reason
            .unwrap()
            .contains("budget"));
        assert_eq!(resp.pending_chunks, Some(0));

        // Cooldown has elapsed on the virtual clock; two successful probes
        // close the breaker.
        for expected in [CircuitState::HalfOpen, CircuitState::Closed] {
            let mut req = Request::targeted("observe", &k);
            req.estimate = Some(0.8);
            assert!(daemon.handle_request(req).is_ok());
            assert_eq!(daemon.tenant_circuit("noisy"), expected);
        }
        assert!(chunk(&daemon).is_ok());
    }

    #[test]
    fn malformed_and_invalid_requests_answer_with_errors() {
        let daemon = Daemon::new(DaemonConfig::default());
        let resp: Response = serde_json::from_str(&daemon.handle_line("{ not json")).unwrap();
        assert_eq!(resp.status, "error");
        assert!(daemon.handle_request(Request::new("frobnicate")).status == "error");

        let k = key("ghost");
        let mut req = Request::targeted("observe", &k);
        req.estimate = Some(0.5);
        let resp = daemon.handle_request(req);
        assert!(resp.message.unwrap().contains("unknown deployment"));

        register(&daemon, &k, artifact());
        // No mode at all, then two modes at once: both rejected.
        let resp = daemon.handle_request(Request::targeted("observe", &k));
        assert!(resp.message.unwrap().contains("exactly one"));
        let mut req = Request::targeted("observe", &k);
        req.estimate = Some(0.5);
        req.chunk = Some(chunk_rows(4));
        let resp = daemon.handle_request(req);
        assert!(resp.message.unwrap().contains("exactly one"));

        // Mis-shaped chunk: column count must match the class count.
        let mut req = Request::targeted("observe", &k);
        req.chunk = Some(vec![vec![0.2, 0.3, 0.5]]);
        let resp = daemon.handle_request(req);
        assert!(resp.message.unwrap().contains("classes"));
    }

    #[test]
    fn non_probability_outputs_are_rejected_before_the_journal() {
        let dir = std::env::temp_dir().join(format!("lvpd-daemon-proba-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let durability = DurabilityConfig::in_dir_with_fsync(&dir, FsyncPolicy::Never);
        let (daemon, _) = Daemon::recover(DaemonConfig::default(), durability).unwrap();
        let k = key("acme");
        register(&daemon, &k, artifact());
        let mut req = Request::targeted("observe", &k);
        req.estimate = Some(0.8);
        assert!(daemon.handle_request(req).is_ok());

        let state = || {
            let appends = daemon.registry().snapshot().counters["journal.appends"];
            let history = daemon.handle_request(Request::targeted("history", &k));
            let registry = lvp_core::to_json(&daemon.snapshot()).unwrap();
            (appends, history.batches_seen, registry)
        };
        let target = r#""tenant":"acme","model":"fraud","version":"v1""#;
        for payload in [
            r#""outputs":[[-1,2]]"#,
            r#""outputs":[[1e308,1e308]]"#,
            r#""chunk":[[-5,9]]"#,
        ] {
            let before = state();
            let line = format!(r#"{{"verb":"observe",{target},{payload}}}"#);
            let resp: Response = serde_json::from_str(&daemon.handle_line(&line)).unwrap();
            assert_eq!(resp.status, "error", "{payload} was accepted");
            assert!(resp.message.unwrap().contains("probability"));
            assert_eq!(state(), before, "{payload} mutated or journaled state");
        }

        // An empty chunk carries no evidence and stays a successful no-op.
        let line = format!(r#"{{"verb":"observe",{target},"chunk":[]}}"#);
        let resp: Response = serde_json::from_str(&daemon.handle_line(&line)).unwrap();
        assert!(resp.is_ok(), "{:?}", resp.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_snapshot_restores_bit_identically() {
        let dir = std::env::temp_dir().join(format!("lvpd-daemon-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let first = dir.join("registry-a.json");
        let second = dir.join("registry-b.json");

        let daemon = Daemon::new(DaemonConfig::default());
        register(&daemon, &key("acme"), artifact());
        register(&daemon, &key("bravo"), artifact());
        let mut req = Request::targeted("observe", &key("acme"));
        req.estimate = Some(0.77);
        daemon.handle_request(req);
        // Leave an open in-flight window: it must survive the restart.
        let mut req = Request::targeted("observe", &key("bravo"));
        req.chunk = Some(chunk_rows(12));
        assert!(daemon.handle_request(req).is_ok());

        let mut req = Request::new("save");
        req.path = Some(first.to_string_lossy().into_owned());
        assert!(daemon.handle_request(req).is_ok());

        let restored = Daemon::with_state_file(DaemonConfig::default(), &first).unwrap();
        let mut req = Request::new("save");
        req.path = Some(second.to_string_lossy().into_owned());
        assert!(restored.handle_request(req).is_ok());
        assert_eq!(
            std::fs::read(&first).unwrap(),
            std::fs::read(&second).unwrap(),
            "registry snapshot must round-trip bit-identically"
        );

        // The restored in-flight window still finishes into a real report.
        let resp = restored.handle_request(Request::targeted("finish", &key("bravo")));
        assert!(resp.is_ok(), "finish after restore: {:?}", resp.message);
        assert!(resp.report.unwrap().estimate.is_finite());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
