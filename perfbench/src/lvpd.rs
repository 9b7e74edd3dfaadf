//! The lvpd path: closed-loop connections through the shipped
//! `lvp_server::Client` to an in-process `Server`, plus, in the traced
//! run, a replay of the same requests through each server-side layer's
//! public functions on separate (shadow) instances.

use crate::alg1::Alg1Fixture;
use crate::stats::Samples;
use crate::trace::{Tracer, ROOT};
use crate::Check;
use lvp_core::{BatchMonitor, ServingArtifact};
use lvp_linalg::DenseMatrix;
use lvp_models::mix64;
use lvp_server::{
    encode_record, Client, Daemon, DaemonConfig, DurabilityConfig, FsyncPolicy, Journal, JournalOp,
    JournalRecord, MonitorKey, Request, Response, Server,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Windows finished on every deployment before traffic starts, so the
/// report history is full (the daemon keeps 256) and `history` at limit
/// 256 returns 256 reports.
const PREFILL_WINDOWS: usize = 256;
const PREFILL_CHUNK_ROWS: usize = 64;
/// Requests per connection replayed through the shadow layers.
const REPLAY_PREFIX: u64 = 64;
/// `history` limits a reader cycles through, between `metrics` calls.
const READER_LIMITS: [usize; 3] = [8, 32, 256];
/// `history` limit of the read a writer issues after a finish.
const WRITER_READ_LIMIT: usize = 8;

/// What one connection sends, in a closed loop.
#[derive(Debug, Clone, Copy)]
pub enum Role {
    /// `observe` chunks of `chunk_rows` rows on its own deployment, a
    /// `finish` after every `finish_every`, and, with `read_after_finish`,
    /// one read after each finish (alternately `history` and `metrics`).
    Writer {
        deployment: usize,
        chunk_rows: usize,
        finish_every: u64,
        read_after_finish: bool,
    },
    /// Cycles `history` at each of `READER_LIMITS`, then `metrics`, on a
    /// writer's deployment.
    Reader { deployment: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Verb {
    Observe,
    Finish,
    History(usize),
    Metrics,
}

impl Verb {
    fn is_write(self) -> bool {
        matches!(self, Verb::Observe | Verb::Finish)
    }

    fn daemon_span(self) -> &'static str {
        match self {
            Verb::Observe => "server.daemon.observe",
            Verb::Finish => "server.daemon.finish",
            Verb::History(_) => "server.daemon.history",
            Verb::Metrics => "server.daemon.metrics",
        }
    }
}

fn key(deployment: usize) -> MonitorKey {
    MonitorKey {
        tenant: format!("tenant{deployment}"),
        model: "income-xgb".to_string(),
        version: "v1".to_string(),
    }
}

fn request_id(conn: usize, seq: u64) -> u64 {
    ((conn as u64 + 1) << 32) | seq
}

/// The deterministic request scripts of every connection.
pub struct Script {
    roles: Vec<Role>,
    seed: u64,
    /// Model outputs (two classes, row-major) that chunks are cut from.
    outputs: Arc<Vec<f64>>,
}

impl Script {
    pub fn new(roles: Vec<Role>, seed: u64, fx: &Alg1Fixture) -> Self {
        Self {
            roles,
            seed,
            outputs: Arc::new(fx.outputs.clone()),
        }
    }

    fn deployments(&self) -> usize {
        self.roles
            .iter()
            .map(|r| match *r {
                Role::Writer { deployment, .. } | Role::Reader { deployment } => deployment + 1,
            })
            .max()
            .unwrap_or(0)
    }

    /// `rows` consecutive output rows starting at a position drawn from
    /// `(seed, tag)`, wrapping around the pool.
    fn rows(&self, tag: u64, rows: usize) -> Vec<Vec<f64>> {
        let pool = self.outputs.len() / 2;
        let start = (mix64(self.seed ^ mix64(tag)) % pool as u64) as usize;
        (0..rows)
            .map(|i| {
                let r = (start + i) % pool;
                self.outputs[2 * r..2 * r + 2].to_vec()
            })
            .collect()
    }

    /// The verb of request `seq` of connection `conn`.
    fn verb(&self, conn: usize, seq: u64) -> Verb {
        self.verb_and_deployment(conn, seq).0
    }

    fn verb_and_deployment(&self, conn: usize, seq: u64) -> (Verb, usize) {
        match self.roles[conn] {
            Role::Writer {
                deployment,
                finish_every,
                read_after_finish,
                ..
            } => {
                let round = finish_every + 1 + u64::from(read_after_finish);
                let pos = seq % round;
                let verb = if pos < finish_every {
                    Verb::Observe
                } else if pos == finish_every {
                    Verb::Finish
                } else if (seq / round).is_multiple_of(2) {
                    Verb::History(WRITER_READ_LIMIT)
                } else {
                    Verb::Metrics
                };
                (verb, deployment)
            }
            Role::Reader { deployment } => {
                let pos = (seq % (READER_LIMITS.len() as u64 + 1)) as usize;
                let verb = READER_LIMITS
                    .get(pos)
                    .map_or(Verb::Metrics, |&l| Verb::History(l));
                (verb, deployment)
            }
        }
    }

    /// Request `seq` of connection `conn`.
    fn request(&self, conn: usize, seq: u64) -> (Verb, usize, Request) {
        let (verb, deployment) = self.verb_and_deployment(conn, seq);
        let k = key(deployment);
        let req = match verb {
            Verb::Observe => {
                let Role::Writer { chunk_rows, .. } = self.roles[conn] else {
                    unreachable!("only writers observe")
                };
                let mut req = Request::targeted("observe", &k);
                req.chunk = Some(self.rows(request_id(conn, seq), chunk_rows));
                req
            }
            Verb::Finish => Request::targeted("finish", &k),
            Verb::History(limit) => {
                let mut req = Request::targeted("history", &k);
                req.limit = Some(limit);
                req
            }
            Verb::Metrics => Request::new("metrics"),
        };
        (verb, deployment, req)
    }

    /// The prefill chunk of window `w` on `deployment`.
    fn prefill_rows(&self, deployment: usize, w: usize) -> Vec<Vec<f64>> {
        self.rows(
            (1 << 62) | ((deployment as u64) << 32) | w as u64,
            PREFILL_CHUNK_ROWS,
        )
    }
}

fn expect_ok(resp: &Response, what: &str) -> Result<(), String> {
    if resp.is_ok() {
        Ok(())
    } else {
        Err(format!(
            "{what}: status {} ({})",
            resp.status,
            resp.message.as_deref().unwrap_or("")
        ))
    }
}

/// Requests set-up sends to a daemon per deployment: one `register` and a
/// chunk + `finish` per prefilled window.
const SETUP_REQUESTS_PER_DEPLOYMENT: u64 = 1 + 2 * PREFILL_WINDOWS as u64;

/// A recovered, journaled daemon with every deployment registered and
/// prefilled through `handle_request`.
fn build_daemon(
    dir: &Path,
    fsync: FsyncPolicy,
    script: &Script,
    artifact: &ServingArtifact,
) -> Result<Daemon, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (daemon, _) = Daemon::recover(
        DaemonConfig::default(),
        DurabilityConfig::in_dir_with_fsync(dir, fsync),
    )?;
    for d in 0..script.deployments() {
        let k = key(d);
        let mut req = Request::targeted("register", &k);
        req.artifact = Some(artifact.clone());
        expect_ok(&daemon.handle_request(req), "register")?;
        for w in 0..PREFILL_WINDOWS {
            let mut req = Request::targeted("observe", &k);
            req.chunk = Some(script.prefill_rows(d, w));
            expect_ok(&daemon.handle_request(req), "prefill observe")?;
            expect_ok(
                &daemon.handle_request(Request::targeted("finish", &k)),
                "prefill finish",
            )?;
        }
    }
    Ok(daemon)
}

/// A live daemon behind a loopback server, and where each connection's
/// script has got to.
pub struct Live {
    dir: PathBuf,
    daemon: Arc<Daemon>,
    server: Option<Server>,
    conns: Vec<ConnState>,
    /// Wall time spent in slices, for the request rate.
    elapsed_s: f64,
}

/// One connection's position in its script, kept across slices.
#[derive(Debug, Clone, Copy)]
struct ConnState {
    seq: u64,
    expected_batches: usize,
    finishes: u64,
    /// Writes and reads sent, to trace every other one of each.
    writes: u64,
    reads: u64,
}

impl Live {
    pub fn start(
        dir: PathBuf,
        script: &Script,
        artifact: &ServingArtifact,
    ) -> Result<Self, String> {
        let daemon = Arc::new(build_daemon(&dir, FsyncPolicy::Never, script, artifact)?);
        let server = Server::spawn(Arc::clone(&daemon), "127.0.0.1:0")
            .map_err(|e| format!("spawn server: {e}"))?;
        let conns = vec![
            ConnState {
                seq: 0,
                expected_batches: PREFILL_WINDOWS,
                finishes: 0,
                writes: 0,
                reads: 0,
            };
            script.roles.len()
        ];
        Ok(Self {
            dir,
            daemon,
            server: Some(server),
            conns,
            elapsed_s: 0.0,
        })
    }

    /// Shuts the server down (every client is already dropped, so its
    /// connection threads have ended) and removes the state directory.
    pub fn stop(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Runs one slice: every connection connects afresh through the
    /// shipped client, continues its script in a closed loop until
    /// `deadline`, and disconnects. With `cpu_clock`, each write's CPU
    /// cost is read off the process's CPU clock as well; that is the
    /// write's own cost only when one connection runs.
    pub fn run_slice(
        &mut self,
        script: &Script,
        deadline: Instant,
        cpu_clock: bool,
        tracer: Option<&Arc<Tracer>>,
        out: &mut LiveSamples,
        check: &mut Check,
    ) {
        let addr = self
            .server
            .as_ref()
            .expect("server runs until stop")
            .local_addr();
        let clients = match (0..self.conns.len())
            .map(|_| Client::connect(addr))
            .collect::<Result<Vec<_>, _>>()
        {
            Ok(clients) => clients,
            Err(e) => return check.fail(format!("connect: {e}")),
        };
        let barrier = Barrier::new(clients.len());
        let start = Instant::now();
        let outcomes: Vec<(LiveSamples, Option<String>)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .zip(self.conns.iter_mut())
                .enumerate()
                .map(|(conn, (mut client, state))| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        drive(
                            &mut client,
                            script,
                            conn,
                            state,
                            deadline,
                            cpu_clock,
                            tracer,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        });
        self.elapsed_s += start.elapsed().as_secs_f64();
        for (conn, (samples, error)) in outcomes.into_iter().enumerate() {
            if let Some(e) = error {
                check.fail(format!("connection {conn}: {e}"));
            }
            out.merge(samples);
        }
        out.requests_per_s = out.requests as f64 / self.elapsed_s;
    }

    /// After the last slice: the daemon counted exactly the requests sent,
    /// answered none with an error or a shed, journaled every mutation,
    /// and each deployment saw one batch per `finish`.
    pub fn check_final_state(&self, script: &Script) -> Result<(), String> {
        let counters = self.daemon.registry().snapshot().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        let sent: u64 = self.conns.iter().map(|c| c.seq).sum();
        let mut finishes = vec![0u64; script.deployments()];
        for (role, state) in script.roles.iter().zip(&self.conns) {
            if let Role::Writer { deployment, .. } = *role {
                finishes[deployment] += state.finishes;
            }
        }
        let setup = script.deployments() as u64 * SETUP_REQUESTS_PER_DEPLOYMENT;
        if count("server.requests") != setup + sent {
            return Err(format!(
                "server.requests = {}, but {} were sent",
                count("server.requests"),
                setup + sent
            ));
        }
        let mutations: u64 = script.deployments() as u64 * SETUP_REQUESTS_PER_DEPLOYMENT
            + (0..self.conns.len())
                .map(|conn| {
                    (0..self.conns[conn].seq)
                        .filter(|&seq| script.verb(conn, seq).is_write())
                        .count() as u64
                })
                .sum::<u64>();
        if count("journal.appends") != mutations {
            return Err(format!(
                "journal.appends = {}, but {mutations} mutations were acknowledged",
                count("journal.appends")
            ));
        }
        for name in ["server.error_responses", "server.shed_requests"] {
            if count(name) != 0 {
                return Err(format!("{name} = {}", count(name)));
            }
        }
        for (d, &n) in finishes.iter().enumerate() {
            let resp = self
                .daemon
                .handle_request(Request::targeted("history", &key(d)));
            expect_ok(&resp, "final history")?;
            let want = PREFILL_WINDOWS as u64 + n;
            let len = resp.history.as_ref().map_or(0, Vec::len) as u64;
            if resp.batches_seen != Some(want as usize) || len != want.min(PREFILL_WINDOWS as u64) {
                return Err(format!(
                    "deployment {d}: batches_seen {:?} and history length {len} after {n} finishes",
                    resp.batches_seen
                ));
            }
        }
        Ok(())
    }
}

/// End-to-end samples of the live phase.
#[derive(Default)]
pub struct LiveSamples {
    pub write: Samples,
    /// Process CPU time of each write, when asked for.
    pub write_cpu: Samples,
    pub read: Samples,
    pub requests: u64,
    pub requests_per_s: f64,
    /// Client call time of each request of the replay prefix, for the
    /// transport estimate (traced runs only).
    prefix_rt: BTreeMap<u64, f64>,
    /// Round trips of requests that ran traced, tracing included, and of
    /// those that ran bare (traced runs only).
    pub traced_write: Samples,
    pub bare_write: Samples,
    pub traced_read: Samples,
    pub bare_read: Samples,
}

impl LiveSamples {
    fn merge(&mut self, other: LiveSamples) {
        self.requests += other.requests;
        self.write.extend(&other.write);
        self.write_cpu.extend(&other.write_cpu);
        self.read.extend(&other.read);
        self.traced_write.extend(&other.traced_write);
        self.bare_write.extend(&other.bare_write);
        self.traced_read.extend(&other.traced_read);
        self.bare_read.extend(&other.bare_read);
        self.prefix_rt.extend(other.prefix_rt);
    }
}

/// One connection's closed loop for one slice. Returns its samples and
/// the first failed check, which ends the loop.
fn drive(
    client: &mut Client,
    script: &Script,
    conn: usize,
    state: &mut ConnState,
    deadline: Instant,
    cpu_clock: bool,
    tracer: Option<&Arc<Tracer>>,
) -> (LiveSamples, Option<String>) {
    let mut out = LiveSamples::default();
    while Instant::now() < deadline {
        let seq = state.seq;
        let (verb, _, req) = script.request(conn, seq);
        let id = request_id(conn, seq);
        // Traced runs alternate traced and bare requests of each kind; a
        // traced one records spans and the client-side encode cost.
        let sent_of_kind = if verb.is_write() {
            &mut state.writes
        } else {
            &mut state.reads
        };
        let traced = tracer.filter(|_| sent_of_kind.is_multiple_of(2));
        *sent_of_kind += 1;
        let cpu_start = crate::cpu::process_ms();
        let start = Instant::now();
        let (resp, call_ms) = match traced {
            Some(t) => {
                t.span("lvpd.request", ROOT, id, |parent| {
                    let (line, _) = t.span("server.client_encode", parent, id, |_| {
                        serde_json::to_string(&req)
                    });
                    match line {
                        Ok(_) => t.span("lvpd.client_call", parent, id, |_| client.call(&req)),
                        Err(e) => (Err(std::io::Error::other(e.to_string())), 0.0),
                    }
                })
                .0
            }
            None => (client.call(&req), 0.0),
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = crate::cpu::process_ms() - cpu_start;
        let call_ms = if traced.is_some() { call_ms } else { ms };
        state.seq += 1;
        out.requests += 1;
        let resp = match resp {
            Ok(resp) => resp,
            Err(e) => return (out, Some(format!("request {seq}: I/O failure: {e}"))),
        };
        if let Err(e) = check_response(verb, &resp, &mut state.expected_batches) {
            return (out, Some(format!("request {seq}: {e}")));
        }
        if verb == Verb::Finish {
            state.finishes += 1;
        }
        let (all, traced_or_bare) = match (verb.is_write(), traced.is_some()) {
            (true, true) => (&mut out.write, &mut out.traced_write),
            (true, false) => (&mut out.write, &mut out.bare_write),
            (false, true) => (&mut out.read, &mut out.traced_read),
            (false, false) => (&mut out.read, &mut out.bare_read),
        };
        all.push(ms);
        if cpu_clock && verb.is_write() {
            out.write_cpu.push(cpu_ms);
        }
        if tracer.is_some() {
            traced_or_bare.push(ms);
            if seq < REPLAY_PREFIX {
                out.prefix_rt.insert(id, call_ms);
            }
        }
    }
    (out, None)
}

/// Every response must be `ok`; a `finish` must advance `batches_seen` by
/// exactly one; a `history` page must be full (the history is prefilled).
fn check_response(verb: Verb, resp: &Response, expected_batches: &mut usize) -> Result<(), String> {
    expect_ok(resp, &format!("{verb:?}"))?;
    match verb {
        Verb::Finish => {
            *expected_batches += 1;
            let report = resp.report.as_ref().ok_or("finish without a report")?;
            if !report.estimate.is_finite() {
                return Err(format!("finish: non-finite estimate {}", report.estimate));
            }
            if resp.batches_seen != Some(*expected_batches) {
                return Err(format!(
                    "finish: batches_seen {:?}, expected {}",
                    resp.batches_seen, expected_batches
                ));
            }
        }
        Verb::History(limit) => {
            let got = resp.history.as_ref().map_or(0, Vec::len);
            if got != limit.min(PREFILL_WINDOWS) {
                return Err(format!("history limit {limit}: {got} reports"));
            }
        }
        Verb::Metrics => {
            resp.metrics.as_ref().ok_or("metrics without a snapshot")?;
        }
        Verb::Observe => {}
    }
    Ok(())
}

/// Per-layer figures of the lvpd path from the traced run.
#[derive(Default)]
pub struct LvpdLayers {
    pub client_encode_ms: Samples,
    pub decode_ms: Samples,
    pub handle_ms: BTreeMap<&'static str, Samples>,
    pub lock_wait_ms: f64,
    pub response_encode_ms: Samples,
    pub transport_ms: Samples,
    pub read_transport_ms: Samples,
    pub journal_encode_ms: Samples,
    pub journal_bytes: Vec<u64>,
    pub append_ms: Samples,
    pub append_fsync_ms: Samples,
    pub fold_ms: Samples,
    pub finish_ms: Samples,
    pub from_rows_ms: Samples,
    pub counters: BTreeMap<&'static str, u64>,
}

/// A monitor built from the served artifact and prefilled like the
/// daemon's deployments.
fn shadow_monitor(
    script: &Script,
    fx: &Alg1Fixture,
    deployment: usize,
) -> Result<BatchMonitor, String> {
    let mut monitor = fx
        .artifact
        .clone()
        .into_monitor(Arc::clone(fx.model()))
        .map_err(|e| format!("shadow monitor: {e}"))?;
    monitor.set_history_limit(DaemonConfig::default().history_limit);
    for w in 0..PREFILL_WINDOWS {
        let proba = DenseMatrix::from_rows(&script.prefill_rows(deployment, w))
            .map_err(|e| format!("prefill rows: {e}"))?;
        monitor
            .observe_output_chunk(&proba)
            .and_then(|()| monitor.finish_window().map(|_| ()))
            .map_err(|e| format!("shadow prefill: {e}"))?;
    }
    Ok(monitor)
}

/// Replays the first `REPLAY_PREFIX` requests of every connection through
/// each server-side layer on shadow instances: solo, one caller, in
/// round-robin order; then concurrently, one thread per connection, to
/// estimate lock wait as the difference in `handle_request` time.
pub fn replay(
    dir: &Path,
    script: &Script,
    fx: &Alg1Fixture,
    live: &LiveSamples,
    tracer: &Tracer,
) -> Result<LvpdLayers, String> {
    let mut out = LvpdLayers::default();
    let solo = build_daemon(&dir.join("solo"), FsyncPolicy::Never, script, &fx.artifact)?;
    let mut journal = Journal::open(dir.join("never.journal"), FsyncPolicy::Never, 0)
        .map_err(|e| format!("shadow journal: {e}"))?;
    let mut journal_fsync = Journal::open(dir.join("always.journal"), FsyncPolicy::Always, 0)
        .map_err(|e| format!("shadow journal: {e}"))?;
    let mut monitors = (0..script.deployments())
        .map(|d| shadow_monitor(script, fx, d))
        .collect::<Result<Vec<_>, _>>()?;
    let mut solo_ms = BTreeMap::new();

    for seq in 0..REPLAY_PREFIX {
        for conn in 0..script.roles.len() {
            let id = request_id(conn, seq);
            let (verb, deployment, req) = script.request(conn, seq);
            let (result, _) = tracer.span("replay.request", ROOT, id, |parent| {
                let (line, encode_ms) = tracer.span("server.client_encode", parent, id, |_| {
                    serde_json::to_string(&req)
                });
                let line = line.map_err(|e| format!("encode request: {e}"))?;
                let (parsed, decode_ms) = tracer.span("server.protocol.decode", parent, id, |_| {
                    serde_json::from_str::<Request>(&line)
                });
                let parsed = parsed.map_err(|e| format!("decode request: {e}"))?;
                let (resp, handle_ms) = tracer.span(verb.daemon_span(), parent, id, |_| {
                    solo.handle_request(parsed)
                });
                expect_ok(&resp, "shadow request")?;
                let (resp_line, resp_encode_ms) =
                    tracer.span("server.protocol.response_encode", parent, id, |_| {
                        serde_json::to_string(&resp)
                    });
                resp_line.map_err(|e| format!("encode response: {e}"))?;
                out.client_encode_ms.push(encode_ms);
                if verb == Verb::Observe {
                    out.decode_ms.push(decode_ms);
                }
                if !verb.is_write() {
                    out.response_encode_ms.push(resp_encode_ms);
                }
                out.handle_ms
                    .entry(verb.daemon_span())
                    .or_default()
                    .push(handle_ms);
                solo_ms.insert(id, handle_ms);
                if let Some(&rt) = live.prefix_rt.get(&id) {
                    let transport = rt - (encode_ms + decode_ms + handle_ms + resp_encode_ms);
                    if verb.is_write() {
                        out.transport_ms.push(transport);
                    } else {
                        out.read_transport_ms.push(transport);
                    }
                }
                let monitor = &mut monitors[deployment];
                match verb {
                    Verb::Observe => {
                        let rows = req.chunk.clone().expect("observe carries a chunk");
                        let (proba, ms) = tracer.span("linalg.from_rows", parent, id, |_| {
                            DenseMatrix::from_rows(&rows)
                        });
                        out.from_rows_ms.push(ms);
                        let proba = proba.map_err(|e| format!("from_rows: {e}"))?;
                        let (folded, ms) = tracer.span("core.monitor.fold", parent, id, |_| {
                            monitor.observe_output_chunk(&proba)
                        });
                        folded.map_err(|e| format!("shadow fold: {e}"))?;
                        out.fold_ms.push(ms);
                        let op = JournalOp::ObserveChunk {
                            key: key(deployment),
                            rows,
                        };
                        let record = JournalRecord { epoch: 0, op };
                        let (frame, ms) = tracer.span("server.journal.encode", parent, id, |_| {
                            encode_record(&record)
                        });
                        out.journal_encode_ms.push(ms);
                        out.journal_bytes.push(frame?.len() as u64);
                        let (appended, ms) =
                            tracer.span("server.journal.append", parent, id, |_| {
                                journal.append(&record.op)
                            });
                        appended.map_err(|e| format!("shadow append: {e}"))?;
                        out.append_ms.push(ms);
                        let (appended, ms) =
                            tracer.span("server.journal.append_fsync", parent, id, |_| {
                                journal_fsync.append(&record.op)
                            });
                        appended.map_err(|e| format!("shadow fsync append: {e}"))?;
                        out.append_fsync_ms.push(ms);
                    }
                    Verb::Finish => {
                        let (report, ms) = tracer.span("core.monitor.finish", parent, id, |_| {
                            monitor.finish_window()
                        });
                        report.map_err(|e| format!("shadow finish: {e}"))?;
                        out.finish_ms.push(ms);
                    }
                    Verb::History(_) | Verb::Metrics => {}
                }
                Ok::<(), String>(())
            });
            result?;
        }
    }
    let counters = solo.registry().snapshot().counters;
    for name in [
        "server.requests",
        "server.error_responses",
        "server.shed_requests",
        "journal.appends",
    ] {
        out.counters
            .insert(name, counters.get(name).copied().unwrap_or(0));
    }
    drop(solo);

    let concurrent = build_daemon(
        &dir.join("concurrent"),
        FsyncPolicy::Never,
        script,
        &fx.artifact,
    )?;
    let barrier = Barrier::new(script.roles.len());
    let waits: Vec<Result<Vec<f64>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..script.roles.len())
            .map(|conn| {
                let (concurrent, barrier, solo_ms) = (&concurrent, &barrier, &solo_ms);
                s.spawn(move || {
                    let requests: Vec<(u64, Request)> = (0..REPLAY_PREFIX)
                        .map(|seq| (request_id(conn, seq), script.request(conn, seq).2))
                        .collect();
                    barrier.wait();
                    let mut waits = Vec::with_capacity(requests.len());
                    for (id, req) in requests {
                        let start = Instant::now();
                        let resp = concurrent.handle_request(req);
                        let ms = start.elapsed().as_secs_f64() * 1e3;
                        expect_ok(&resp, "concurrent shadow request")?;
                        waits.push(ms - solo_ms[&id]);
                    }
                    Ok(waits)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut all = Samples::default();
    for w in waits {
        for ms in w? {
            all.push(ms);
        }
    }
    out.lock_wait_ms = all.mean();
    Ok(out)
}
