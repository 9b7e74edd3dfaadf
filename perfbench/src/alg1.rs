//! The Algorithm 1 path: `PerformancePredictor::fit` on a held-out test
//! split, and the serve op (`predict_interval` + `validate`) on fixed
//! corrupted serving batches.

use crate::cpu::thread_ms;
use crate::stats::Samples;
use crate::trace::{Tracer, ROOT};
use crate::{stream, Check};
use lvp_core::{
    generate_training_examples_seeded, prediction_statistics, BatchMonitor, Metric, MonitorPolicy,
    PerformancePredictor, PerformanceValidator, PredictorConfig, ScoreInterval, ServingArtifact,
    ValidationOutcome, ValidatorConfig,
};
use lvp_corruptions::{standard_tabular_suite, ErrorGen};
use lvp_dataframe::DataFrame;
use lvp_linalg::DenseMatrix;
use lvp_models::{train_model_quick, BlackBoxModel, ModelError, ModelKind};
use lvp_telemetry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Rows of the generated income dataset: half serving pool, a quarter
/// training data, a quarter the held-out test split.
const DATASET_ROWS: usize = 8_000;
/// Rows per serving batch.
const BATCH_ROWS: usize = 1_000;
/// Corrupted serving batches the serve ops cycle through.
const SERVE_BATCHES: usize = 120;
/// Corrupted serving batches the quality metrics are computed on.
const QUALITY_BATCHES: usize = 2_000;
/// Stream of the training side: dataset, black box, validator and the
/// predictor's fit seed. It does not depend on the run seed, so the
/// quality rows and fit timings measure one model; the run seed draws the
/// serving batches and the lvpd traffic.
const TRAINING_STREAM: u64 = 0x5EED_0A16;
/// Serve ops run after each fit, cycling through the batches.
const SERVES_PER_FIT: usize = 24;
/// Relative quality loss the validator tolerates.
const VALIDATOR_THRESHOLD: f64 = 0.05;

/// One serving batch and the reference answers for it.
struct ServeBatch {
    frame: DataFrame,
    interval: ScoreInterval,
    outcome: ValidationOutcome,
}

/// Estimate quality of the reference predictor and validator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    pub estimate_mae: f64,
    pub interval_coverage: f64,
    pub validate_f1: f64,
}

/// Everything the Algorithm 1 path needs.
pub struct Alg1Fixture {
    model: Arc<dyn BlackBoxModel>,
    /// The model's own telemetry (encoding-cache counters); traced runs only.
    model_registry: Option<Registry>,
    test: DataFrame,
    serving: DataFrame,
    generators: Vec<Box<dyn ErrorGen>>,
    /// Separate generator instances that corrupt the serving batches.
    serve_generators: Vec<Box<dyn ErrorGen>>,
    validator: PerformanceValidator,
    /// Holds the reference predictor, fitted once at set-up.
    monitor: BatchMonitor,
    batches: Vec<ServeBatch>,
    fit_seed: u64,
    /// The reference predictor bundled into a monitor, for lvpd to serve.
    pub artifact: ServingArtifact,
    /// Model outputs on every serve batch, row-major, two classes: the
    /// rows lvpd clients stream.
    pub outputs: Vec<f64>,
}

fn config() -> PredictorConfig {
    PredictorConfig::fast()
}

impl Alg1Fixture {
    pub fn build(seed: u64, traced: bool) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(TRAINING_STREAM);
        let df = lvp_datasets::income(DATASET_ROWS, &mut rng);
        let (source, serving) = df.split_frac(0.5, &mut rng);
        let (train, test) = source.split_frac(0.5, &mut rng);
        let mut model = train_model_quick(ModelKind::Xgb, &train, &mut rng)
            .map_err(|e| format!("train xgb black box: {e}"))?;
        let model_registry = traced.then(|| {
            let registry = Registry::new();
            model.attach_telemetry(&registry);
            registry
        });
        let model: Arc<dyn BlackBoxModel> = Arc::from(model);
        let generators = standard_tabular_suite(test.schema());
        let validator = PerformanceValidator::fit(
            Arc::clone(&model),
            &test,
            &generators,
            &ValidatorConfig::fast(VALIDATOR_THRESHOLD),
            &mut rng,
        )
        .map_err(|e| format!("fit validator: {e}"))?;
        let fit_seed: u64 = rng.gen();
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &generators,
            &config(),
            &mut StdRng::seed_from_u64(fit_seed),
        )
        .map_err(|e| format!("fit reference predictor: {e}"))?;
        let monitor = BatchMonitor::new(predictor, MonitorPolicy::default())
            .map_err(|e| format!("build monitor: {e}"))?;
        let mut fx = Self {
            model,
            model_registry,
            serve_generators: standard_tabular_suite(serving.schema()),
            test,
            serving,
            generators,
            validator,
            artifact: ServingArtifact::from_monitor(&monitor),
            monitor,
            batches: Vec::with_capacity(SERVE_BATCHES),
            fit_seed,
            outputs: Vec::with_capacity(SERVE_BATCHES * BATCH_ROWS * 2),
        };
        let mut rng = stream(seed, 1);
        for i in 0..SERVE_BATCHES {
            let (frame, proba) = fx.draw_batch(i, &mut rng)?;
            let (_, interval, outcome) = fx.judge(&frame, &proba)?;
            fx.outputs.extend_from_slice(proba.data());
            fx.batches.push(ServeBatch {
                frame,
                interval,
                outcome,
            });
        }
        Ok(fx)
    }

    /// Fig. 2 protocol: a fresh sample of the serving pool corrupted at a
    /// random magnitude by one of the known generators, with the model's
    /// outputs on it.
    fn draw_batch(&self, i: usize, rng: &mut StdRng) -> Result<(DataFrame, DenseMatrix), String> {
        let clean = self.serving.sample_n(BATCH_ROWS, rng);
        let generator = &self.serve_generators[i % self.serve_generators.len()];
        let frame = generator.corrupt_with_model(&clean, Some(self.model.as_ref()), rng);
        let proba = self.model.predict_proba(&frame);
        if proba.cols() != 2 {
            return Err(format!("expected 2 classes, got {}", proba.cols()));
        }
        Ok((frame, proba))
    }

    /// The true score of a batch and the reference answers on it. The
    /// outputs-based entry points are what `predict_interval` and
    /// `validate` run after scoring the frame, so one model call serves
    /// all three.
    fn judge(
        &self,
        frame: &DataFrame,
        proba: &DenseMatrix,
    ) -> Result<(f64, ScoreInterval, ValidationOutcome), String> {
        let truth = Metric::Accuracy
            .score(proba, frame.labels())
            .map_err(|e| format!("score serving batch: {e}"))?;
        let interval = self
            .monitor
            .predictor()
            .predict_interval_from_outputs(proba)
            .map_err(|e| format!("reference interval: {e}"))?;
        check_interval(&interval)?;
        let outcome = self
            .validator
            .validate_outputs(proba)
            .map_err(|e| format!("reference validate: {e}"))?;
        Ok((truth, interval, outcome))
    }

    /// Estimate quality on `QUALITY_BATCHES` fresh batches drawn from the
    /// run seed: mean |estimate − true accuracy|, the share of true
    /// accuracies inside the interval, and the validator's F1 on the
    /// event "accuracy dropped beyond the threshold" (the positive class
    /// of the paper's Figures 5 and 6).
    pub fn quality(&self, seed: u64) -> Result<Quality, String> {
        let mut rng = stream(seed, 2);
        let cutoff = (1.0 - VALIDATOR_THRESHOLD) * self.validator.test_score();
        let (mut abs_error, mut covered) = (0.0, 0usize);
        let (mut violated, mut alarmed) = (Vec::new(), Vec::new());
        for i in 0..QUALITY_BATCHES {
            let (frame, proba) = self.draw_batch(i, &mut rng)?;
            let (truth, interval, outcome) = self.judge(&frame, &proba)?;
            abs_error += (interval.point - truth).abs();
            covered += usize::from(interval.contains(truth));
            violated.push(truth < cutoff);
            alarmed.push(!outcome.within_threshold);
        }
        let n = QUALITY_BATCHES as f64;
        Ok(Quality {
            estimate_mae: abs_error / n,
            interval_coverage: covered as f64 / n,
            validate_f1: lvp_stats::f1_score(&alarmed, &violated),
        })
    }

    pub fn model(&self) -> &Arc<dyn BlackBoxModel> {
        &self.model
    }

    /// A bit-level digest of the reference answers set-up produced.
    pub fn digest(&self) -> Vec<u64> {
        let mut d = Vec::new();
        for b in &self.batches {
            d.extend(interval_bits(&b.interval));
            d.push(b.outcome.confidence.to_bits());
        }
        d
    }

    fn fit(
        &self,
        model: Arc<dyn BlackBoxModel>,
        generators: &[Box<dyn ErrorGen>],
        telemetry: Option<&Registry>,
    ) -> Result<PerformancePredictor, String> {
        PerformancePredictor::fit_instrumented(
            model,
            &self.test,
            generators,
            &config(),
            &mut StdRng::seed_from_u64(self.fit_seed),
            telemetry,
        )
        .map_err(|e| format!("fit: {e}"))
    }

    /// One serve op on batch `i`, checked bit for bit against the
    /// reference answers.
    fn serve(
        &self,
        predictor: &PerformancePredictor,
        i: usize,
        mut layer: impl FnMut(&'static str, &mut dyn FnMut()),
    ) -> Result<(), String> {
        let batch = &self.batches[i];
        let mut interval = Err(String::new());
        layer("core.predictor.interval", &mut || {
            interval = predictor
                .predict_interval(&batch.frame)
                .map_err(|e| format!("predict_interval: {e}"));
        });
        let mut outcome = Err(String::new());
        layer("core.validator.validate", &mut || {
            outcome = self
                .validator
                .validate(&batch.frame)
                .map_err(|e| format!("validate: {e}"));
        });
        let (interval, outcome) = (interval?, outcome?);
        check_interval(&interval)?;
        if interval_bits(&interval) != interval_bits(&batch.interval) {
            return Err(format!(
                "batch {i}: interval {interval:?} differs from the reference {:?}",
                batch.interval
            ));
        }
        if outcome.within_threshold != batch.outcome.within_threshold
            || outcome.confidence.to_bits() != batch.outcome.confidence.to_bits()
        {
            return Err(format!(
                "batch {i}: validation {outcome:?} differs from the reference {:?}",
                batch.outcome
            ));
        }
        Ok(())
    }
}

fn interval_bits(i: &ScoreInterval) -> [u64; 3] {
    [i.lo.to_bits(), i.point.to_bits(), i.hi.to_bits()]
}

fn check_interval(i: &ScoreInterval) -> Result<(), String> {
    if i.lo.is_finite() && i.point.is_finite() && i.hi.is_finite() {
        Ok(())
    } else {
        Err(format!("non-finite estimate or interval {i:?}"))
    }
}

/// Counts and busy time of one wrapped layer, with its spans parented to
/// whatever top-level call is running.
struct Probe {
    tracer: Arc<Tracer>,
    name: &'static str,
    parent: AtomicU64,
    calls: AtomicU64,
    rows: AtomicU64,
    busy_ns: AtomicU64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ProbeCounts {
    calls: u64,
    rows: u64,
    busy_ns: u64,
}

impl Probe {
    fn new(tracer: Arc<Tracer>, name: &'static str) -> Arc<Self> {
        Arc::new(Self {
            tracer,
            name,
            parent: AtomicU64::new(ROOT),
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        })
    }

    fn time<T>(&self, rows: usize, f: impl FnOnce() -> T) -> T {
        let parent = self.parent.load(Ordering::Relaxed);
        let (out, ms) = self.tracer.span(self.name, parent, parent, |_| f());
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add((ms * 1e6) as u64, Ordering::Relaxed);
        out
    }

    fn counts(&self) -> ProbeCounts {
        ProbeCounts {
            calls: self.calls.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

impl ProbeCounts {
    fn since(self, before: Self) -> Self {
        Self {
            calls: self.calls - before.calls,
            rows: self.rows - before.rows,
            busy_ns: self.busy_ns - before.busy_ns,
        }
    }
}

/// Times every `predict_proba` the wrapped black box serves.
struct TimedModel {
    inner: Arc<dyn BlackBoxModel>,
    probe: Arc<Probe>,
}

impl BlackBoxModel for TimedModel {
    fn predict_proba(&self, data: &DataFrame) -> DenseMatrix {
        self.probe
            .time(data.n_rows(), || self.inner.predict_proba(data))
    }

    fn try_predict_proba(&self, data: &DataFrame) -> Result<DenseMatrix, ModelError> {
        self.probe
            .time(data.n_rows(), || self.inner.try_predict_proba(data))
    }

    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn publish_telemetry(&self) {
        self.inner.publish_telemetry();
    }
}

/// Times every corruption the wrapped generator applies.
struct TimedGen {
    inner: Box<dyn ErrorGen>,
    probe: Arc<Probe>,
}

impl ErrorGen for TimedGen {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn touched_columns(&self, df: &DataFrame) -> Vec<usize> {
        self.inner.touched_columns(df)
    }

    fn corrupt(&self, df: &DataFrame, rng: &mut StdRng) -> DataFrame {
        self.probe.time(df.n_rows(), || self.inner.corrupt(df, rng))
    }

    fn corrupt_with_model(
        &self,
        df: &DataFrame,
        model: Option<&dyn BlackBoxModel>,
        rng: &mut StdRng,
    ) -> DataFrame {
        self.probe.time(df.n_rows(), || {
            self.inner.corrupt_with_model(df, model, rng)
        })
    }
}

/// End-to-end samples of the untraced phase.
#[derive(Default)]
pub struct Alg1Samples {
    pub fit: Samples,
    pub serve: Samples,
}

/// Per-layer figures of the traced phase, one entry per traced fit or
/// serve op.
#[derive(Default)]
pub struct Alg1Layers {
    pub corrupt_ms: Samples,
    pub corrupt_calls: Vec<u64>,
    pub predict_ms: Samples,
    pub predict_calls: Vec<u64>,
    pub predict_rows: Vec<u64>,
    pub cache_hit_ratio: f64,
    pub generate_ms: Samples,
    pub score_ms: Samples,
    pub featurize_ms: Samples,
    pub meta_fit_ms: Samples,
    pub interval_ms: Samples,
    pub statistics_ms: Samples,
    pub validate_ms: Samples,
    /// Fits and serve ops that ran traced, for the tracing overhead.
    pub traced: Alg1Samples,
}

/// The Algorithm 1 loop: fit, then `SERVES_PER_FIT` serve ops, repeated.
/// Untraced, every iteration is timed bare. Traced, iterations alternate
/// between bare (into `bare`) and traced (into `layers`), so the
/// difference between the two is the tracing overhead.
pub struct Alg1Loop<'a> {
    fx: &'a Alg1Fixture,
    traced: Option<TracedParts>,
    cursor: usize,
    iteration: u64,
    pub bare: Alg1Samples,
    pub layers: Alg1Layers,
    /// Calibration kernel passes, one after every bare serve op.
    kernel: Samples,
}

impl<'a> Alg1Loop<'a> {
    pub fn new(fx: &'a Alg1Fixture, tracer: Option<&Arc<Tracer>>) -> Self {
        Self {
            fx,
            traced: tracer.map(|t| TracedParts::new(fx, t)),
            cursor: 0,
            iteration: 0,
            bare: Alg1Samples::default(),
            layers: Alg1Layers::default(),
            kernel: Samples::default(),
        }
    }

    /// Runs iterations until `deadline` or a failed check.
    pub fn run_until(&mut self, deadline: Instant, check: &mut Check) {
        while Instant::now() < deadline && check.ok() {
            self.iteration += 1;
            let result = match &self.traced {
                Some(parts) if self.iteration.is_multiple_of(2) => {
                    parts.iteration(self.fx, &mut self.layers, self.cursor)
                }
                _ => bare_iteration(self.fx, &mut self.bare, &mut self.kernel, self.cursor),
            };
            check.record(result);
            self.cursor = (self.cursor + SERVES_PER_FIT) % self.fx.batches.len();
        }
    }

    /// Reads the model's encoding-cache counters (traced runs only).
    pub fn finish(mut self) -> (Alg1Samples, Alg1Layers, Samples) {
        if let Some(registry) = &self.fx.model_registry {
            self.fx.model.publish_telemetry();
            let counters = registry.snapshot().counters;
            let hits = counters.get("model.cache.hits").copied().unwrap_or(0) as f64;
            let misses = counters.get("model.cache.misses").copied().unwrap_or(0) as f64;
            self.layers.cache_hit_ratio = hits / (hits + misses);
        }
        (self.bare, self.layers, self.kernel)
    }
}

fn bare_iteration(
    fx: &Alg1Fixture,
    out: &mut Alg1Samples,
    kernel: &mut Samples,
    cursor: usize,
) -> Result<(), String> {
    let start = thread_ms();
    let predictor = fx.fit(Arc::clone(&fx.model), &fx.generators, None)?;
    out.fit.push(thread_ms() - start);
    for k in 0..SERVES_PER_FIT {
        let i = (cursor + k) % fx.batches.len();
        let start = thread_ms();
        fx.serve(&predictor, i, |_, f| f())?;
        out.serve.push(thread_ms() - start);
        kernel.push(crate::calibrate::pass_ms());
    }
    Ok(())
}

/// The wrapped model and generators of the traced iterations.
struct TracedParts {
    tracer: Arc<Tracer>,
    model: Arc<dyn BlackBoxModel>,
    generators: Vec<Box<dyn ErrorGen>>,
    predict: Arc<Probe>,
    corrupt: Arc<Probe>,
    engine: Registry,
}

impl TracedParts {
    fn new(fx: &Alg1Fixture, tracer: &Arc<Tracer>) -> Self {
        let predict = Probe::new(Arc::clone(tracer), "models.predict_proba");
        let corrupt = Probe::new(Arc::clone(tracer), "corruptions.corrupt");
        let model: Arc<dyn BlackBoxModel> = Arc::new(TimedModel {
            inner: Arc::clone(&fx.model),
            probe: Arc::clone(&predict),
        });
        let generators = standard_tabular_suite(fx.test.schema())
            .into_iter()
            .map(|inner| {
                Box::new(TimedGen {
                    inner,
                    probe: Arc::clone(&corrupt),
                }) as Box<dyn ErrorGen>
            })
            .collect();
        Self {
            tracer: Arc::clone(tracer),
            model,
            generators,
            predict,
            corrupt,
            engine: Registry::new(),
        }
    }

    fn engine_phase_ns(&self, phase: &str) -> u64 {
        self.engine
            .snapshot()
            .histograms
            .get(phase)
            .map_or(0, |h| h.sum_nanos)
    }

    fn set_parent(&self, id: u64) {
        self.predict.parent.store(id, Ordering::Relaxed);
        self.corrupt.parent.store(id, Ordering::Relaxed);
    }

    fn iteration(
        &self,
        fx: &Alg1Fixture,
        out: &mut Alg1Layers,
        cursor: usize,
    ) -> Result<(), String> {
        let (predict0, corrupt0) = (self.predict.counts(), self.corrupt.counts());
        let (score0, featurize0) = (
            self.engine_phase_ns("engine.score_phase"),
            self.engine_phase_ns("engine.featurize_phase"),
        );
        let start = thread_ms();
        let (predictor, _) = self.tracer.span("alg1.fit", ROOT, ROOT, |id| {
            self.set_parent(id);
            fx.fit(
                Arc::clone(&self.model),
                &self.generators,
                Some(&self.engine),
            )
        });
        let predictor = predictor?;
        out.traced.fit.push(thread_ms() - start);
        let predict = self.predict.counts().since(predict0);
        let corrupt = self.corrupt.counts().since(corrupt0);
        out.predict_ms.push(predict.busy_ns as f64 / 1e6);
        out.predict_calls.push(predict.calls);
        out.predict_rows.push(predict.rows);
        out.corrupt_ms.push(corrupt.busy_ns as f64 / 1e6);
        out.corrupt_calls.push(corrupt.calls);
        out.score_ms
            .push((self.engine_phase_ns("engine.score_phase") - score0) as f64 / 1e6);
        out.featurize_ms
            .push((self.engine_phase_ns("engine.featurize_phase") - featurize0) as f64 / 1e6);

        // The generation loop and the meta-forest fit on their own, on the
        // same inputs the fit used.
        let config = config();
        let (examples, generate_ms) = self.tracer.span("core.engine.generate", ROOT, ROOT, |id| {
            self.set_parent(id);
            generate_training_examples_seeded(
                self.model.as_ref(),
                &fx.test,
                &self.generators,
                config.runs_per_generator,
                config.clean_copies,
                config.metric,
                fx.fit_seed,
                config.parallel,
            )
        });
        let examples = examples.map_err(|e| format!("generate examples: {e}"))?;
        out.generate_ms.push(generate_ms);
        let (meta, meta_ms) = self
            .tracer
            .span("core.predictor.meta_fit", ROOT, ROOT, |_| {
                PerformancePredictor::fit_from_examples(
                    Arc::clone(&fx.model),
                    examples,
                    predictor.test_score(),
                    &config,
                    &mut StdRng::seed_from_u64(fx.fit_seed),
                )
            });
        meta.map_err(|e| format!("fit_from_examples: {e}"))?;
        out.meta_fit_ms.push(meta_ms);

        for k in 0..SERVES_PER_FIT {
            let i = (cursor + k) % fx.batches.len();
            let start = thread_ms();
            let (result, _) = self.tracer.span("alg1.serve", ROOT, ROOT, |id| {
                self.set_parent(id);
                fx.serve(&predictor, i, |name, f| {
                    let ((), ms) = self.tracer.span(name, id, id, |_| f());
                    match name {
                        "core.predictor.interval" => out.interval_ms.push(ms),
                        _ => out.validate_ms.push(ms),
                    }
                })
            });
            result?;
            out.traced.serve.push(thread_ms() - start);
            let proba = fx.model.predict_proba(&fx.batches[i].frame);
            let (stats, ms) = self
                .tracer
                .span("core.features.statistics", ROOT, ROOT, |_| {
                    prediction_statistics(&proba)
                });
            if stats.iter().any(|v| !v.is_finite()) {
                return Err(format!("batch {i}: non-finite prediction statistics"));
            }
            out.statistics_ms.push(ms);
        }
        self.set_parent(ROOT);
        Ok(())
    }
}
