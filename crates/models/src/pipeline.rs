//! Black box pipelines: a private feature map plus a private classifier,
//! exposed only through [`BlackBoxModel`].

use crate::convnet::{ConvNet, ConvNetConfig};
use crate::cv::select_config;
use crate::gbdt::{default_gbdt_grid, GbdtClassifier, GbdtConfig};
use crate::linear::{default_lr_grid, LogisticRegression, LrConfig};
use crate::mlp::{default_mlp_grid, MlpConfig, NeuralNet};
use crate::{BlackBoxModel, Classifier, ModelError};
use lvp_dataframe::DataFrame;
use lvp_featurize::{CacheStats, FeaturePipeline, PipelineConfig, ShardedEncodingCache};
use lvp_linalg::{CsrMatrix, DenseMatrix};
use lvp_telemetry::{Counter, Histogram, Registry, Span};
use rand::Rng;

/// A feature pipeline and classifier bundled behind the black box contract.
///
/// Neither the fitted feature map nor the classifier is reachable from the
/// outside — downstream consumers can only call
/// [`BlackBoxModel::predict_proba`] on raw tuples, matching the paper's
/// problem statement.
///
/// Internally, featurization runs through a sharded, identity-keyed
/// [`ShardedEncodingCache`]: copy-on-write copies of an already-seen frame
/// re-encode only the columns they actually rewrote. The cache is invisible
/// through [`BlackBoxModel`] — cached blocks are bit-identical to freshly
/// encoded ones, so `predict_proba` returns the same probabilities with or
/// without it, on any thread schedule.
pub struct PipelineModel {
    featurizer: FeaturePipeline,
    classifier: Box<dyn Classifier>,
    name: String,
    /// Interior mutability keeps the `&self` black box contract while each
    /// worker thread populates its own shard.
    encoding_cache: ShardedEncodingCache,
    telemetry: Option<PredictTelemetry>,
}

/// Pre-resolved registry handles for the `predict_proba` hot path: pure
/// atomics per call, no name lookups.
struct PredictTelemetry {
    calls: Counter,
    rows: Counter,
    latency: Histogram,
}

impl PipelineModel {
    /// Bundles a fitted featurizer and classifier under a display name.
    pub fn new(
        featurizer: FeaturePipeline,
        classifier: Box<dyn Classifier>,
        name: impl Into<String>,
    ) -> Self {
        Self {
            featurizer,
            classifier,
            name: name.into(),
            encoding_cache: ShardedEncodingCache::with_default_shards(),
            telemetry: None,
        }
    }

    /// Aggregated hit/miss/eviction counters of the internal encoding cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.encoding_cache.stats()
    }

    /// Drops every cached column block (e.g. between unrelated datasets).
    pub fn clear_encoding_cache(&self) {
        self.encoding_cache.clear();
    }
}

impl BlackBoxModel for PipelineModel {
    fn predict_proba(&self, data: &DataFrame) -> DenseMatrix {
        let _span = self.telemetry.as_ref().map(|t| {
            t.calls.inc();
            t.rows.add(data.n_rows() as u64);
            Span::new(t.latency.clone())
        });
        let x = self
            .encoding_cache
            .with_worker_cache(|cache| self.featurizer.transform_cached(data, cache));
        self.classifier.predict_proba(&x)
    }

    fn n_classes(&self) -> usize {
        self.classifier.n_classes()
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// Registers `model.predict.{calls,rows,latency}` plus the encoding
    /// cache's `model.cache.*` counters. Call/row totals are deterministic
    /// for a seeded workload; latency buckets are wall-clock and cache
    /// counters shard-scheduling-dependent, so those stay out of
    /// deterministic snapshot views.
    fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(PredictTelemetry {
            calls: registry.counter("model.predict.calls"),
            rows: registry.counter("model.predict.rows"),
            latency: registry.histogram("model.predict.latency"),
        });
        self.encoding_cache
            .attach_telemetry(registry, "model.cache");
    }

    fn publish_telemetry(&self) {
        self.encoding_cache.publish_stats();
    }
}

/// The model families evaluated in the paper (§6 "Models").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Logistic regression (`lr`).
    Lr,
    /// Feed-forward neural network (`dnn`).
    Dnn,
    /// Gradient-boosted decision trees (`xgb`).
    Xgb,
    /// Convolutional network (`conv`), image data only.
    Conv,
}

impl ModelKind {
    /// The tabular model families (everything except `conv`).
    pub const TABULAR: [ModelKind; 3] = [ModelKind::Lr, ModelKind::Dnn, ModelKind::Xgb];

    /// The paper's short name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Lr => "lr",
            ModelKind::Dnn => "dnn",
            ModelKind::Xgb => "xgb",
            ModelKind::Conv => "conv",
        }
    }
}

/// Number of folds used for every cross-validated fit (the paper uses 5).
pub const CV_FOLDS: usize = 5;

/// One classifier family with its hyperparameters: a candidate of the
/// cross-validated grids of [`train_model`] and of the
/// [`automl`](crate::automl) searchers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ClassifierSpec {
    /// Logistic regression.
    Lr(LrConfig),
    /// Feed-forward neural network.
    Mlp(MlpConfig),
    /// Gradient-boosted trees.
    Gbdt(GbdtConfig),
}

impl ClassifierSpec {
    /// Fits this candidate on featurized rows.
    pub(crate) fn fit(
        &self,
        x: &CsrMatrix,
        labels: &[u32],
        n_classes: usize,
        rng: &mut impl Rng,
    ) -> Result<Box<dyn Classifier>, ModelError> {
        Ok(match self {
            Self::Lr(cfg) => Box::new(LogisticRegression::fit(x, labels, n_classes, cfg, rng)?),
            Self::Mlp(cfg) => Box::new(NeuralNet::fit(x, labels, n_classes, cfg, rng)?),
            Self::Gbdt(cfg) => Box::new(GbdtClassifier::fit(x, labels, n_classes, cfg, rng)?),
        })
    }

    /// The candidate among `grid` with the best [`CV_FOLDS`]-fold
    /// cross-validated [`holdout_accuracy`] on `x`.
    pub(crate) fn cross_validate(
        grid: &[Self],
        x: &CsrMatrix,
        labels: &[u32],
        n_classes: usize,
        rng: &mut impl Rng,
    ) -> Result<Self, ModelError> {
        select_config(x.rows(), grid, CV_FOLDS, rng, |spec, train, val, local| {
            holdout_accuracy(x, labels, train, val, |xt, yt| {
                spec.fit(xt, yt, n_classes, local)
            })
        })
    }
}

/// Fits a classifier on the `train` rows of `x` and returns its accuracy
/// on the `val` rows: the fold score of the cross-validated grids and the
/// candidate score of the AutoML searchers.
pub(crate) fn holdout_accuracy(
    x: &CsrMatrix,
    labels: &[u32],
    train: &[usize],
    val: &[usize],
    fit: impl FnOnce(&CsrMatrix, &[u32]) -> Result<Box<dyn Classifier>, ModelError>,
) -> Result<f64, ModelError> {
    let y_train: Vec<u32> = train.iter().map(|&i| labels[i]).collect();
    let model = fit(&x.select_rows(train), &y_train)?;
    let y_val: Vec<usize> = val.iter().map(|&i| labels[i] as usize).collect();
    let predicted = model.predict_proba(&x.select_rows(val)).argmax_rows();
    Ok(lvp_stats::accuracy(&predicted, &y_val))
}

/// Fits the feature pipeline on `train`, fits a classifier on the
/// featurized rows with `fit`, and bundles both as a black box named
/// `name`. Every trained pipeline in this crate is built here.
pub(crate) fn fit_pipeline(
    train: &DataFrame,
    config: &PipelineConfig,
    name: &str,
    fit: impl FnOnce(&CsrMatrix) -> Result<Box<dyn Classifier>, ModelError>,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    let featurizer = FeaturePipeline::fit(train, config);
    let x = featurizer.transform(train);
    let classifier = fit(&x)?;
    Ok(Box::new(PipelineModel::new(featurizer, classifier, name)))
}

/// Width of the first image in the frame's image columns; `model` names
/// the model in the error when there is none.
pub(crate) fn image_side(train: &DataFrame, model: &str) -> Result<usize, ModelError> {
    train
        .schema()
        .image_columns()
        .into_iter()
        .filter_map(|i| train.column(i).as_image().ok())
        .find_map(|images| images.iter().flatten().next().map(|img| img.width))
        .filter(|&side| side > 0)
        .ok_or_else(|| ModelError::new(format!("{model} requires an image column")))
}

/// A convnet pipeline of the given architecture.
pub(crate) fn convnet_pipeline(
    train: &DataFrame,
    config: &PipelineConfig,
    name: &str,
    net: &ConvNetConfig,
    rng: &mut impl Rng,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    fit_pipeline(train, config, name, |x| {
        Ok(Box::new(ConvNet::fit(
            x,
            train.labels(),
            train.n_classes(),
            net,
            rng,
        )?))
    })
}

/// Trains the requested model family with the paper's protocol: the
/// family's grid, scored by [`CV_FOLDS`]-fold cross-validated accuracy,
/// with the winner refit on every row. `conv` has no grid; it trains the
/// scaled architecture ([`ConvNetConfig::small`]).
pub fn train_model(
    kind: ModelKind,
    train: &DataFrame,
    rng: &mut impl Rng,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    let config = PipelineConfig::default();
    let grid: Vec<ClassifierSpec> = match kind {
        ModelKind::Lr => default_lr_grid()
            .into_iter()
            .map(ClassifierSpec::Lr)
            .collect(),
        ModelKind::Dnn => default_mlp_grid()
            .into_iter()
            .map(ClassifierSpec::Mlp)
            .collect(),
        ModelKind::Xgb => default_gbdt_grid()
            .into_iter()
            .map(ClassifierSpec::Gbdt)
            .collect(),
        ModelKind::Conv => {
            let net = ConvNetConfig::small(image_side(train, "convnet")?);
            return convnet_pipeline(train, &config, kind.name(), &net, rng);
        }
    };
    let (labels, m) = (train.labels(), train.n_classes());
    fit_pipeline(train, &config, kind.name(), |x| {
        ClassifierSpec::cross_validate(&grid, x, labels, m, rng)?.fit(x, labels, m, rng)
    })
}

/// Trains the requested model family with fixed default hyperparameters,
/// skipping the cross-validated grid search. Used by the smoke-scale
/// experiment harness where wall-clock matters more than the last accuracy
/// point; `--scale paper` runs keep the full CV protocol via
/// [`train_model`].
pub fn train_model_quick(
    kind: ModelKind,
    train: &DataFrame,
    rng: &mut impl Rng,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    // High-dimensional hashed text blows up exact-split tree training;
    // quick mode trades hash buckets for wall-clock (the full CV protocol
    // of `train_model` keeps the default dimensionality).
    let has_text = !train.schema().text_columns().is_empty();
    let config = if has_text {
        PipelineConfig {
            text_buckets: 512,
            ..PipelineConfig::default()
        }
    } else {
        PipelineConfig::default()
    };
    let spec = match kind {
        ModelKind::Lr => ClassifierSpec::Lr(LrConfig::default()),
        ModelKind::Dnn => ClassifierSpec::Mlp(MlpConfig::default()),
        ModelKind::Xgb => ClassifierSpec::Gbdt(GbdtConfig {
            colsample: if has_text { 0.2 } else { 0.8 },
            ..GbdtConfig::default()
        }),
        ModelKind::Conv => {
            let net = ConvNetConfig::small(image_side(train, "convnet")?);
            return convnet_pipeline(train, &config, kind.name(), &net, rng);
        }
    };
    fit_pipeline(train, &config, kind.name(), |x| {
        spec.fit(x, train.labels(), train.n_classes(), rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_accuracy;
    use lvp_dataframe::toy_frame;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pipeline_model_hides_internals_and_predicts() {
        let df = toy_frame(60);
        let mut rng = StdRng::seed_from_u64(1);
        let model = train_model(ModelKind::Lr, &df, &mut rng).unwrap();
        assert_eq!(model.name(), "lr");
        assert_eq!(model.n_classes(), 2);
        let p = model.predict_proba(&df);
        assert_eq!(p.rows(), 60);
        assert_eq!(p.cols(), 2);
        // toy_frame's label is perfectly encoded in the categorical column.
        assert!(model_accuracy(model.as_ref(), &df) > 0.95);
    }

    #[test]
    fn encoding_cache_is_invisible_through_the_black_box() {
        let df = toy_frame(40);
        let mut rng = StdRng::seed_from_u64(3);
        let featurizer = FeaturePipeline::fit(&df, &PipelineConfig::default());
        let x = featurizer.transform(&df);
        let grid: Vec<ClassifierSpec> = default_lr_grid()
            .into_iter()
            .map(ClassifierSpec::Lr)
            .collect();
        let ClassifierSpec::Lr(best) =
            ClassifierSpec::cross_validate(&grid, &x, df.labels(), df.n_classes(), &mut rng)
                .unwrap()
        else {
            unreachable!("an LR grid selects an LR candidate");
        };
        let lr = LogisticRegression::fit(&x, df.labels(), df.n_classes(), &best, &mut rng).unwrap();
        let model = PipelineModel::new(featurizer.clone(), Box::new(lr.clone()), "lr");
        // Cold reference: featurize without any cache, classify directly.
        let reference = lr.predict_proba(&featurizer.transform(&df));
        // Two cached calls (second fully hits) must match it bit for bit.
        assert_eq!(model.predict_proba(&df), reference);
        assert_eq!(model.predict_proba(&df), reference);
        let stats = model.cache_stats();
        assert_eq!(stats.misses, df.n_cols() as u64);
        assert_eq!(stats.hits, df.n_cols() as u64);
        // A copy-on-write corruption re-encodes only the touched column.
        let mut corrupted = df.clone();
        corrupted.column_mut(0).set_null(5);
        let expected = lr.predict_proba(&featurizer.transform(&corrupted));
        assert_eq!(model.predict_proba(&corrupted), expected);
        let stats = model.cache_stats();
        assert_eq!(stats.misses, df.n_cols() as u64 + 1);
        model.clear_encoding_cache();
        assert_eq!(model.cache_stats().entries, 0);
    }

    #[test]
    fn attached_telemetry_counts_calls_rows_and_cache_traffic() {
        let df = toy_frame(40);
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = train_model(ModelKind::Lr, &df, &mut rng).unwrap();
        let registry = Registry::new();
        model.attach_telemetry(&registry);
        let reference = {
            let mut rng = StdRng::seed_from_u64(4);
            train_model(ModelKind::Lr, &df, &mut rng)
                .unwrap()
                .predict_proba(&df)
        };
        // Instrumentation must not change the outputs.
        assert_eq!(model.predict_proba(&df), reference);
        assert_eq!(model.predict_proba(&df), reference);
        model.publish_telemetry();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["model.predict.calls"], 2);
        assert_eq!(snap.counters["model.predict.rows"], 80);
        let h = &snap.histograms["model.predict.latency"];
        assert_eq!(h.count, 2);
        assert_eq!(h.bucket_total(), h.count);
        // The second call hit the cache for every column.
        assert_eq!(snap.counters["model.cache.hits"], df.n_cols() as u64);
        assert_eq!(snap.counters["model.cache.misses"], df.n_cols() as u64);
        // Uninstrumented models stay silent.
        let quiet = train_model(ModelKind::Lr, &df, &mut rng).unwrap();
        quiet.publish_telemetry();
        quiet.predict_proba(&df);
    }

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::Lr.name(), "lr");
        assert_eq!(ModelKind::Conv.name(), "conv");
        assert_eq!(ModelKind::TABULAR.len(), 3);
    }

    #[test]
    fn convnet_requires_images() {
        let df = toy_frame(10);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(train_model(ModelKind::Conv, &df, &mut rng).is_err());
    }
}
