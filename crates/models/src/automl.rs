//! AutoML-style searchers producing opaque black box pipelines (§6.3).
//!
//! The paper validates its approach on models produced by auto-sklearn,
//! TPOT and auto-keras. What matters for the experiment is that the model
//! was chosen by an *automated search the validator knows nothing about*;
//! these searchers reproduce the three archetypes over our model families:
//!
//! * [`auto_sklearn_like`] — budgeted candidate evaluation with successive
//!   halving across all tabular families and their hyperparameter grids,
//! * [`tpot_like`] — a small evolutionary search mutating candidate
//!   classifiers (model family and hyperparameters),
//! * [`auto_keras_like`] — architecture search over convolutional network
//!   widths,
//! * [`large_convnet`] — the larger hand-specified convnet of Figure 6.
//!
//! Every searcher scores its candidates by the accuracy on one 80/20
//! holdout split of the featurized training rows.

use crate::convnet::{ConvNet, ConvNetConfig};
use crate::gbdt::GbdtConfig;
use crate::linear::{LrConfig, Penalty};
use crate::mlp::MlpConfig;
use crate::pipeline::{
    convnet_pipeline, fit_pipeline, holdout_accuracy, image_side, ClassifierSpec,
};
use crate::{BlackBoxModel, ModelError};
use lvp_dataframe::DataFrame;
use lvp_featurize::PipelineConfig;
use rand::seq::SliceRandom;
use rand::Rng;

/// The searchers' candidate space over the tabular classifier families.
impl ClassifierSpec {
    fn random(rng: &mut impl Rng) -> Self {
        match rng.gen_range(0..3) {
            0 => Self::Lr(LrConfig {
                penalty: if rng.gen_bool(0.5) {
                    Penalty::L2(10f64.powf(rng.gen_range(-5.0..-2.0)))
                } else {
                    Penalty::L1(10f64.powf(rng.gen_range(-5.0..-2.0)))
                },
                learning_rate: 10f64.powf(rng.gen_range(-2.0..-0.5)),
                epochs: rng.gen_range(8..20),
                batch_size: 32,
            }),
            1 => Self::Mlp(MlpConfig {
                hidden1: *[16, 32, 64].get(rng.gen_range(0..3)).unwrap(),
                hidden2: *[8, 16, 32].get(rng.gen_range(0..3)).unwrap(),
                learning_rate: 10f64.powf(rng.gen_range(-3.0..-1.5)),
                epochs: rng.gen_range(6..14),
                batch_size: 32,
            }),
            _ => Self::Gbdt(GbdtConfig {
                n_rounds: rng.gen_range(10..40),
                max_depth: rng.gen_range(2..5),
                learning_rate: rng.gen_range(0.1..0.5),
                ..GbdtConfig::default()
            }),
        }
    }

    /// Randomly perturbs one hyperparameter.
    fn mutate(&self, rng: &mut impl Rng) -> Self {
        let mut g = self.clone();
        match &mut g {
            Self::Lr(cfg) => match rng.gen_range(0..2) {
                0 => cfg.learning_rate = (cfg.learning_rate * rng.gen_range(0.5..2.0)).min(0.5),
                _ => cfg.epochs = (cfg.epochs + rng.gen_range(0..6)).clamp(5, 25),
            },
            Self::Mlp(cfg) => match rng.gen_range(0..2) {
                0 => cfg.hidden1 = (cfg.hidden1 * if rng.gen_bool(0.5) { 2 } else { 1 }).min(128),
                _ => cfg.learning_rate = (cfg.learning_rate * rng.gen_range(0.5..2.0)).min(0.1),
            },
            Self::Gbdt(cfg) => match rng.gen_range(0..3) {
                0 => cfg.n_rounds = (cfg.n_rounds + rng.gen_range(1..15)).min(60),
                1 => cfg.max_depth = (cfg.max_depth + 1).min(6),
                _ => cfg.learning_rate = (cfg.learning_rate * rng.gen_range(0.5..1.5)).min(0.8),
            },
        }
        g
    }
}

/// The searchers' holdout split of `n` featurized rows: (train, validation)
/// row indices, 80/20 after one shuffle.
fn holdout_split(n: usize, rng: &mut impl Rng) -> (Vec<usize>, Vec<usize>) {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let cut = (n as f64 * 0.8).round() as usize;
    let val = idx.split_off(cut);
    (idx, val)
}

/// Successive-halving search over random candidates (auto-sklearn
/// archetype): evaluates `budget` random candidates on a subsample, keeps
/// the better half on the full training split, and deploys the winner.
pub fn auto_sklearn_like(
    train: &DataFrame,
    budget: usize,
    rng: &mut impl Rng,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    let (labels, m) = (train.labels(), train.n_classes());
    fit_pipeline(train, &PipelineConfig::default(), "auto-sklearn", |x| {
        let (train_idx, val_idx) = holdout_split(x.rows(), rng);
        let score = |spec: &ClassifierSpec, rows: &[usize], rng: &mut _| {
            holdout_accuracy(x, labels, rows, &val_idx, |xt, yt| spec.fit(xt, yt, m, rng))
                .unwrap_or(f64::NEG_INFINITY)
        };

        // Round 1: cheap evaluation on a subsample of the training split.
        let sub: Vec<usize> = train_idx.iter().step_by(2).copied().collect();
        let mut candidates: Vec<(ClassifierSpec, f64)> = (0..budget.max(2))
            .map(|_| {
                let g = ClassifierSpec::random(rng);
                let s = score(&g, &sub, rng);
                (g, s)
            })
            .collect();
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        candidates.truncate((candidates.len() / 2).max(1));

        // Round 2: full training split for the survivors.
        let (best, _) = candidates
            .into_iter()
            .map(|(g, _)| {
                let s = score(&g, &train_idx, rng);
                (g, s)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("at least one survivor");
        best.fit(x, labels, m, rng)
    })
}

/// Evolutionary search (TPOT archetype): a small population of candidates
/// evolved by mutation with truncation selection on holdout accuracy.
pub fn tpot_like(
    train: &DataFrame,
    generations: usize,
    population: usize,
    rng: &mut impl Rng,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    let (labels, m) = (train.labels(), train.n_classes());
    fit_pipeline(train, &PipelineConfig::default(), "tpot", |x| {
        let (train_idx, val_idx) = holdout_split(x.rows(), rng);
        let score = |spec: &ClassifierSpec, rng: &mut _| {
            holdout_accuracy(x, labels, &train_idx, &val_idx, |xt, yt| {
                spec.fit(xt, yt, m, rng)
            })
            .unwrap_or(f64::NEG_INFINITY)
        };

        let population = population.max(2);
        let mut pop: Vec<(ClassifierSpec, f64)> = (0..population)
            .map(|_| {
                let g = ClassifierSpec::random(rng);
                let s = score(&g, rng);
                (g, s)
            })
            .collect();

        for _gen in 0..generations {
            pop.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            pop.truncate((population / 2).max(1));
            let parents: Vec<ClassifierSpec> = pop.iter().map(|(g, _)| g.clone()).collect();
            for parent in parents {
                if pop.len() >= population {
                    break;
                }
                let child = parent.mutate(rng);
                let s = score(&child, rng);
                pop.push((child, s));
            }
        }
        pop.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        pop.remove(0).0.fit(x, labels, m, rng)
    })
}

/// Neural architecture search over convnet widths (auto-keras archetype).
pub fn auto_keras_like(
    train: &DataFrame,
    trials: usize,
    rng: &mut impl Rng,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    let side = image_side(train, "auto-keras search")?;
    let (labels, m) = (train.labels(), train.n_classes());
    fit_pipeline(train, &PipelineConfig::default(), "auto-keras", |x| {
        let (train_idx, val_idx) = holdout_split(x.rows(), rng);
        let mut best: Option<(ConvNetConfig, f64)> = None;
        for _ in 0..trials.max(1) {
            let cfg = ConvNetConfig {
                c1: *[3, 4, 6].get(rng.gen_range(0..3)).unwrap(),
                c2: *[6, 8, 12].get(rng.gen_range(0..3)).unwrap(),
                dense: *[16, 32].get(rng.gen_range(0..2)).unwrap(),
                ..ConvNetConfig::small(side)
            };
            let score = holdout_accuracy(x, labels, &train_idx, &val_idx, |xt, yt| {
                Ok(Box::new(ConvNet::fit(xt, yt, m, &cfg, rng)?))
            })
            .unwrap_or(f64::NEG_INFINITY);
            if best.as_ref().is_none_or(|(_, s)| score > *s) {
                best = Some((cfg, score));
            }
        }
        let (cfg, _) = best.expect("at least one trial ran");
        Ok(Box::new(ConvNet::fit(x, labels, m, &cfg, rng)?))
    })
}

/// The hand-specified larger convnet of Figure 6.
pub fn large_convnet(
    train: &DataFrame,
    rng: &mut impl Rng,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    let net = ConvNetConfig {
        c1: 8,
        c2: 16,
        dense: 48,
        ..ConvNetConfig::small(image_side(train, "large-convnet")?)
    };
    convnet_pipeline(
        train,
        &PipelineConfig::default(),
        "large-convnet",
        &net,
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_accuracy;
    use lvp_dataframe::toy_frame;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn auto_sklearn_like_finds_a_working_model() {
        let df = toy_frame(80);
        let mut rng = StdRng::seed_from_u64(1);
        let model = auto_sklearn_like(&df, 4, &mut rng).unwrap();
        assert_eq!(model.name(), "auto-sklearn");
        assert!(model_accuracy(model.as_ref(), &df) > 0.8);
    }

    #[test]
    fn tpot_like_finds_a_working_model() {
        let df = toy_frame(80);
        let mut rng = StdRng::seed_from_u64(2);
        let model = tpot_like(&df, 2, 4, &mut rng).unwrap();
        assert_eq!(model.name(), "tpot");
        assert!(model_accuracy(model.as_ref(), &df) > 0.8);
    }

    #[test]
    fn auto_keras_requires_images() {
        let df = toy_frame(20);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(auto_keras_like(&df, 1, &mut rng).is_err());
        assert!(large_convnet(&df, &mut rng).is_err());
    }

    #[test]
    fn genome_mutation_changes_something_eventually() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = ClassifierSpec::random(&mut rng);
        let changed = (0..20).any(|_| g.mutate(&mut rng) != g);
        assert!(changed);
    }
}
