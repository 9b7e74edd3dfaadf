//! K-fold cross-validated grid search.
//!
//! The paper trains every model with five-fold cross-validation and a grid
//! search over its key hyperparameters (§6 "Models", §4 for the random
//! forest meta-model). [`select_config`] is that protocol, shared by the
//! classifier families (held-out accuracy) and the forest meta-model
//! (held-out MAE).

use crate::ModelError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Picks the grid candidate with the highest mean fold score under k-fold
/// cross-validation over `n_rows` rows.
///
/// `fold_score(candidate, train_rows, validation_rows, rng)` fits the
/// candidate on the training rows and scores it on the validation rows
/// (higher is better). The protocol, whose order keeps every fitted model
/// reproducible:
///
/// * the rows are shuffled into `k_folds` folds with `rng`;
/// * one seed per candidate is then drawn from `rng`, and each candidate
///   evaluates all its folds on its own `StdRng`, seeded from the end of
///   that list;
/// * a candidate's score is the mean of its fold scores, summed in fold
///   order; a fold whose fit fails scores the candidate `-∞`.
///
/// With fewer rows than folds some validation folds would be empty, and
/// an empty fold scores 0.0 accuracy (or 0.0 MAE) — a value that says
/// nothing about the candidate but still weighs on its mean. So that case
/// returns the first candidate without cross-validating and without
/// drawing from `rng`.
///
/// An empty grid and fewer than two folds are typed errors.
pub fn select_config<C: Clone>(
    n_rows: usize,
    grid: &[C],
    k_folds: usize,
    rng: &mut impl Rng,
    mut fold_score: impl FnMut(&C, &[usize], &[usize], &mut StdRng) -> Result<f64, ModelError>,
) -> Result<C, ModelError> {
    let first = grid
        .first()
        .ok_or_else(|| ModelError::new("empty hyperparameter grid"))?;
    if n_rows < k_folds {
        return Ok(first.clone());
    }
    if k_folds < 2 {
        return Err(ModelError::new(format!(
            "cross-validation needs at least two folds, got {k_folds}"
        )));
    }
    let folds = kfold_indices(n_rows, k_folds, rng);
    let mut seeds: Vec<u64> = (0..grid.len()).map(|_| rng.gen()).collect();
    let (best, _) = grid_search_max(grid, |candidate| {
        let mut local = StdRng::seed_from_u64(seeds.pop().unwrap_or(0));
        let mut total = 0.0;
        for (train, val) in &folds {
            match fold_score(candidate, train, val, &mut local) {
                Ok(score) => total += score,
                Err(_) => return f64::NEG_INFINITY,
            }
        }
        total / folds.len() as f64
    });
    Ok(best)
}

/// Produces `k` (train, validation) index partitions of `0..n`.
///
/// Rows are shuffled once, then each fold takes a contiguous slice as its
/// validation set; folds are disjoint and cover all rows.
fn kfold_indices(n: usize, k: usize, rng: &mut impl Rng) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "need at least two folds");
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let mut folds = Vec::with_capacity(k);
    for f in 0..k {
        let lo = n * f / k;
        let hi = n * (f + 1) / k;
        let val: Vec<usize> = idx[lo..hi].to_vec();
        let train: Vec<usize> = idx[..lo].iter().chain(&idx[hi..]).copied().collect();
        folds.push((train, val));
    }
    folds
}

/// Exhaustive grid search: evaluates `score_fn(candidate)` (higher is
/// better) for every candidate and returns the best one with its score.
///
/// NaN scores lose explicitly: a NaN never replaces an incumbent, and any
/// non-NaN score replaces a NaN incumbent. (With a plain `s > best`
/// comparison a NaN incumbent — e.g. a fold score that divides zero by
/// zero — would silently win against every later candidate.)
///
/// Panics on an empty grid; [`select_config`] rejects one before calling.
fn grid_search_max<C: Clone>(candidates: &[C], mut score_fn: impl FnMut(&C) -> f64) -> (C, f64) {
    assert!(!candidates.is_empty(), "empty hyperparameter grid");
    let mut best: Option<(C, f64)> = None;
    for c in candidates {
        let s = score_fn(c);
        let better = match &best {
            None => true,
            Some((_, bs)) => s > *bs || (bs.is_nan() && !s.is_nan()),
        };
        if better {
            best = Some((c.clone(), s));
        }
    }
    best.expect("non-empty grid produced a winner")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbdt::{default_gbdt_grid, GbdtClassifier, GbdtConfig};
    use crate::linear::default_lr_grid;
    use crate::mlp::default_mlp_grid;
    use crate::pipeline::ClassifierSpec;
    use lvp_linalg::{CsrMatrix, SparseVec};

    /// Linearly separable blobs in 2D.
    fn blobs(n: usize, seed: u64) -> (CsrMatrix, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let y = (i % 2) as u32;
            let cx = if y == 0 { -1.0 } else { 1.0 };
            let x0 = cx + rng.gen_range(-0.5..0.5);
            let x1 = cx + rng.gen_range(-0.5..0.5);
            rows.push(SparseVec::from_pairs(2, vec![(0, x0), (1, x1)]).unwrap());
            labels.push(y);
        }
        (CsrMatrix::from_sparse_rows(&rows).unwrap(), labels)
    }

    /// Cross-validated selection over `grid` with `k_folds` folds, then the
    /// refit of the winner on every row.
    fn select_and_refit(
        grid: &[ClassifierSpec],
        x: &CsrMatrix,
        y: &[u32],
        k_folds: usize,
        rng: &mut StdRng,
    ) -> (ClassifierSpec, Box<dyn crate::Classifier>) {
        let best = select_config(x.rows(), grid, k_folds, rng, |spec, train, val, local| {
            crate::pipeline::holdout_accuracy(x, y, train, val, |xt, yt| spec.fit(xt, yt, 2, local))
        })
        .unwrap();
        let model = best.fit(x, y, 2, rng).unwrap();
        (best, model)
    }

    #[test]
    fn empty_grid_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(1);
        let err = select_config::<u8>(10, &[], 5, &mut rng, |_, _, _, _| Ok(0.0)).unwrap_err();
        assert!(err.message.contains("empty hyperparameter grid"));
        // Also with fewer rows than folds, where the grid is not searched.
        assert!(select_config::<u8>(2, &[], 5, &mut rng, |_, _, _, _| Ok(0.0)).is_err());
    }

    #[test]
    fn fewer_rows_than_folds_returns_the_first_config_without_drawing() {
        let mut rng = StdRng::seed_from_u64(2);
        let before = rng.clone();
        let mut calls = 0;
        let best = select_config(4, &[7, 8, 9], 5, &mut rng, |_, _, _, _| {
            calls += 1;
            Ok(1.0)
        })
        .unwrap();
        assert_eq!(best, 7);
        assert_eq!(calls, 0);
        assert_eq!(rng, before, "the fallback must not draw from rng");
    }

    #[test]
    fn picks_the_best_grid_member_and_failed_fits_lose() {
        let grid = [3u32, 1, 4, 2];
        let mut rng = StdRng::seed_from_u64(3);
        // Every fold scores the candidate's own value, except that 4 fails
        // to fit: the best mean among the fitted candidates wins.
        let best = select_config(20, &grid, 4, &mut rng, |&c, train, val, _| {
            assert_eq!(train.len() + val.len(), 20);
            if c == 4 {
                Err(ModelError::new("fit failed"))
            } else {
                Ok(f64::from(c))
            }
        })
        .unwrap();
        assert_eq!(best, 3);
    }

    #[test]
    fn fewer_than_two_folds_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(select_config(10, &[1], 1, &mut rng, |_, _, _, _| Ok(0.0)).is_err());
    }

    #[test]
    fn lr_grid_search_returns_good_model() {
        let (x, y) = blobs(120, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let grid: Vec<ClassifierSpec> = default_lr_grid()
            .into_iter()
            .map(ClassifierSpec::Lr)
            .collect();
        let (cfg, model) = select_and_refit(&grid, &x, &y, 3, &mut rng);
        assert!(grid.contains(&cfg));
        let pred = model.predict_proba(&x).argmax_rows();
        let labels: Vec<usize> = y.iter().map(|&l| l as usize).collect();
        assert!(lvp_stats::accuracy(&pred, &labels) > 0.95);
    }

    #[test]
    fn mlp_cv_picks_a_grid_member() {
        let (x, y) = blobs(150, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let grid: Vec<ClassifierSpec> = default_mlp_grid()
            .into_iter()
            .map(ClassifierSpec::Mlp)
            .collect();
        let (cfg, _) = select_and_refit(&grid, &x, &y, 3, &mut rng);
        assert!(grid.contains(&cfg));
    }

    #[test]
    fn gbdt_cv_returns_grid_member() {
        let (x, y) = blobs(120, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let grid = [
            ClassifierSpec::Gbdt(GbdtConfig {
                n_rounds: 5,
                ..GbdtConfig::default()
            }),
            ClassifierSpec::Gbdt(GbdtConfig {
                n_rounds: 15,
                ..GbdtConfig::default()
            }),
        ];
        let (cfg, _) = select_and_refit(&grid, &x, &y, 3, &mut rng);
        assert!(grid.contains(&cfg));
    }

    /// With fewer rows than folds the first grid entry is fitted without
    /// scoring empty validation folds.
    #[test]
    fn gbdt_tiny_dataset_falls_back_without_cv() {
        let (x, y) = blobs(3, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let grid = default_gbdt_grid();
        let specs: Vec<ClassifierSpec> = grid.iter().copied().map(ClassifierSpec::Gbdt).collect();
        let (cfg, _) = select_and_refit(&specs, &x, &y, 5, &mut rng);
        assert_eq!(cfg, ClassifierSpec::Gbdt(grid[0]));
        let model = GbdtClassifier::fit(&x, &y, 2, &grid[0], &mut rng).unwrap();
        assert!(model.n_trees() > 0);
    }

    #[test]
    fn folds_partition_all_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let folds = kfold_indices(103, 5, &mut rng);
        assert_eq!(folds.len(), 5);
        let mut seen = [false; 103];
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 103);
            for &i in val {
                assert!(!seen[i], "row {i} in two validation folds");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every row validates exactly once");
    }

    #[test]
    fn train_and_val_are_disjoint() {
        let mut rng = StdRng::seed_from_u64(2);
        for (train, val) in kfold_indices(50, 5, &mut rng) {
            for v in &val {
                assert!(!train.contains(v));
            }
        }
    }

    #[test]
    fn grid_search_picks_maximum() {
        let grid = [1, 5, 3];
        let (best, score) = grid_search_max(&grid, |&c| f64::from(c));
        assert_eq!(best, 5);
        assert_eq!(score, 5.0);
    }

    #[test]
    #[should_panic(expected = "empty hyperparameter grid")]
    fn grid_search_rejects_empty_grid() {
        grid_search_max::<u8>(&[], |_| 0.0);
    }

    /// Satellite-2 regression test: a NaN score for the first candidate
    /// must not shadow every later finite score.
    #[test]
    fn nan_incumbent_loses_to_any_finite_score() {
        let grid = [1, 2, 3];
        let (best, score) = grid_search_max(&grid, |&c| match c {
            1 => f64::NAN,
            2 => -5.0,
            _ => -7.0,
        });
        assert_eq!(best, 2);
        assert_eq!(score, -5.0);
    }

    #[test]
    fn nan_candidate_never_replaces_finite_incumbent() {
        let grid = [1, 2];
        let (best, score) = grid_search_max(&grid, |&c| if c == 1 { 0.5 } else { f64::NAN });
        assert_eq!(best, 1);
        assert_eq!(score, 0.5);
    }

    #[test]
    fn all_nan_scores_fall_back_to_first_candidate() {
        let grid = [7, 8];
        let (best, score) = grid_search_max(&grid, |_| f64::NAN);
        assert_eq!(best, 7);
        assert!(score.is_nan());
    }
}
