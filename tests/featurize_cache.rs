//! The identity-keyed encoding cache: cached featurization must be
//! bit-identical to the cold path on arbitrarily corrupted copy-on-write
//! copies, and must re-encode exactly the columns a copy touched.

use lvp_core::{prediction_statistics, BatchSketch};
use lvp_corruptions::{extended_tabular_suite, standard_tabular_suite};
use lvp_dataframe::{CellValue, ColumnType, DataFrameBuilder, Field, Schema};
use lvp_featurize::{EncodingCache, FeaturePipeline, PipelineConfig};
use lvp_models::{train_model, ModelKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a small mixed numeric/categorical frame from generated cells.
fn build_frame(nums: &[f64], cats: &[u8]) -> lvp_dataframe::DataFrame {
    let n = nums.len().min(cats.len());
    let schema = Schema::new(vec![
        Field::new("x", ColumnType::Numeric),
        Field::new("c", ColumnType::Categorical),
    ])
    .unwrap();
    let mut b = DataFrameBuilder::new(schema, vec!["n".into(), "y".into()]);
    for i in 0..n {
        b.push_row(
            vec![
                CellValue::Num(nums[i]),
                CellValue::Cat(format!("c{}", cats[i] % 5)),
            ],
            (i % 2) as u32,
        )
        .unwrap();
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every error generator, featurizing the corrupted CoW copy
    /// through a warm cache is bit-identical to the cold row-major
    /// transform of the same copy.
    #[test]
    fn cached_transform_of_corrupted_copies_matches_cold_transform(
        nums in prop::collection::vec(-1000f64..1000.0, 4..60),
        cats in prop::collection::vec(0u8..255, 4..60),
        seed in 0u64..1000,
    ) {
        let df = build_frame(&nums, &cats);
        let pipeline = FeaturePipeline::fit(&df, &PipelineConfig::default());
        let mut cache = EncodingCache::new();
        // Warm the cache on the clean frame; corrupted copies share every
        // untouched column with it.
        prop_assert_eq!(
            pipeline.transform_cached(&df, &mut cache),
            pipeline.transform(&df)
        );
        let mut gens = standard_tabular_suite(df.schema());
        gens.extend(extended_tabular_suite(df.schema()));
        for gen in gens {
            let corrupted = gen.corrupt(&df.clone(), &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(
                pipeline.transform_cached(&corrupted, &mut cache),
                pipeline.transform(&corrupted),
                "{}", gen.name()
            );
        }
    }

    /// On every corrupted CoW copy, featurizing the model's outputs
    /// through the streaming sketch stays within the sketches' proven
    /// value-error bound of the exact sort-based featurization — so a
    /// monitor running off sketches sees the same drift signal the
    /// materialized path would, for any corruption the generators produce.
    #[test]
    fn sketched_features_track_exact_features_on_corrupted_copies(
        nums in prop::collection::vec(-1000f64..1000.0, 8..60),
        cats in prop::collection::vec(0u8..255, 8..60),
        seed in 0u64..1000,
    ) {
        let df = build_frame(&nums, &cats);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = train_model(ModelKind::Lr, &df, &mut rng).unwrap();
        let mut gens = standard_tabular_suite(df.schema());
        gens.extend(extended_tabular_suite(df.schema()));
        for gen in gens {
            let corrupted = gen.corrupt(&df.clone(), &mut StdRng::seed_from_u64(seed));
            let proba = model.predict_proba(&corrupted);
            let exact = prediction_statistics(&proba);
            let sketch = BatchSketch::from_outputs(&proba);
            let sketched = sketch.prediction_statistics();
            prop_assert_eq!(exact.len(), sketched.len(), "{}", gen.name());
            let bound = sketch.value_error_bound() + 1e-12;
            for (i, (e, s)) in exact.iter().zip(&sketched).enumerate() {
                prop_assert!(
                    (e - s).abs() <= bound,
                    "{} dim {}: exact {} sketched {} bound {}",
                    gen.name(), i, e, s, bound
                );
            }
        }
    }
}

/// Per corrupted copy, the cache re-encodes exactly the touched columns:
/// hits == #columns − #touched_columns.
#[test]
fn cache_hits_equal_columns_minus_touched_per_copy() {
    let mut rng = StdRng::seed_from_u64(17);
    let df = lvp::datasets::income(120, &mut rng);
    let n_cols = df.n_cols() as u64;
    let pipeline = FeaturePipeline::fit(&df, &PipelineConfig::default());
    let mut cache = EncodingCache::new();

    // Cold pass: every column misses.
    pipeline.transform_cached(&df, &mut cache);
    assert_eq!(cache.misses(), n_cols);
    assert_eq!(cache.hits(), 0);

    // Corrupt an increasing prefix of columns per copy: each copy must hit
    // exactly on the untouched remainder.
    for touched in 0..=df.n_cols() {
        let mut copy = df.clone();
        for col in 0..touched {
            copy.column_mut(col).set_null(0);
        }
        cache.reset_stats();
        pipeline.transform_cached(&copy, &mut cache);
        assert_eq!(
            cache.hits(),
            n_cols - touched as u64,
            "copy touching {touched} columns"
        );
        assert_eq!(cache.misses(), touched as u64);
    }
}
