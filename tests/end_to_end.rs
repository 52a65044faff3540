//! Integration tests spanning the whole workspace: dataset generation →
//! online collection game → learners → metrics.

use trimgame::core::ml_sim::{
    collect_poisoned, kmeans_metrics, svm_accuracy, MlArena, MlSimConfig,
};
use trimgame::core::simulation::{run_game, GameConfig, Scheme};
use trimgame::datasets::shapes::{control, taxi, Shape};
use trimgame::ml::metrics::ConfusionMatrix;
use trimgame::ml::svm::{SvmConfig, SvmModel};
use trimgame::numerics::rand_ext::seeded_rng;
use trimgame::numerics::stats::mean;

#[test]
fn control_dataset_through_full_kmeans_pipeline() {
    let data = control(&mut seeded_rng(1));
    let cfg = MlSimConfig {
        rounds: 6,
        batch: 120,
        ..MlSimConfig::new(Scheme::Elastic(0.5), 0.9, 0.3, 2)
    };
    let collected = collect_poisoned(&data, &cfg, MlArena::new(&data));
    assert!(collected.retained.rows() > 500);
    let (sse, distance) = kmeans_metrics(&collected, &data);
    assert!(sse.is_finite() && sse > 0.0);
    assert!(distance.is_finite() && distance >= 0.0);
}

#[test]
fn every_table_ii_shape_supports_the_scalar_game() {
    let mut rng = seeded_rng(4);
    for shape in Shape::ALL {
        let data = shape.generate_scaled(&mut rng, 512);
        // Project to the scalar game: 1-D sets use values, others use
        // centroid distances.
        let pool = if data.cols() == 1 {
            data.values().to_vec()
        } else {
            trimgame::datasets::percentile::centroid_distances(&data)
        };
        let mut cfg = GameConfig::new(Scheme::TitForTat);
        cfg.rounds = 4;
        cfg.batch = 100;
        let result = run_game(&pool, &cfg);
        assert_eq!(result.outcomes.len(), 4, "shape {shape:?}");
    }
}

#[test]
fn svm_pipeline_on_poisoned_control_stays_reasonable() {
    let data = control(&mut seeded_rng(5));
    // Clean reference accuracy.
    let clean_model = SvmModel::fit(&data, SvmConfig::default(), &mut seeded_rng(6));
    let clean_acc = clean_model.accuracy(&data);
    assert!(clean_acc > 0.85, "clean accuracy {clean_acc}");

    // Defended collection at a heavy ratio keeps accuracy near clean.
    let cfg = MlSimConfig {
        rounds: 6,
        batch: 120,
        ..MlSimConfig::new(Scheme::TitForTat, 0.95, 0.4, 7)
    };
    let collected = collect_poisoned(&data, &cfg, MlArena::new(&data));
    let defended_acc = svm_accuracy(&collected, &data, 8);
    assert!(
        defended_acc > clean_acc - 0.15,
        "defended accuracy {defended_acc} vs clean {clean_acc}"
    );
}

#[test]
fn confusion_matrix_from_svm_predictions() {
    let data = control(&mut seeded_rng(9));
    let model = SvmModel::fit(&data, SvmConfig::default(), &mut seeded_rng(10));
    let predictions = model.predict_all(&data);
    let cm = ConfusionMatrix::from_predictions(data.labels().unwrap(), &predictions, 6);
    assert_eq!(cm.classes(), 6);
    assert!(cm.accuracy() > 0.85);
    // PPV row renders for the Fig. 6a-style chart.
    assert_eq!(cm.ppv_row().len(), 6);
}

#[test]
fn taxi_population_statistics_are_stable() {
    let data = taxi(&mut seeded_rng(11), 128);
    let m = mean(data.values());
    // Two rush-hour peaks around +0.1 on the normalized clock.
    assert!(m > -0.2 && m < 0.4, "taxi mean {m}");
    assert!(data.values().iter().all(|v| (-1.0..=1.0).contains(v)));
}

#[test]
fn game_results_expose_cross_crate_invariants() {
    let pool: Vec<f64> = (0..5_000).map(|i| (i % 500) as f64).collect();
    for scheme in Scheme::roster() {
        let mut cfg = GameConfig::new(scheme);
        cfg.rounds = 6;
        cfg.batch = 250;
        let r = run_game(&pool, &cfg);
        // Thresholds/injections recorded per round.
        assert_eq!(r.thresholds.len(), 6);
        assert_eq!(r.injections.len(), 6);
        // Utilities cumulative and consistent with outcome count.
        assert_eq!(r.utilities.rounds(), 6);
        // Retained values equal the per-round kept concatenation.
        let total_kept: usize = r.outcomes.iter().map(|o| o.kept.len()).sum();
        assert_eq!(r.retained.len(), total_kept);
    }
}
