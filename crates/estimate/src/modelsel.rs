//! Model selection: k-fold cross-validation and hyper-parameter search.
//! The paper tunes (γ, C) by **grid search with 10-fold CV on the train
//! set** and notes that grid search outperformed random search at this
//! sample size (§V-B-2).

use crate::mean_absolute_error;
use crate::svr::{Svr, SvrParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Outcome of a hyper-parameter search.
#[derive(Debug, Clone, Copy)]
pub struct GridSearchResult {
    /// The winning hyper-parameters.
    pub params: SvrParams,
    /// Mean CV relative error of the winner.
    pub cv_error: f64,
    /// Number of candidates evaluated.
    pub evaluated: usize,
    /// Number of SVR fits actually performed. Grid search reuses a fold's
    /// fit across larger C once the box constraint stops binding, so this
    /// can be well below `evaluated × k`.
    pub fits: usize,
}

/// The regularization grid, ascending: [`grid_search`] walks it in this
/// order so a fit at one C can stand in for every larger one.
const GRID_CS: [f64; 8] = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7];
const GRID_GAMMAS: [f64; 8] = [0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0];
const EPSILON: f64 = 1e-3;

/// Splits `n` samples into `k` contiguous folds of near-equal size,
/// shuffled by `seed`. Returns per-fold index lists.
///
/// # Panics
///
/// Panics if `k` is 0 or exceeds `n`.
pub fn k_fold_indices(n: usize, k: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(k > 0 && k <= n, "need 0 < k <= n (k={k}, n={n})");
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    let mut folds = vec![Vec::new(); k];
    for (pos, &i) in idx.iter().enumerate() {
        folds[pos % k].push(i);
    }
    folds
}

/// One CV fold: the rows it trains on (every row outside the fold, in
/// index order) and the rows it is scored on.
struct Split<'a> {
    train_x: Vec<Vec<f64>>,
    train_y: Vec<f64>,
    test_x: Vec<&'a [f64]>,
    test_y: Vec<f64>,
}

/// Builds the `k`-fold splits shared by both searches. With at least two
/// rows and two folds, every fold and every training set is non-empty.
fn cv_splits<'a>(x: &'a [Vec<f64>], y: &[f64], k: usize, seed: u64) -> Vec<Split<'a>> {
    assert!(k >= 2, "cross-validation needs at least 2 folds (k={k})");
    assert!(
        x.len() >= 2,
        "cross-validation needs at least 2 rows (n={})",
        x.len()
    );
    assert_eq!(x.len(), y.len(), "x/y length mismatch");
    k_fold_indices(x.len(), k.min(x.len()), seed)
        .iter()
        .map(|fold| {
            let mut in_fold = vec![false; x.len()];
            for &i in fold {
                in_fold[i] = true;
            }
            let train: Vec<usize> = (0..x.len()).filter(|&i| !in_fold[i]).collect();
            Split {
                train_x: train.iter().map(|&i| x[i].clone()).collect(),
                train_y: train.iter().map(|&i| y[i]).collect(),
                test_x: fold.iter().map(|&i| x[i].as_slice()).collect(),
                test_y: fold.iter().map(|&i| y[i]).collect(),
            }
        })
        .collect()
}

/// Fits one fold at `params`; returns the held-out mean absolute error
/// and the fit's C floor (see [`Svr::fit_with_floor`]). The analytical
/// estimator regresses the latency ratio TRN/original, so this absolute
/// error is an error relative to the source network's latency.
fn fold_error(split: &Split, params: &SvrParams) -> (f64, f64) {
    let (model, c_floor) = Svr::fit_with_floor(&split.train_x, &split.train_y, params);
    let pred: Vec<f64> = split.test_x.iter().map(|row| model.predict(row)).collect();
    (mean_absolute_error(&pred, &split.test_y), c_floor)
}

/// Mean of per-fold errors, summed in fold order.
fn mean_over_folds(errors: impl Iterator<Item = f64>, folds: usize) -> f64 {
    errors.fold(0.0, |total, e| total + e) / folds as f64
}

/// Exhaustive grid search over (C, γ) with `k`-fold CV (ε fixed small, as
/// in the paper). Returns the best configuration; ties go to the first
/// candidate in C-major, γ-minor order. `k` is capped at the row count
/// (leave-one-out).
///
/// For each (γ, fold) the C path is walked in ascending order, and a fit
/// whose box constraint never bound is reused for every larger C: those
/// fits would replay the identical trajectory (see
/// [`Svr::fit_with_floor`]), so the result is bit-identical to fitting
/// every candidate.
///
/// # Panics
///
/// Panics if `k < 2`, if there are fewer than 2 rows, or if
/// `x.len() != y.len()`.
pub fn grid_search(x: &[Vec<f64>], y: &[f64], k: usize, seed: u64) -> GridSearchResult {
    let splits = cv_splits(x, y, k, seed);
    let folds = splits.len();
    let params = |ci: usize, gi: usize| SvrParams {
        c: GRID_CS[ci],
        gamma: GRID_GAMMAS[gi],
        epsilon: EPSILON,
    };
    // errors[(ci * |γ| + gi) * folds + fi]: fold fi's error at (C_ci, γ_gi).
    let mut errors = vec![0.0f64; GRID_CS.len() * GRID_GAMMAS.len() * folds];
    let mut fits = 0;
    for gi in 0..GRID_GAMMAS.len() {
        for (fi, split) in splits.iter().enumerate() {
            let mut reusable: Option<(f64, f64)> = None;
            for ci in 0..GRID_CS.len() {
                let err = match reusable {
                    Some((err, c_floor)) if GRID_CS[ci] >= c_floor => err,
                    _ => {
                        let (err, c_floor) = fold_error(split, &params(ci, gi));
                        fits += 1;
                        reusable = Some((err, c_floor));
                        err
                    }
                };
                errors[(ci * GRID_GAMMAS.len() + gi) * folds + fi] = err;
            }
        }
    }
    let mut best = GridSearchResult {
        params: SvrParams::paper(),
        cv_error: f64::INFINITY,
        evaluated: GRID_CS.len() * GRID_GAMMAS.len(),
        fits,
    };
    for (candidate, fold_errors) in errors.chunks_exact(folds).enumerate() {
        let err = mean_over_folds(fold_errors.iter().copied(), folds);
        if err < best.cv_error {
            best.params = params(candidate / GRID_GAMMAS.len(), candidate % GRID_GAMMAS.len());
            best.cv_error = err;
        }
    }
    best
}

/// Random search over the same (C, γ) ranges with an equal evaluation
/// budget — the alternative the paper found inferior at this sample size.
///
/// # Panics
///
/// Panics under the same conditions as [`grid_search`].
pub fn random_search(
    x: &[Vec<f64>],
    y: &[f64],
    k: usize,
    budget: usize,
    seed: u64,
) -> GridSearchResult {
    let splits = cv_splits(x, y, k, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5);
    let mut best = GridSearchResult {
        params: SvrParams::paper(),
        cv_error: f64::INFINITY,
        evaluated: budget,
        fits: budget * splits.len(),
    };
    for _ in 0..budget {
        let params = SvrParams {
            c: 10f64.powf(rng.gen_range(0.0..6.0)),
            gamma: 10f64.powf(rng.gen_range(-2.0..0.5)),
            epsilon: EPSILON,
        };
        let err = mean_over_folds(
            splits.iter().map(|s| fold_error(s, &params).0),
            splits.len(),
        );
        if err < best.cv_error {
            best.params = params;
            best.cv_error = err;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toy() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 20.0]).collect();
        let y: Vec<f64> = x.iter().map(|v| (2.0 * v[0]).sin() + v[0]).collect();
        (x, y)
    }

    /// Reference CV error: one fresh fit per fold per candidate.
    fn oracle_cv_error(x: &[Vec<f64>], y: &[f64], params: &SvrParams, folds: &[Vec<usize>]) -> f64 {
        let mut total = 0.0;
        for fold in folds {
            let in_fold: std::collections::HashSet<usize> = fold.iter().copied().collect();
            let (mut tx, mut ty) = (Vec::new(), Vec::new());
            for i in 0..x.len() {
                if !in_fold.contains(&i) {
                    tx.push(x[i].clone());
                    ty.push(y[i]);
                }
            }
            if tx.is_empty() || fold.is_empty() {
                continue;
            }
            let model = Svr::fit(&tx, &ty, params);
            let pred: Vec<f64> = fold.iter().map(|&i| model.predict(&x[i])).collect();
            let truth: Vec<f64> = fold.iter().map(|&i| y[i]).collect();
            total += mean_absolute_error(&pred, &truth);
        }
        total / folds.len() as f64
    }

    /// Reference grid search: every candidate evaluated from scratch.
    fn oracle_grid_search(x: &[Vec<f64>], y: &[f64], k: usize, seed: u64) -> (SvrParams, f64) {
        let folds = k_fold_indices(x.len(), k.min(x.len()), seed);
        let mut best = (SvrParams::paper(), f64::INFINITY);
        for &c in &GRID_CS {
            for &gamma in &GRID_GAMMAS {
                let params = SvrParams {
                    c,
                    gamma,
                    epsilon: EPSILON,
                };
                let err = oracle_cv_error(x, y, &params, &folds);
                if err < best.1 {
                    best = (params, err);
                }
            }
        }
        best
    }

    fn search_input() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
        // Target scales from 0.1 to 1000 so the C = 1 and C = 10 boxes bind
        // on some inputs and not on others.
        (1usize..4, 2usize..16, -1.0f64..3.0).prop_flat_map(|(d, n, log_scale)| {
            (
                prop::collection::vec(prop::collection::vec(-2.0f64..2.0, d), n),
                prop::collection::vec(-1.0f64..1.0, n),
            )
                .prop_map(move |(x, noise)| {
                    let scale = 10f64.powf(log_scale);
                    let y = x
                        .iter()
                        .zip(&noise)
                        .map(|(row, nz)| scale * (row.iter().sum::<f64>().sin() + 0.1 * nz))
                        .collect();
                    (x, y)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn grid_search_matches_the_per_candidate_oracle(
            (x, y) in search_input(),
            k in 2usize..=10,
            seed in 0u64..1000,
        ) {
            let fast = grid_search(&x, &y, k, seed);
            let (params, cv_error) = oracle_grid_search(&x, &y, k, seed);
            prop_assert_eq!(fast.params, params);
            prop_assert_eq!(fast.cv_error.to_bits(), cv_error.to_bits());
            prop_assert_eq!(fast.evaluated, GRID_CS.len() * GRID_GAMMAS.len());
            prop_assert!(fast.fits <= fast.evaluated * k.min(x.len()));
        }
    }

    #[test]
    fn grid_search_reuses_fits_along_the_c_path() {
        let (x, y) = toy();
        let result = grid_search(&x, &y, 10, 3);
        assert!(
            result.fits < result.evaluated * 10,
            "{} fits for {} candidates",
            result.fits,
            result.evaluated
        );
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn grid_search_rejects_a_single_fold() {
        let (x, y) = toy();
        let _ = grid_search(&x, &y, 1, 3);
    }

    #[test]
    #[should_panic(expected = "at least 2 rows")]
    fn grid_search_rejects_a_single_row() {
        let _ = grid_search(&[vec![0.5]], &[1.0], 10, 3);
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn random_search_rejects_a_single_fold() {
        let (x, y) = toy();
        let _ = random_search(&x, &y, 1, 4, 3);
    }

    #[test]
    fn folds_partition_indices() {
        let folds = k_fold_indices(23, 10, 1);
        assert_eq!(folds.len(), 10);
        let mut all: Vec<usize> = folds.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn fold_sizes_are_balanced() {
        let folds = k_fold_indices(25, 10, 2);
        for f in &folds {
            assert!(f.len() == 2 || f.len() == 3);
        }
    }

    #[test]
    fn grid_search_finds_low_error_config() {
        let (x, y) = toy();
        let result = grid_search(&x, &y, 10, 3);
        assert!(result.cv_error < 0.05, "cv error = {}", result.cv_error);
        assert_eq!(result.evaluated, 8 * 8);
    }

    #[test]
    fn random_search_runs_budget() {
        let (x, y) = toy();
        let result = random_search(&x, &y, 5, 10, 4);
        assert!(result.cv_error.is_finite());
        assert_eq!(result.evaluated, 10);
        assert_eq!(result.fits, 10 * 5);
    }

    #[test]
    fn searches_are_deterministic_per_seed() {
        let (x, y) = toy();
        let a = grid_search(&x, &y, 5, 9);
        let b = grid_search(&x, &y, 5, 9);
        assert_eq!(a.params, b.params);
        assert_eq!(a.cv_error, b.cv_error);
    }
}
