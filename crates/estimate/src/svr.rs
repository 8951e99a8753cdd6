//! ε-support-vector regression with an RBF kernel, implemented from
//! scratch (§V-B-2 uses ε-SVR with γ = 10⁻¹ and C = 10⁶).
//!
//! Training solves the dual in the `β = α − α*` parameterization by cyclic
//! coordinate descent. The bias is absorbed into the kernel by adding a
//! constant term (`K' = K + 1`), which removes the equality constraint
//! `Σβ = 0` and makes each coordinate subproblem a one-dimensional
//! soft-thresholded quadratic with a closed-form solution:
//!
//! maximize over `βᵢ ∈ [−C, C]`:
//! `−½K'ᵢᵢβᵢ² − βᵢ·rᵢ + βᵢyᵢ − ε|βᵢ|` where `rᵢ = Σ_{j≠i} K'ᵢⱼβⱼ`.

use serde::{Deserialize, Serialize};

/// ε-SVR hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvrParams {
    /// Regularization parameter (box constraint on dual coefficients).
    pub c: f64,
    /// RBF kernel coefficient `exp(−γ‖x−x'‖²)`.
    pub gamma: f64,
    /// Width of the ε-insensitive tube.
    pub epsilon: f64,
}

impl SvrParams {
    /// The paper's tuned values: γ = 10⁻¹, C = 10⁶ (ε chosen small).
    pub fn paper() -> Self {
        SvrParams {
            c: 1e6,
            gamma: 0.1,
            epsilon: 1e-3,
        }
    }
}

/// A trained ε-SVR model with RBF kernel.
///
/// See the [crate-level example](crate) for fitting a non-linear function.
#[derive(Debug, Clone)]
pub struct Svr {
    params: SvrParams,
    support: Vec<Vec<f64>>,
    beta: Vec<f64>,
}

fn rbf(a: &[f64], b: &[f64], gamma: f64) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (-gamma * d2).exp()
}

impl Svr {
    /// Fits the model on rows `x` with targets `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty, ragged, or `x.len() != y.len()`.
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: &SvrParams) -> Self {
        Self::fit_with_floor(x, y, params).0
    }

    /// Fits like [`fit`](Self::fit) and also returns the fit's *C floor*:
    /// the largest unclipped coordinate proposal `|βᵢ|` seen during
    /// training, or `f64::INFINITY` if some proposal exceeded `params.c`
    /// (the box bound). C enters the solver only through that clip, so
    /// when the box never bound, refitting at any `C' ≥ floor` replays the
    /// identical trajectory and yields bit-identical coefficients.
    pub(crate) fn fit_with_floor(x: &[Vec<f64>], y: &[f64], params: &SvrParams) -> (Self, f64) {
        assert!(!x.is_empty(), "empty training set");
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        let mut span = netcut_obs::span("estimate.fit.svr");
        let n = x.len();
        let d = x[0].len();
        span.field("samples", n);
        span.field("features", d);
        for row in x {
            assert_eq!(row.len(), d, "ragged feature matrix");
        }
        // Gram matrix with bias term folded in.
        let mut k = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let v = rbf(&x[i], &x[j], params.gamma) + 1.0;
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }
        let mut beta = vec![0.0f64; n];
        // f_cache[i] = Σ_j K[i][j] β_j
        let mut f_cache = vec![0.0f64; n];
        let mut c_floor = 0.0f64;
        let max_sweeps = 5000;
        for _ in 0..max_sweeps {
            let mut max_delta = 0.0f64;
            for i in 0..n {
                let kii = k[i * n + i];
                let r = f_cache[i] - kii * beta[i];
                // Optimal unclipped βᵢ for each sign branch of |βᵢ|.
                // The RBF+1 diagonal is exp(−0) + 1 = 2 exactly (a non-finite
                // row makes kii, r and both proposals NaN either way), and
                // x·0.5 rounds the same real number as x/kii.
                let plus = (y[i] - r - params.epsilon) * 0.5;
                let minus = (y[i] - r + params.epsilon) * 0.5;
                let new = if plus > 0.0 {
                    c_floor = c_floor.max(plus);
                    plus.min(params.c)
                } else if minus < 0.0 {
                    c_floor = c_floor.max(-minus);
                    minus.max(-params.c)
                } else {
                    0.0
                };
                let delta = new - beta[i];
                if delta != 0.0 {
                    beta[i] = new;
                    // K is symmetric, so row i is column i bit for bit; the
                    // contiguous walk vectorises without reassociating.
                    for (f, &kij) in f_cache.iter_mut().zip(&k[i * n..(i + 1) * n]) {
                        *f += delta * kij;
                    }
                    max_delta = max_delta.max(delta.abs());
                }
            }
            let scale = beta.iter().fold(1.0f64, |m, b| m.max(b.abs()));
            if max_delta < 1e-9 * scale {
                break;
            }
        }
        if c_floor > params.c {
            c_floor = f64::INFINITY;
        }
        let svr = Svr {
            params: *params,
            support: x.to_vec(),
            beta,
        };
        (svr, c_floor)
    }

    /// Predicts the target for one feature row.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.support
            .iter()
            .zip(&self.beta)
            .filter(|(_, &b)| b != 0.0)
            .map(|(s, &b)| b * (rbf(s, x, self.params.gamma) + 1.0))
            .sum()
    }

    /// Number of support vectors (non-zero dual coefficients).
    pub fn support_vector_count(&self) -> usize {
        self.beta.iter().filter(|&&b| b != 0.0).count()
    }

    /// The hyper-parameters used for fitting.
    pub fn params(&self) -> SvrParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![i as f64 / (n - 1) as f64 * 2.0 - 1.0])
            .collect()
    }

    #[test]
    fn fits_linear_function() {
        let x = grid(15);
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v[0] + 0.5).collect();
        let m = Svr::fit(
            &x,
            &y,
            &SvrParams {
                c: 1e3,
                gamma: 0.5,
                epsilon: 1e-3,
            },
        );
        for v in [-0.8, 0.0, 0.9] {
            let p = m.predict(&[v]);
            assert!((p - (2.0 * v + 0.5)).abs() < 0.05, "at {v}: {p}");
        }
    }

    #[test]
    fn fits_nonlinear_function_where_it_matters() {
        // y = sin(3x): strongly non-linear over [-1, 1].
        let x = grid(30);
        let y: Vec<f64> = x.iter().map(|v| (3.0 * v[0]).sin()).collect();
        let m = Svr::fit(
            &x,
            &y,
            &SvrParams {
                c: 1e4,
                gamma: 5.0,
                epsilon: 1e-3,
            },
        );
        for v in [-0.7, -0.2, 0.4, 0.8] {
            let p = m.predict(&[v]);
            assert!((p - (3.0 * v).sin()).abs() < 0.05, "at {v}: {p}");
        }
    }

    #[test]
    fn epsilon_tube_sparsifies() {
        let x = grid(30);
        let y: Vec<f64> = x.iter().map(|v| v[0]).collect();
        let tight = Svr::fit(
            &x,
            &y,
            &SvrParams {
                c: 1e3,
                gamma: 0.5,
                epsilon: 1e-4,
            },
        );
        let loose = Svr::fit(
            &x,
            &y,
            &SvrParams {
                c: 1e3,
                gamma: 0.5,
                epsilon: 0.3,
            },
        );
        assert!(loose.support_vector_count() < tight.support_vector_count());
    }

    #[test]
    fn c_bounds_coefficients() {
        let x = grid(10);
        let y: Vec<f64> = x.iter().map(|v| 100.0 * v[0]).collect();
        let m = Svr::fit(
            &x,
            &y,
            &SvrParams {
                c: 1.0,
                gamma: 0.5,
                epsilon: 1e-3,
            },
        );
        for &b in &m.beta {
            assert!(b.abs() <= 1.0 + 1e-9);
        }
    }

    fn beta_bits(m: &Svr) -> Vec<u64> {
        m.beta.iter().map(|b| b.to_bits()).collect()
    }

    #[test]
    fn refits_at_or_above_the_c_floor_are_bit_identical() {
        let x = grid(12);
        let y: Vec<f64> = x.iter().map(|v| (2.0 * v[0]).sin()).collect();
        let params = SvrParams {
            c: 1e3,
            gamma: 0.5,
            epsilon: 1e-3,
        };
        let (base, floor) = Svr::fit_with_floor(&x, &y, &params);
        assert!(floor > 0.0 && floor <= params.c, "floor = {floor}");
        for c in [floor, 10.0 * params.c, 1e12] {
            let (refit, refloor) = Svr::fit_with_floor(&x, &y, &SvrParams { c, ..params });
            assert_eq!(beta_bits(&refit), beta_bits(&base), "C' = {c}");
            assert_eq!(refloor.to_bits(), floor.to_bits(), "C' = {c}");
        }
    }

    #[test]
    fn a_binding_box_reports_an_infinite_floor() {
        let x = grid(10);
        let y: Vec<f64> = x.iter().map(|v| 100.0 * v[0]).collect();
        let params = SvrParams {
            c: 1.0,
            gamma: 0.5,
            epsilon: 1e-3,
        };
        let (m, floor) = Svr::fit_with_floor(&x, &y, &params);
        assert_eq!(floor, f64::INFINITY);
        assert!(m.beta.iter().any(|b| b.abs() == params.c));
        assert_eq!(beta_bits(&m), beta_bits(&Svr::fit(&x, &y, &params)));
    }

    #[test]
    fn interpolates_training_points_with_large_c() {
        let x = vec![vec![0.0], vec![0.5], vec![1.0]];
        let y = vec![1.0, 4.0, 2.0];
        let m = Svr::fit(
            &x,
            &y,
            &SvrParams {
                c: 1e6,
                gamma: 1.0,
                epsilon: 1e-4,
            },
        );
        for (xi, yi) in x.iter().zip(&y) {
            assert!((m.predict(xi) - yi).abs() < 0.01);
        }
    }

    #[test]
    fn multidimensional_inputs() {
        let x: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 5) as f64 / 4.0, (i / 5) as f64 / 4.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|v| v[0] * v[1]).collect();
        let m = Svr::fit(
            &x,
            &y,
            &SvrParams {
                c: 1e4,
                gamma: 2.0,
                epsilon: 1e-3,
            },
        );
        assert!((m.predict(&[0.5, 0.5]) - 0.25).abs() < 0.05);
    }
}
