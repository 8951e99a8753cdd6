//! Host-speed reference: a fixed kernel timed between iterations, so the
//! end-to-end times can be reported at one reference speed of the host.
//!
//! The benchmark runs on a shared host whose cores change speed for seconds
//! to minutes at a time, with nothing else running in the VM. On a 2-vCPU
//! Xeon VM the median `netcut` iteration of a 40 s run was 1.05 s in one
//! run and 2.44 s in another, and raw medians spread 0.10–0.30 (quartile
//! distance over median) across ten runs. A kernel of the same kinds of
//! work as the workloads — branchy sorting, pointer-chasing lookups, `exp`-
//! and division-bound floating point over small tables — slows down with
//! them, so an iteration's time divided by the kernel's slowdown beside it
//! stays nearly constant: 0.01–0.08 over the same kind of ten runs (see the
//! README's § Steadiness).
//!
//! The kernel is benchmark code, not program code: a change to the program
//! moves the iteration's time and leaves the kernel's, so it shows in full.

use std::collections::BTreeMap;
use std::time::Instant;

/// What one pass of the kernel takes at the reference speed, seconds: its
/// typical time on an unloaded core of the 2-vCPU Xeon VM the benchmark was
/// written on. It fixes only the unit of the normalized times.
pub const NOMINAL_PASS_S: f64 = 0.000_8;

/// Keys sorted and looked up per pass.
const KEYS: usize = 4096;

/// Points of the RBF sum (8 features each).
const POINTS: usize = 96;

/// Size of the Gram matrix the coordinate descent solves.
const GRAM: usize = 24;

/// The reference kernel's fixed inputs. A pass allocates nothing, so the
/// heap the workload leaves behind does not change its time.
pub struct Reference {
    keys: Vec<u32>,
    scratch: Vec<u32>,
    map: BTreeMap<u32, u32>,
    points: Vec<f64>,
    gram: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let keys: Vec<u32> = (0..KEYS).map(|_| next() as u32).collect();
        let map = keys
            .iter()
            .step_by(2)
            .map(|&k| (k, k.rotate_left(7)))
            .collect();
        let points: Vec<f64> = (0..POINTS * 8)
            .map(|_| (next() % 10_000) as f64 / 10_000.0)
            .collect();
        let mut gram = vec![0.0; GRAM * GRAM];
        for i in 0..GRAM {
            for j in 0..GRAM {
                gram[i * GRAM + j] = (-0.3 * sq_dist(&points, i, j)).exp() + 1.0;
            }
        }
        let mut reference = Reference {
            scratch: keys.clone(),
            keys,
            map,
            points,
            gram,
        };
        for _ in 0..20 {
            reference.pass();
        }
        reference
    }

    /// Times one pass of the kernel, seconds.
    pub fn pass(&mut self) -> f64 {
        let start = Instant::now();
        std::hint::black_box(self.sort());
        std::hint::black_box(self.lookup());
        std::hint::black_box(self.rbf());
        std::hint::black_box(self.descent());
        start.elapsed().as_secs_f64()
    }

    /// Branchy integer work: four in-place sorts of the keys.
    #[inline(never)]
    fn sort(&mut self) -> u32 {
        for round in 0..4 {
            for (d, s) in self.scratch.iter_mut().zip(&self.keys) {
                *d = s.rotate_left(round * 8);
            }
            self.scratch.sort_unstable();
        }
        self.scratch[KEYS / 2]
    }

    /// Pointer chasing: a successor lookup per key in a B-tree.
    #[inline(never)]
    fn lookup(&self) -> u64 {
        self.keys
            .iter()
            .filter_map(|&k| self.map.range(k..).next())
            .fold(0u64, |acc, (_, &v)| acc.wrapping_add(u64::from(v)))
    }

    /// `exp`-bound floating point: an RBF kernel sum over every pair.
    #[inline(never)]
    fn rbf(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..POINTS {
            for j in 0..POINTS {
                acc += (-0.7 * sq_dist(&self.points, i, j)).exp();
            }
        }
        acc
    }

    /// Division-bound floating point: coordinate-descent sweeps of an
    /// ε-insensitive regression over the fixed Gram matrix.
    #[inline(never)]
    fn descent(&self) -> f64 {
        let k = &self.gram;
        let mut beta = [0.0f64; GRAM];
        let mut f = [0.0f64; GRAM];
        for sweep in 0..120 {
            for i in 0..GRAM {
                let kii = k[i * GRAM + i];
                let y = ((i * 37 + sweep) % 11) as f64 / 11.0;
                let r = f[i] - kii * beta[i];
                let plus = (y - r - 0.05) / kii;
                let minus = (y - r + 0.05) / kii;
                let new = if plus > 0.0 {
                    plus.min(4.0)
                } else if minus < 0.0 {
                    minus.max(-4.0)
                } else {
                    0.0
                };
                let delta = new - beta[i];
                if delta != 0.0 {
                    beta[i] = new;
                    for (j, fj) in f.iter_mut().enumerate() {
                        *fj += delta * k[j * GRAM + i];
                    }
                }
            }
        }
        beta.iter().sum()
    }
}

/// Squared distance between points `i` and `j` of an 8-feature table.
fn sq_dist(points: &[f64], i: usize, j: usize) -> f64 {
    let (a, b) = (&points[i * 8..i * 8 + 8], &points[j * 8..j * 8 + 8]);
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}
