//! The closed-loop recalibration control plane (DESIGN.md §17).
//!
//! A serving run's latency *predictions* come from the build-time
//! exploration; the device's *observed* service times drift away from
//! them under thermal throttling, contention, or firmware changes. The
//! windowed timeline already detects that drift (OBS002); this module
//! closes the loop: at deterministic virtual-time watermarks the
//! controller inspects its own predicted-vs-observed residual window and,
//! when drift crosses the configured threshold, (1) refits the shard's
//! calibration factor from the recent observed-latency window
//! ([`netcut_estimate::refit_scale_ppm`] — a truncating lower median,
//! robust to noise outliers), (2) asks its [`Recalibrator`] for a
//! corrected ladder (the scenario-level implementation re-runs the
//! exploration through the memoized `EvalContext`, so every candidate is
//! a cache hit), and (3) hot-swaps the new ladder in under a bumped
//! **generation** tag. Queued and in-flight requests finish on the
//! generation they were admitted under — the shard's open batch is closed
//! at the swap instant so no batch ever spans generations, and no request
//! is dropped or re-queued.
//!
//! Everything is virtual time: watermarks are multiples of
//! [`RecalibConfig::watermark_us`], never wall clock, so a recalibrating
//! run is exactly as deterministic as a plain one — bit-identical
//! summaries across `--jobs` settings, machines, and reruns.

use crate::ladder::TrnLadder;
use crate::scenario::{ConfigError, MAX_HORIZON_US};

/// Controller parameters, all integer virtual-time or ppm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecalibConfig {
    /// Residual-drift trigger threshold, ppm deviation from unity — the
    /// controller's own OBS002 condition (`--recalib-drift-ppm`).
    pub drift_ppm: u64,
    /// Minimum virtual time between swaps on one shard, µs
    /// (`--recalib-cooldown-us`).
    pub cooldown_us: u64,
    /// Watermark spacing, µs: the controller only acts at multiples of
    /// this virtual-time interval.
    pub watermark_us: u64,
    /// Residual samples a shard must have accumulated before it may
    /// trigger.
    pub min_samples: u64,
    /// Capacity of the bounded recent-sample window the refit draws from.
    pub window: usize,
}

impl Default for RecalibConfig {
    /// 15% drift trigger, 0.5 ms cooldown, 0.1 ms watermarks, 8-sample
    /// minimum over a 64-sample window — one decisive swap per sustained
    /// fault window at the default 5 s / 100 ms-window scenario scale.
    fn default() -> Self {
        RecalibConfig {
            drift_ppm: 150_000,
            cooldown_us: 500_000,
            watermark_us: 100_000,
            min_samples: 8,
            window: 64,
        }
    }
}

impl RecalibConfig {
    /// Checks that the configuration is self-consistent: positive
    /// thresholds and intervals, a cooldown within [`MAX_HORIZON_US`], and
    /// a refit window at least as large as the trigger's minimum sample
    /// count (the SV013 rule, enforced at run start too).
    ///
    /// # Errors
    /// The first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        use ConfigError as E;
        let (cooldown, window, min) = (self.cooldown_us, self.window, self.min_samples);
        #[rustfmt::skip]
        let rows = [
            (self.drift_ppm == 0, E::ZeroRecalibDrift),
            (cooldown == 0, E::ZeroRecalibCooldown),
            (cooldown > MAX_HORIZON_US, E::IntervalTooLong("--recalib-cooldown-us", cooldown)),
            (self.watermark_us == 0, E::ZeroRecalibWatermark),
            (min == 0, E::ZeroRecalibMinSamples),
            ((window as u64) < min, E::RecalibWindowTooSmall(window, min)),
        ];
        rows.into_iter()
            .find(|(violated, _)| *violated)
            .map_or(Ok(()), |(_, err)| Err(err))
    }
}

/// Produces the corrected ladder a hot-swap installs.
///
/// The runtime computes *when* to swap and *what calibration factor* the
/// refit demands; the recalibrator decides what ladder embodies it. The
/// scenario-level implementation re-explores through the memoized
/// `EvalContext` and applies `calib_ppm` to the rebuilt front; the
/// in-crate [`CalibrateOnly`] fallback just re-tags the build-time ladder.
/// Returning `None` declines the swap (the trigger still counts, the
/// cooldown still arms).
pub trait Recalibrator {
    /// Builds the ladder for `shard`'s generation `generation` at
    /// calibration factor `calib_ppm`.
    fn recalibrate(&self, shard: usize, generation: u64, calib_ppm: u64) -> Option<TrnLadder>;
}

/// The minimal recalibrator: re-issues each shard's build-time ladder
/// with the refit calibration applied — no re-exploration. This is the
/// pure-runtime path (and the unit-test fixture); scenarios wire the
/// cache-hitting re-exploration instead.
#[derive(Debug, Clone)]
pub struct CalibrateOnly {
    ladders: Vec<TrnLadder>,
}

impl CalibrateOnly {
    /// One base ladder per shard, routing order.
    pub fn new(ladders: Vec<TrnLadder>) -> Self {
        CalibrateOnly { ladders }
    }
}

impl Recalibrator for CalibrateOnly {
    fn recalibrate(&self, shard: usize, _generation: u64, calib_ppm: u64) -> Option<TrnLadder> {
        self.ladders
            .get(shard)
            .map(|l| l.clone().with_calibration(calib_ppm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::Rung;

    fn ladder() -> TrnLadder {
        TrnLadder::from_rungs(vec![Rung {
            name: "cut0".into(),
            cutpoint: 0,
            latency_us: 500,
            accuracy: 0.8,
        }])
    }

    #[test]
    fn defaults_validate() {
        assert_eq!(RecalibConfig::default().validate(), Ok(()));
    }

    #[test]
    fn starved_window_is_rejected() {
        let err = RecalibConfig {
            min_samples: 8,
            window: 7,
            ..RecalibConfig::default()
        }
        .validate()
        .expect_err("a 7-sample window cannot hold 8 samples");
        assert!(err.to_string().contains("window"), "{err}");
    }

    #[test]
    fn calibrate_only_reissues_the_base_ladder() {
        let r = CalibrateOnly::new(vec![ladder()]);
        let swapped = r.recalibrate(0, 1, 1_300_000).expect("shard exists");
        assert_eq!(swapped.calib_ppm(), 1_300_000);
        assert_eq!(swapped.rung(0).latency_us, 500, "physics unchanged");
        assert!(r.recalibrate(9, 1, 1_300_000).is_none(), "unknown shard");
    }
}
