//! SLO alerting over windowed telemetry: error-budget burn rates and the
//! stable `OBS0xx` event-code table.
//!
//! Alert codes follow the same contract as `netcut-verify`'s `NC0xx`
//! diagnostics: **stable and append-only**. A code, once assigned, never
//! changes meaning and never disappears — dashboards, CI tolerances, and
//! committed timeline goldens key on the code string. New alert classes
//! take the next number; the property tests pin the existing table.
//!
//! The central figure is the **burn rate**: how fast a window consumes the
//! run's SLO error budget. With a budget of `miss_budget_ppm` (the miss
//! rate the SLO tolerates), a window whose own miss rate is `m_ppm` burns
//! at `m_ppm / budget` — expressed in ppm, `PPM` = exactly on budget,
//! `2 × PPM` = burning twice as fast as the SLO can absorb. All arithmetic
//! is exact integer arithmetic ([`mul_div`]), so alert streams are
//! bit-identical across `--jobs` settings and platforms.

use crate::residual::{mul_div, PPM};

/// The stable alert-code table. Append-only: new variants take the next
/// `OBS0xx` number and existing entries never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertCode {
    /// `OBS001` — a window burned SLO error budget faster than the
    /// policy's alerting threshold.
    BudgetBurn,
    /// `OBS002` — a shard's predicted-vs-observed latency EWMA drifted
    /// beyond the policy's tolerance (the estimator needs recalibration).
    ResidualDrift,
    /// `OBS003` — a shard with workers received no arrivals in a window
    /// that routed plenty elsewhere (routing imbalance or a wedged shard).
    ShardStarvation,
    /// `OBS004` — an injected fault window opened on a shard.
    FaultWindowEntered,
    /// `OBS005` — the closed-loop controller recalibrated a shard's
    /// estimator and hot-swapped its ladder to a new generation.
    Recalibrated,
}

impl AlertCode {
    /// Every code, ascending — iteration order is the stable table order.
    pub const ALL: [AlertCode; 5] = [
        AlertCode::BudgetBurn,
        AlertCode::ResidualDrift,
        AlertCode::ShardStarvation,
        AlertCode::FaultWindowEntered,
        AlertCode::Recalibrated,
    ];

    /// The stable code string (`OBS001`...).
    pub fn code(self) -> &'static str {
        match self {
            AlertCode::BudgetBurn => "OBS001",
            AlertCode::ResidualDrift => "OBS002",
            AlertCode::ShardStarvation => "OBS003",
            AlertCode::FaultWindowEntered => "OBS004",
            AlertCode::Recalibrated => "OBS005",
        }
    }

    /// The stable short name.
    pub fn name(self) -> &'static str {
        match self {
            AlertCode::BudgetBurn => "budget-burn",
            AlertCode::ResidualDrift => "residual-drift",
            AlertCode::ShardStarvation => "shard-starvation",
            AlertCode::FaultWindowEntered => "fault-window-entered",
            AlertCode::Recalibrated => "recalibrated",
        }
    }

    /// One-line description for docs and reports.
    pub fn description(self) -> &'static str {
        match self {
            AlertCode::BudgetBurn => "window burned SLO error budget above the alert threshold",
            AlertCode::ResidualDrift => {
                "predicted-vs-observed latency EWMA drifted out of tolerance"
            }
            AlertCode::ShardStarvation => "shard received no arrivals while the fleet was loaded",
            AlertCode::FaultWindowEntered => "an injected fault window opened on this shard",
            AlertCode::Recalibrated => {
                "the estimator was refit and the shard's ladder hot-swapped to a new generation"
            }
        }
    }

    /// Table position (0-based), the numeric part of the code minus one.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).expect("in table")
    }
}

/// One fired alert: what, when, where, how bad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alert {
    /// Which table entry fired.
    pub code: AlertCode,
    /// Window index the alert belongs to.
    pub window: u64,
    /// Virtual-time anchor, microseconds (the window start, or the fault
    /// window's exact opening instant for `OBS004`).
    pub t_us: u64,
    /// Shard the alert is about.
    pub shard: usize,
    /// Code-specific magnitude, ppm: burn rate for `OBS001`, drift for
    /// `OBS002`, the fleet's window arrivals for `OBS003` (a count, not
    /// ppm), fault magnitude for `OBS004`, the new calibration factor for
    /// `OBS005`.
    pub value_ppm: u64,
}

/// Burn rate of a window in ppm: miss rate over budget. `PPM` = exactly on
/// budget. Zero arrivals burn nothing; a zero budget saturates.
pub fn burn_rate_ppm(bad: u64, arrivals: u64, miss_budget_ppm: u64) -> u64 {
    if arrivals == 0 {
        return 0;
    }
    let miss_ppm = mul_div(bad.into(), PPM, 0, arrivals);
    mul_div(miss_ppm, PPM, 0, miss_budget_ppm.max(1)).min(u128::from(u64::MAX)) as u64
}

/// What one (window, shard) cell reports for alert evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowObservation {
    /// Window index.
    pub window: u64,
    /// Window start, microseconds of virtual time.
    pub start_us: u64,
    /// Shard under evaluation.
    pub shard: usize,
    /// Requests routed to this shard in the window.
    pub arrivals: u64,
    /// Requests that went bad on this shard: missed + rejected + dropped.
    pub bad: u64,
    /// Fleet-wide arrivals in the window (starvation context).
    pub fleet_arrivals: u64,
    /// Worst residual drift across the shard's rungs, ppm.
    pub max_drift_ppm: u64,
    /// Residual samples backing the drift figure.
    pub drift_samples: u64,
    /// Magnitude of a fault window opening in this window, if one did.
    pub fault_entered_ppm: Option<u64>,
    /// New calibration factor (ppm) of a recalibration landing in this
    /// window, if one did.
    pub recalibrated_ppm: Option<u64>,
}

/// The SLO policy one deadline class is evaluated under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloPolicy {
    /// Tolerated miss rate (missed + rejected + dropped over total), ppm —
    /// the error budget.
    pub miss_budget_ppm: u64,
    /// Burn rate at or above which `OBS001` fires, ppm (`2_000_000` =
    /// twice the budget).
    pub burn_alert_ppm: u64,
    /// Residual drift at or above which `OBS002` fires, ppm.
    pub drift_alert_ppm: u64,
    /// Minimum residual samples before `OBS002` may fire.
    pub min_drift_samples: u64,
    /// Minimum *fleet* arrivals in a window before `OBS001`/`OBS003` may
    /// fire (quiet windows are noise, not signal).
    pub min_window_arrivals: u64,
}

impl Default for SloPolicy {
    /// The serving default: a 5% error budget, alert at 2× burn, 15%
    /// residual-drift tolerance backed by at least 8 samples, and no
    /// load-dependent alerts below 10 arrivals per window.
    fn default() -> Self {
        SloPolicy {
            miss_budget_ppm: 50_000,
            burn_alert_ppm: 2 * PPM,
            drift_alert_ppm: 150_000,
            min_drift_samples: 8,
            min_window_arrivals: 10,
        }
    }
}

impl SloPolicy {
    /// Evaluates one (window, shard) observation. Returned alerts are in
    /// table order, so an alert stream sorted by (window, shard) is fully
    /// deterministic.
    pub fn evaluate(&self, o: &WindowObservation) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let loaded = o.fleet_arrivals >= self.min_window_arrivals;
        let burn = burn_rate_ppm(o.bad, o.arrivals, self.miss_budget_ppm);
        if loaded && o.arrivals > 0 && burn >= self.burn_alert_ppm {
            alerts.push(Alert {
                code: AlertCode::BudgetBurn,
                window: o.window,
                t_us: o.start_us,
                shard: o.shard,
                value_ppm: burn,
            });
        }
        if o.drift_samples >= self.min_drift_samples && o.max_drift_ppm >= self.drift_alert_ppm {
            alerts.push(Alert {
                code: AlertCode::ResidualDrift,
                window: o.window,
                t_us: o.start_us,
                shard: o.shard,
                value_ppm: o.max_drift_ppm,
            });
        }
        if loaded && o.arrivals == 0 {
            alerts.push(Alert {
                code: AlertCode::ShardStarvation,
                window: o.window,
                t_us: o.start_us,
                shard: o.shard,
                value_ppm: o.fleet_arrivals,
            });
        }
        if let Some(magnitude) = o.fault_entered_ppm {
            alerts.push(Alert {
                code: AlertCode::FaultWindowEntered,
                window: o.window,
                t_us: o.start_us,
                shard: o.shard,
                value_ppm: magnitude,
            });
        }
        if let Some(calib) = o.recalibrated_ppm {
            alerts.push(Alert {
                code: AlertCode::Recalibrated,
                window: o.window,
                t_us: o.start_us,
                shard: o.shard,
                value_ppm: calib,
            });
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(window: u64, shard: usize) -> WindowObservation {
        WindowObservation {
            window,
            start_us: window * 100_000,
            shard,
            arrivals: 200,
            bad: 0,
            fleet_arrivals: 200,
            max_drift_ppm: 0,
            drift_samples: 50,
            fault_entered_ppm: None,
            recalibrated_ppm: None,
        }
    }

    #[test]
    fn burn_rate_is_miss_rate_over_budget() {
        // 10% missing against a 5% budget burns at 2×.
        assert_eq!(burn_rate_ppm(20, 200, 50_000), 2 * PPM);
        assert_eq!(burn_rate_ppm(0, 200, 50_000), 0);
        assert_eq!(burn_rate_ppm(5, 0, 50_000), 0);
        // Exactly on budget burns at exactly PPM.
        assert_eq!(burn_rate_ppm(10, 200, 50_000), PPM);
    }

    #[test]
    fn healthy_window_raises_nothing() {
        assert!(SloPolicy::default().evaluate(&quiet(3, 0)).is_empty());
    }

    #[test]
    fn budget_burn_fires_at_the_threshold() {
        let policy = SloPolicy::default();
        let mut o = quiet(1, 0);
        o.bad = 20; // 10% of 200 = 2× the 5% budget = the default threshold
        let alerts = policy.evaluate(&o);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].code, AlertCode::BudgetBurn);
        assert_eq!(alerts[0].value_ppm, 2 * PPM);
        assert_eq!(alerts[0].window, 1);
        // Just under the threshold: silent.
        o.bad = 19;
        assert!(policy.evaluate(&o).is_empty());
        // A quiet fleet never burns, whatever the ratio.
        o.bad = 5;
        o.arrivals = 5;
        o.fleet_arrivals = 5;
        assert!(policy.evaluate(&o).is_empty());
    }

    #[test]
    fn drift_fires_only_with_enough_samples() {
        let policy = SloPolicy::default();
        let mut o = quiet(2, 1);
        o.max_drift_ppm = 200_000;
        o.drift_samples = 7;
        assert!(policy.evaluate(&o).is_empty(), "7 samples is not evidence");
        o.drift_samples = 8;
        let alerts = policy.evaluate(&o);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].code, AlertCode::ResidualDrift);
        assert_eq!(alerts[0].value_ppm, 200_000);
    }

    #[test]
    fn starvation_needs_a_loaded_fleet() {
        let policy = SloPolicy::default();
        let mut o = quiet(4, 1);
        o.arrivals = 0;
        o.bad = 0;
        let alerts = policy.evaluate(&o);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].code, AlertCode::ShardStarvation);
        assert_eq!(alerts[0].value_ppm, 200);
        o.fleet_arrivals = 3; // idle fleet: nothing to starve of
        assert!(policy.evaluate(&o).is_empty());
    }

    #[test]
    fn fault_entry_reports_the_magnitude() {
        let mut o = quiet(5, 0);
        o.fault_entered_ppm = Some(1_250_000);
        let alerts = SloPolicy::default().evaluate(&o);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].code, AlertCode::FaultWindowEntered);
        assert_eq!(alerts[0].value_ppm, 1_250_000);
    }

    #[test]
    fn recalibration_reports_the_new_factor() {
        let mut o = quiet(7, 1);
        o.recalibrated_ppm = Some(1_300_000);
        let alerts = SloPolicy::default().evaluate(&o);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].code, AlertCode::Recalibrated);
        assert_eq!(alerts[0].value_ppm, 1_300_000);
    }

    #[test]
    fn multiple_alerts_come_out_in_table_order() {
        let mut o = quiet(6, 0);
        o.bad = 50;
        o.max_drift_ppm = 300_000;
        o.fault_entered_ppm = Some(PPM);
        o.recalibrated_ppm = Some(1_200_000);
        let alerts = SloPolicy::default().evaluate(&o);
        let codes: Vec<&str> = alerts.iter().map(|a| a.code.code()).collect();
        assert_eq!(codes, vec!["OBS001", "OBS002", "OBS004", "OBS005"]);
    }
}
