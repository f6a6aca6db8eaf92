//! The open-loop rate search behind `max_rate_qps`: the highest offered
//! rate whose latency tail stays within [`LATENCY_LIMIT_MS`] without a
//! growing backlog.
//!
//! The load generator offers a ladder of fixed rates, one step after the
//! other, and stops at the first step that fails. The reported rate lies
//! between the last passing step and the first failing one, interpolated on
//! the tail latency, so it moves continuously with the system's capacity
//! instead of jumping between ladder rungs.

/// Latency limit on the tail percentile.
pub const LATENCY_LIMIT_MS: f64 = 100.0;

/// What one fixed-rate step of the ladder measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Tail latency (see [`crate::stats::tail`]), measured from each
    /// request's due time.
    pub tail_ms: f64,
    /// Mean number of outstanding requests seen at sends in the first half
    /// of the step.
    pub backlog_first_half: f64,
    /// The same over the second half.
    pub backlog_second_half: f64,
}

impl Step {
    /// Whether outstanding requests piled up during the step: the second
    /// half's mean backlog exceeds the first half's by more than four
    /// requests and at least doubles it.
    pub fn backlog_grows(&self) -> bool {
        let growth = self.backlog_second_half - self.backlog_first_half;
        growth > 4.0_f64.max(self.backlog_first_half)
    }

    pub fn passes(&self) -> bool {
        self.tail_ms <= LATENCY_LIMIT_MS && !self.backlog_grows()
    }
}

/// Offered rates of the ladder: `count` rates from `start`, each `factor`
/// times the previous.
pub fn ladder(start: f64, factor: f64, count: usize) -> Vec<f64> {
    (0..count).map(|i| start * factor.powi(i as i32)).collect()
}

/// The highest rate meeting the limit, from steps run in ascending rate
/// order (the ladder stops after its first failure, but any later steps
/// are ignored).
///
/// * Between the last pass and the first failure the rate is interpolated
///   linearly on the tail: where the tail would cross the limit. A failure
///   by backlog growth with a tail under the limit interpolates nothing
///   and reports the last passing rate.
/// * If the first step already fails, its rate is scaled down by
///   `limit / tail` — an estimate below the ladder.
/// * If every step passes, the highest offered rate is reported: a lower
///   bound, since the limit was never reached.
pub fn max_rate(steps: &[Step]) -> f64 {
    let Some(first_fail) = steps.iter().position(|s| !s.passes()) else {
        return steps.last().map_or(0.0, |s| s.rate);
    };
    let fail = steps[first_fail];
    if first_fail == 0 {
        let scale = (LATENCY_LIMIT_MS / fail.tail_ms.max(LATENCY_LIMIT_MS)).min(1.0);
        let scale = if fail.backlog_grows() && fail.tail_ms <= LATENCY_LIMIT_MS {
            0.5
        } else {
            scale
        };
        return fail.rate * scale;
    }
    let pass = steps[first_fail - 1];
    if fail.tail_ms <= pass.tail_ms || fail.tail_ms <= LATENCY_LIMIT_MS {
        return pass.rate;
    }
    let fraction =
        ((LATENCY_LIMIT_MS - pass.tail_ms) / (fail.tail_ms - pass.tail_ms)).clamp(0.0, 1.0);
    pass.rate + fraction * (fail.rate - pass.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, tail_ms: f64) -> Step {
        Step {
            rate,
            tail_ms,
            backlog_first_half: 1.0,
            backlog_second_half: 1.5,
        }
    }

    fn growing(rate: f64, tail_ms: f64) -> Step {
        Step {
            rate,
            tail_ms,
            backlog_first_half: 3.0,
            backlog_second_half: 40.0,
        }
    }

    #[test]
    fn ladder_is_geometric() {
        let rates = ladder(100.0, 1.5, 3);
        assert_eq!(rates, vec![100.0, 150.0, 225.0]);
    }

    #[test]
    fn backlog_growth_needs_an_absolute_and_a_relative_rise() {
        assert!(!step(10.0, 5.0).backlog_grows());
        assert!(growing(10.0, 5.0).backlog_grows());
        // +3.5 from 1 is noise, not growth.
        let small = Step {
            backlog_first_half: 1.0,
            backlog_second_half: 4.5,
            ..step(10.0, 5.0)
        };
        assert!(!small.backlog_grows());
        // +8 on a mean of 10 is not a doubling.
        let relative = Step {
            backlog_first_half: 10.0,
            backlog_second_half: 18.0,
            ..step(10.0, 5.0)
        };
        assert!(!relative.backlog_grows());
    }

    #[test]
    fn interpolates_where_the_tail_crosses_the_limit() {
        let steps = [step(100.0, 20.0), step(150.0, 60.0), step(200.0, 260.0)];
        // 60 ms → 260 ms crosses 100 ms a fifth of the way from 150 to 200.
        assert!((max_rate(&steps) - 160.0).abs() < 1e-9);
    }

    #[test]
    fn a_growing_backlog_fails_a_step_whose_tail_is_within_the_limit() {
        let steps = [step(100.0, 20.0), growing(150.0, 80.0), step(200.0, 30.0)];
        assert_eq!(max_rate(&steps), 100.0);
    }

    #[test]
    fn a_growing_backlog_with_a_large_tail_still_interpolates_on_the_tail() {
        let steps = [step(100.0, 50.0), growing(200.0, 1050.0)];
        assert!((max_rate(&steps) - 105.0).abs() < 1e-9);
    }

    #[test]
    fn steps_after_the_first_failure_are_ignored() {
        let steps = [step(100.0, 20.0), step(150.0, 300.0), step(200.0, 10.0)];
        assert!((max_rate(&steps) - 100.0 - 50.0 * 80.0 / 280.0).abs() < 1e-9);
    }

    #[test]
    fn all_passing_reports_the_highest_offered_rate() {
        assert_eq!(max_rate(&[step(100.0, 20.0), step(150.0, 30.0)]), 150.0);
        assert_eq!(max_rate(&[]), 0.0);
    }

    #[test]
    fn a_failing_first_step_is_scaled_down() {
        assert_eq!(max_rate(&[step(100.0, 400.0)]), 25.0);
        assert_eq!(max_rate(&[growing(100.0, 50.0)]), 50.0);
    }
}
