//! The sleep/resume protocol of §III-A as an STE stimulus.
//!
//! > The desired sequence of operations to put the CPU in sleep mode is as
//! > follows: 1. Stop the clock.  2. Assert NRET low, i.e., put it in hold
//! > mode.  3. Reset NRST is then asserted active low.  The resume mode is
//! > chronologically reverse of the sleep mode.  We usually give a unit
//! > delay in between switching these on and off.
//!
//! [`SleepResumeSchedule`] computes the concrete time intervals for a given
//! number of active clock cycles before and after the power-down, produces
//! the corresponding trajectory formula (clock + `NRET` + `NRST` waveforms)
//! and exposes the time points the property suites need (when pre-sleep and
//! post-resume commits become visible under the simulator's documented
//! one-step timing).

use ssr_ste::stimulus::{waveform, Segment};
use ssr_ste::Formula;

/// Net names used by the schedule.  The defaults match the CPU generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlNets {
    /// Clock net name.
    pub clock: String,
    /// Active-low asynchronous reset net name.
    pub nrst: String,
    /// Active-low retention control net name.
    pub nret: String,
}

impl Default for ControlNets {
    fn default() -> Self {
        ControlNets {
            clock: "clock".into(),
            nrst: "NRST".into(),
            nret: "NRET".into(),
        }
    }
}

/// A fully elaborated sleep/resume timetable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SleepResumeSchedule {
    nets: ControlNets,
    /// Number of full clock cycles before the sleep sequence starts.
    pub pre_cycles: usize,
    /// Number of full clock cycles after resume.
    pub post_cycles: usize,
    /// First time unit of the sleep sequence (the clock is stopped from
    /// here on).
    pub sleep_start: usize,
    /// Time unit at which `NRET` goes low (hold mode).
    pub nret_low_at: usize,
    /// Time unit at which `NRST` is asserted low.
    pub nrst_low_at: usize,
    /// Time unit at which `NRST` is released.
    pub nrst_high_at: usize,
    /// Time unit at which `NRET` is released (sample mode again).
    pub nret_high_at: usize,
    /// Time unit of the first post-resume clock high phase.
    pub resume_clock_start: usize,
    /// Total number of time units the schedule spans.
    pub depth: usize,
}

impl SleepResumeSchedule {
    /// Builds a schedule with `pre_cycles` active clock cycles, the sleep /
    /// resume hand-shake with unit delays between control transitions, and
    /// `post_cycles` active clock cycles after resume.
    ///
    /// # Panics
    /// Panics if `post_cycles` is zero (the schedule would never observe the
    /// resumed core).
    pub fn new(pre_cycles: usize, post_cycles: usize) -> Self {
        Self::with_nets(pre_cycles, post_cycles, ControlNets::default())
    }

    /// Like [`SleepResumeSchedule::new`] with explicit control-net names.
    ///
    /// # Panics
    /// Panics if `post_cycles` is zero.
    pub fn with_nets(pre_cycles: usize, post_cycles: usize, nets: ControlNets) -> Self {
        assert!(
            post_cycles > 0,
            "at least one post-resume clock cycle is required"
        );
        let sleep_start = 2 * pre_cycles;
        let nret_low_at = sleep_start + 1;
        let nrst_low_at = nret_low_at + 1;
        let nrst_high_at = nrst_low_at + 1;
        let nret_high_at = nrst_high_at + 1;
        let resume_clock_start = nret_high_at + 1;
        let depth = resume_clock_start + 2 * post_cycles + 1;
        SleepResumeSchedule {
            nets,
            pre_cycles,
            post_cycles,
            sleep_start,
            nret_low_at,
            nrst_low_at,
            nrst_high_at,
            nret_high_at,
            resume_clock_start,
            depth,
        }
    }

    /// The paper's own listing (§III-B) uses two active cycles before sleep
    /// and one full cycle after resume; this constructor reproduces that
    /// shape.
    pub fn paper() -> Self {
        SleepResumeSchedule::new(2, 1)
    }

    /// The trajectory formula driving clock, `NRET` and `NRST` through the
    /// whole schedule.
    pub fn formula(&self) -> Formula {
        self.clock_formula()
            .and(self.nret_formula())
            .and(self.nrst_formula())
    }

    /// Only the clock waveform (active cycles, stopped during sleep, active
    /// again after resume).
    pub fn clock_formula(&self) -> Formula {
        let mut segments = Vec::new();
        for c in 0..self.pre_cycles {
            segments.push(Segment::new(false, 2 * c, 2 * c + 1));
            segments.push(Segment::new(true, 2 * c + 1, 2 * c + 2));
        }
        // Stopped (low) throughout the sleep hand-shake.
        segments.push(Segment::new(
            false,
            self.sleep_start,
            self.resume_clock_start,
        ));
        for c in 0..self.post_cycles {
            let t = self.resume_clock_start + 2 * c;
            segments.push(Segment::new(true, t, t + 1));
            segments.push(Segment::new(false, t + 1, t + 2));
        }
        waveform(&self.nets.clock, &segments)
    }

    /// Only the `NRET` waveform (high, low during the power-down window,
    /// high again).
    pub fn nret_formula(&self) -> Formula {
        waveform(
            &self.nets.nret,
            &[
                Segment::new(true, 0, self.nret_low_at),
                Segment::new(false, self.nret_low_at, self.nret_high_at),
                Segment::new(true, self.nret_high_at, self.depth),
            ],
        )
    }

    /// Only the `NRST` waveform (high, one-unit low pulse, high again).
    pub fn nrst_formula(&self) -> Formula {
        waveform(
            &self.nets.nrst,
            &[
                Segment::new(true, 0, self.nrst_low_at),
                Segment::new(false, self.nrst_low_at, self.nrst_high_at),
                Segment::new(true, self.nrst_high_at, self.depth),
            ],
        )
    }

    /// The time unit at which the commit of pre-sleep clock cycle `k`
    /// (0-based) becomes visible on the register outputs.
    pub fn pre_commit_visible_at(&self, k: usize) -> usize {
        assert!(k < self.pre_cycles, "only {} pre cycles", self.pre_cycles);
        2 * k + 2
    }

    /// The time unit at which the commit of post-resume clock cycle `k`
    /// (0-based) becomes visible on the register outputs.
    pub fn post_commit_visible_at(&self, k: usize) -> usize {
        assert!(
            k < self.post_cycles,
            "only {} post cycles",
            self.post_cycles
        );
        self.resume_clock_start + 2 * k + 1
    }

    /// Time units during which the core is asleep (clock stopped and `NRET`
    /// low).
    pub fn sleep_window(&self) -> (usize, usize) {
        (self.nret_low_at, self.nret_high_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schedule_shape() {
        let s = SleepResumeSchedule::paper();
        assert_eq!(s.sleep_start, 4);
        assert_eq!(s.nret_low_at, 5);
        assert_eq!(s.nrst_low_at, 6);
        assert_eq!(s.nrst_high_at, 7);
        assert_eq!(s.nret_high_at, 8);
        assert_eq!(s.resume_clock_start, 9);
        assert_eq!(s.depth, 12);
        // The ordering constraints of §III-A hold: clock stops before NRET
        // falls, which happens before the reset pulse; resume is the
        // reverse.
        assert!(s.sleep_start < s.nret_low_at);
        assert!(s.nret_low_at < s.nrst_low_at);
        assert!(s.nrst_high_at < s.nret_high_at);
        assert!(s.nret_high_at < s.resume_clock_start);
    }

    #[test]
    fn formula_depths_are_consistent() {
        let s = SleepResumeSchedule::new(3, 2);
        assert_eq!(s.formula().depth(), s.depth);
        assert_eq!(s.formula().nodes(), vec!["NRET", "NRST", "clock"]);
    }

    #[test]
    fn commit_times() {
        let s = SleepResumeSchedule::new(2, 2);
        assert_eq!(s.pre_commit_visible_at(0), 2);
        assert_eq!(s.pre_commit_visible_at(1), 4);
        assert_eq!(s.post_commit_visible_at(0), s.resume_clock_start + 1);
        assert_eq!(s.post_commit_visible_at(1), s.resume_clock_start + 3);
        let (a, b) = s.sleep_window();
        assert!(a < b);
    }

    #[test]
    #[should_panic(expected = "post-resume clock cycle")]
    fn zero_post_cycles_rejected() {
        let _ = SleepResumeSchedule::new(2, 0);
    }

    #[test]
    #[should_panic(expected = "only 2 pre cycles")]
    fn out_of_range_pre_commit() {
        let _ = SleepResumeSchedule::new(2, 1).pre_commit_visible_at(2);
    }

    #[test]
    fn custom_net_names() {
        let s = SleepResumeSchedule::with_nets(
            1,
            1,
            ControlNets {
                clock: "clk".into(),
                nrst: "rst_n".into(),
                nret: "ret_n".into(),
            },
        );
        assert_eq!(s.formula().nodes(), vec!["clk", "ret_n", "rst_n"]);
    }
}
