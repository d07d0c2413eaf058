//! The open-loop scheduler: ops are due on a schedule fixed before the
//! phase starts, whatever the cluster does. A stall therefore delays the
//! ops behind it, and because latency is timed **from the due time** (not
//! from the moment the driver got round to submitting), that delay is
//! counted. How late the generator itself ran is reported separately.

/// The due time of every op of a paced phase, in nanoseconds from the
/// phase start.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    due_ns: Vec<u64>,
}

impl Schedule {
    /// Rescales the trace's virtual arrival times linearly so the ops
    /// arrive at a mean `rate_per_s`; the relative spacing (and with it the
    /// trace's bursts) is kept. `arrivals` must be ascending.
    pub fn from_arrivals(arrivals: &[u64], rate_per_s: f64) -> Self {
        let Some((&first, &last)) = arrivals.first().zip(arrivals.last()) else {
            return Schedule { due_ns: Vec::new() };
        };
        let span_ns = arrivals.len() as f64 / rate_per_s * 1e9;
        let virtual_span = (last - first).max(1) as f64;
        let due_ns = arrivals
            .iter()
            .map(|&at| ((at - first) as f64 / virtual_span * span_ns) as u64)
            .collect();
        Schedule { due_ns }
    }

    pub fn len(&self) -> usize {
        self.due_ns.len()
    }

    pub fn due_ns(&self, i: usize) -> u64 {
        self.due_ns[i]
    }
}

/// Walks a [`Schedule`]: hands out the next op once its due time has
/// passed and accounts how late the hand-out was.
#[derive(Debug)]
pub struct OpenLoop {
    schedule: Schedule,
    next: usize,
}

/// One op released by the open loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Released {
    /// Index into the schedule.
    pub index: usize,
    /// When the op was due (ns from phase start) — the latency origin.
    pub due_ns: u64,
    /// How long after its due time the generator released it.
    pub late_ns: u64,
}

impl OpenLoop {
    pub fn new(schedule: Schedule) -> Self {
        OpenLoop { schedule, next: 0 }
    }

    /// When op `i` of the schedule is due, ns from the phase start.
    pub fn due_ns(&self, i: usize) -> u64 {
        self.schedule.due_ns(i)
    }

    pub fn exhausted(&self) -> bool {
        self.next >= self.schedule.len()
    }

    /// The next op if it is due at `now_ns`, else `None` (the driver should
    /// yield). Never releases early and never skips: a late generator
    /// releases the backlog back to back, each op keeping its own due time.
    pub fn poll(&mut self, now_ns: u64) -> Option<Released> {
        if self.exhausted() {
            return None;
        }
        let due_ns = self.schedule.due_ns(self.next);
        if due_ns > now_ns {
            return None;
        }
        let released = Released {
            index: self.next,
            due_ns,
            late_ns: now_ns - due_ns,
        };
        self.next += 1;
        Some(released)
    }
}

/// Latency of an op whose decision arrived at `recv_ns`, timed from when it
/// was due.
pub fn latency_from_due(due_ns: u64, recv_ns: u64) -> u64 {
    recv_ns.saturating_sub(due_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescaling_keeps_order_bursts_and_mean_rate() {
        // A burst of three at the start, then a long gap.
        let arrivals = [1_000, 1_001, 1_002, 9_000, 10_000];
        let s = Schedule::from_arrivals(&arrivals, 1_000.0); // 5 ops at 1k/s = 5 ms
        assert_eq!(s.len(), 5);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(4), 5_000_000);
        for i in 1..5 {
            assert!(s.due_ns(i) >= s.due_ns(i - 1));
        }
        // The burst stays a burst: the first three are due within a
        // thousandth of the span, the gap takes almost all of it.
        assert!(s.due_ns(2) < 5_000);
        assert!(s.due_ns(3) > 4_000_000);
        assert_eq!(Schedule::from_arrivals(&[], 1.0).len(), 0);
    }

    #[test]
    fn ops_are_never_released_early() {
        let s = Schedule::from_arrivals(&[0, 10, 20], 1e9 / 10.0); // due 0, 10, 20 (+rounding)
        let mut ol = OpenLoop::new(s);
        assert_eq!(ol.poll(0).map(|r| r.index), Some(0));
        assert_eq!(ol.poll(0), None, "second op not due yet");
        assert!(!ol.exhausted());
    }

    #[test]
    fn lateness_is_accounted_and_latency_starts_at_the_due_time() {
        let s = Schedule {
            due_ns: vec![100, 200, 300],
        };
        let mut ol = OpenLoop::new(s);
        // The driver was stalled until t=450: all three are released back to
        // back, each with its own due time and its own lateness.
        let a = ol.poll(450).unwrap();
        let b = ol.poll(460).unwrap();
        let c = ol.poll(470).unwrap();
        assert_eq!((a.due_ns, a.late_ns), (100, 350));
        assert_eq!((b.due_ns, b.late_ns), (200, 260));
        assert_eq!((c.due_ns, c.late_ns), (300, 170));
        assert!(ol.exhausted());
        assert_eq!(ol.poll(1_000), None);
        // A decision received at t=500 for the first op took 400 ns from its
        // due time — not 50 ns from its (late) submission.
        assert_eq!(latency_from_due(a.due_ns, 500), 400);
        assert_eq!(latency_from_due(500, 400), 0, "clock skew saturates");
    }
}
