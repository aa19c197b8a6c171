//! Open-loop arithmetic for `serve_stream`: when each order is due, how
//! late the generator sent it, how many orders were outstanding,
//! whether a rung held its offered rate, and which rate to try next.
//!
//! Every time here is seconds since the rung's start. Latency is taken
//! from when an order was *due*, so a stall of the server also charges
//! the orders queued behind it; only the generator's own lateness is
//! taken out.

/// When order `k` of `tenant` is due. The tenants share `total_rate`
/// (orders/s across all of them) round-robin, so their sends interleave
/// evenly instead of arriving in bursts.
pub fn due_s(k: usize, tenant: usize, tenants: usize, total_rate: f64) -> f64 {
    (k * tenants + tenant) as f64 / total_rate
}

/// Orders each tenant sends in a rung of `seconds` at `total_rate`.
pub fn orders_per_tenant(total_rate: f64, seconds: f64, tenants: usize) -> usize {
    (total_rate * seconds / tenants as f64).round().max(1.0) as usize
}

/// How late the generator itself started each step, ms: the time from
/// the step's due time to the start of its first write, less the time
/// earlier writes spent inside the socket after that due time. Time
/// blocked in a write is the server's backpressure, not the generator's
/// delay; a step that queued behind an earlier oversleep carries that
/// oversleep too. `begin_s`/`end_s` bound each step's writes, in send
/// order.
pub fn own_late_ms(due_s: &[f64], begin_s: &[f64], end_s: &[f64]) -> Vec<f64> {
    (0..begin_s.len())
        .map(|k| {
            let due = due_s[k];
            let blocked: f64 = (0..k)
                .rev()
                .take_while(|&j| end_s[j] > due)
                .map(|j| end_s[j] - begin_s[j].max(due))
                .sum();
            ((begin_s[k] - due - blocked) * 1e3).max(0.0)
        })
        .collect()
}

/// Whether the generator kept a rung's pacing: its own p99 lateness, ms,
/// stayed below the gap between two orders of one tenant, so a late send
/// rarely ran into the next one.
pub fn kept_pace(late_p99_ms: f64, tenants: usize, total_rate: f64) -> bool {
    late_p99_ms <= 1e3 * tenants as f64 / total_rate
}

/// Latency of a reply, ms, from when its request was due, less the
/// generator's own lateness in sending it (see [`own_late_ms`]).
pub fn latency_ms(due_s: f64, own_late_ms: f64, arrived_s: f64) -> f64 {
    (arrived_s - due_s) * 1e3 - own_late_ms
}

/// Most requests outstanding at any instant, given when each was sent
/// and when each was answered (both in any order). A reply stamped at the
/// same instant as a send is counted after it.
pub fn max_outstanding(sent_s: &[f64], answered_s: &[f64]) -> usize {
    let mut events: Vec<(f64, i64)> = sent_s
        .iter()
        .map(|&t| (t, 1))
        .chain(answered_s.iter().map(|&t| (t, -1)))
        .collect();
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut open = 0i64;
    let mut peak = 0i64;
    for (_, d) in events {
        open += d;
        peak = peak.max(open);
    }
    peak as usize
}

/// Whether latency kept climbing through the rung: the median of the
/// last quarter of replies (in due order) exceeds the first quarter's by
/// more than half the latency limit — the signature of a queue that
/// grows because the server falls behind the offered rate.
pub fn backlog_growing(latency_in_due_order_ms: &[f64], limit_ms: f64) -> bool {
    let n = latency_in_due_order_ms.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let med = |s: &[f64]| crate::stats::median(s).unwrap_or(0.0);
    med(&latency_in_due_order_ms[n - q..]) > med(&latency_in_due_order_ms[..q]) + 0.5 * limit_ms
}

/// The verdict on one rung: did the server hold its offered rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The generator kept its own schedule ([`kept_pace`]). When it did
    /// not, the detail record says so; the rung's verdict is not held
    /// against the server either way.
    pub valid: bool,
    /// The reply-latency p99 met the latency limit.
    pub meets_limit: bool,
    /// Latency climbed through the rung.
    pub backlog_growing: bool,
    /// The generator sent every order before the rung overran its
    /// schedule (the server's backpressure held it up for too long).
    pub completed: bool,
    /// Every order sent was answered and every check passed.
    pub clean: bool,
}

impl Verdict {
    /// The server sustained the rung.
    pub fn sustained(&self) -> bool {
        self.meets_limit && !self.backlog_growing && self.completed && self.clean
    }
}

/// The search for the highest offered rate the server sustains. It
/// doubles from `start` (or halves, while even that fails) until one rate
/// passes and one fails, then bisects that bracket geometrically
/// `bisections` times. Rates stay within `[min, max]`.
#[derive(Debug, Clone)]
pub struct Search {
    start: f64,
    min: f64,
    max: f64,
    bisections: usize,
    pass: Option<f64>,
    fail: Option<f64>,
}

impl Search {
    /// A search starting at `start` orders/s.
    pub fn new(start: f64, min: f64, max: f64, bisections: usize) -> Search {
        Search {
            start,
            min,
            max,
            bisections,
            pass: None,
            fail: None,
        }
    }

    /// The rate to try next, or `None` when the search is over.
    pub fn next_rate(&self) -> Option<f64> {
        let rate = match (self.pass, self.fail) {
            (None, None) => self.start,
            (Some(p), None) => 2.0 * p,
            (None, Some(f)) => 0.5 * f,
            (Some(p), Some(f)) => {
                if self.bisections == 0 {
                    return None;
                }
                (p * f).sqrt()
            }
        };
        (self.min..=self.max).contains(&rate).then_some(rate)
    }

    /// Records the verdict on `rate`, the last rate [`Search::next_rate`]
    /// gave.
    pub fn record(&mut self, rate: f64, sustained: bool) {
        if self.pass.is_some() && self.fail.is_some() {
            self.bisections -= 1;
        }
        if sustained {
            self.pass = Some(rate);
        } else {
            self.fail = Some(rate);
        }
    }

    /// The highest rate that passed, if any did.
    pub fn sustained(&self) -> Option<f64> {
        self.pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_interleave_on_the_shared_rate() {
        // 2 tenants at 1000 orders/s: one send every millisecond overall.
        let dues: Vec<f64> = (0..3)
            .flat_map(|k| (0..2).map(move |t| due_s(k, t, 2, 1000.0)))
            .collect();
        let expect = [0.0, 0.001, 0.002, 0.003, 0.004, 0.005];
        for (d, e) in dues.iter().zip(expect) {
            assert!((d - e).abs() < 1e-12, "{d} vs {e}");
        }
        assert_eq!(orders_per_tenant(1000.0, 4.0, 2), 2000);
        assert_eq!(orders_per_tenant(1.0, 0.1, 4), 1);
    }

    #[test]
    fn lateness_excludes_time_blocked_by_the_server() {
        let late = |due: &[f64], begin: &[f64], end: &[f64]| own_late_ms(due, begin, end);
        // On time, then woke 2 ms late.
        let l = late(&[1.0, 2.0], &[1.0, 2.002], &[1.0001, 2.0021]);
        assert_eq!(l[0], 0.0);
        assert!((l[1] - 2.0).abs() < 1e-9);
        // Step 0's write was blocked by backpressure until 1.5 s; step 1,
        // due at 1.1 s, went out right after it: not late on the
        // generator's account.
        let l = late(&[1.0, 1.1], &[1.0, 1.5], &[1.5, 1.5001]);
        assert!(l[1].abs() < 1e-9);
        // Woke 1 ms after that blocked write ended.
        let l = late(&[1.0, 1.1], &[1.0, 1.501], &[1.5, 1.5011]);
        assert!((l[1] - 1.0).abs() < 1e-9);
        // The generator overslept step 0 by 3 ms; step 1, due 1 ms after
        // step 0, queued behind it and carries the rest of that oversleep.
        let l = late(&[1.0, 1.001], &[1.003, 1.0031], &[1.0031, 1.0032]);
        assert!((l[0] - 3.0).abs() < 1e-9);
        assert!((l[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn pace_is_kept_within_one_gap_per_tenant() {
        // 2 tenants at 4000 orders/s: each sends every 0.5 ms.
        assert!(kept_pace(0.5, 2, 4000.0));
        assert!(!kept_pace(0.6, 2, 4000.0));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Sent 3 ms late by a blocked socket and answered 1 ms after
        // sending: 4 ms.
        assert!((latency_ms(2.0, 0.0, 2.004) - 4.0).abs() < 1e-9);
        // The same, but the generator overslept those 3 ms itself: 1 ms.
        assert!((latency_ms(2.0, 3.0, 2.004) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn search_climbs_then_bisects() {
        // A server that sustains up to 11 000 orders/s.
        let mut s = Search::new(2000.0, 250.0, 64_000.0, 3);
        let mut tried = Vec::new();
        while let Some(rate) = s.next_rate() {
            tried.push(rate);
            s.record(rate, rate <= 11_000.0);
        }
        assert_eq!(&tried[..4], &[2000.0, 4000.0, 8000.0, 16_000.0]);
        assert_eq!(tried.len(), 7);
        // Three geometric bisections of [8000, 16000]: 2^(1/8) apart.
        let found = s.sustained().unwrap();
        assert!(found <= 11_000.0 && found * 2f64.powf(0.125) > 11_000.0);
        // The first rate fails: halve, then bisect.
        let mut s = Search::new(2000.0, 250.0, 64_000.0, 1);
        assert_eq!(s.next_rate(), Some(2000.0));
        s.record(2000.0, false);
        assert_eq!(s.next_rate(), Some(1000.0));
        s.record(1000.0, true);
        assert!((s.next_rate().unwrap() - 2000f64.sqrt() * 1000f64.sqrt()).abs() < 1e-6);
        // Bounded: nothing passes down to the floor, or everything up to
        // the cap.
        let mut s = Search::new(500.0, 250.0, 1000.0, 2);
        while let Some(rate) = s.next_rate() {
            s.record(rate, false);
        }
        assert_eq!(s.sustained(), None);
        let mut s = Search::new(500.0, 250.0, 1000.0, 2);
        while let Some(rate) = s.next_rate() {
            s.record(rate, true);
        }
        assert_eq!(s.sustained(), Some(1000.0));
    }

    #[test]
    fn outstanding_peaks_when_replies_lag() {
        assert_eq!(max_outstanding(&[0.0, 1.0, 2.0], &[0.5, 1.5, 2.5]), 1);
        assert_eq!(max_outstanding(&[0.0, 1.0, 2.0], &[2.5, 2.6, 2.7]), 3);
        assert_eq!(max_outstanding(&[0.0, 1.0], &[1.0, 2.0]), 2);
        assert_eq!(max_outstanding(&[], &[]), 0);
    }

    #[test]
    fn growing_backlog_is_detected() {
        let flat: Vec<f64> = (0..100).map(|i| 1.0 + (i % 3) as f64 * 0.1).collect();
        assert!(!backlog_growing(&flat, 10.0));
        let rising: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        assert!(backlog_growing(&rising, 10.0));
        let v = Verdict {
            valid: true,
            meets_limit: true,
            backlog_growing: false,
            completed: true,
            clean: true,
        };
        assert!(v.sustained());
        // An overrun is a capacity verdict: not sustained.
        assert!(!Verdict {
            completed: false,
            ..v
        }
        .sustained());
        // A late generator invalidates the run, not the server's verdict.
        assert!(Verdict { valid: false, ..v }.sustained());
        assert!(!Verdict {
            meets_limit: false,
            ..v
        }
        .sustained());
    }
}
