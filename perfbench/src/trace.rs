//! In-memory spans for the traced run.
//!
//! The benchmark records spans from its own code, around the calls it
//! makes into each layer's public boundary. Spans stay in memory while the
//! run measures and are written out once, when it ends. A span's self
//! time is its duration minus the part of that interval its children
//! cover.

use std::io::Write;
use std::time::Instant;

/// One recorded interval. Times are seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.pre_dispatch`.
    pub name: &'static str,
    /// Start, seconds since the origin.
    pub start: f64,
    /// End, seconds since the origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Epoch index within the episode, for per-epoch spans.
    pub epoch: Option<usize>,
}

impl Span {
    /// The span's duration, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans against one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose origin is now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a finished interval and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        epoch: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            epoch,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines:
    /// `index name start_s end_s parent epoch self_s` (`-` for none).
    pub fn dump(&self, out: &mut impl Write) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        writeln!(out, "index\tname\tstart_s\tend_s\tparent\tepoch\tself_s")?;
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let opt = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{i}\t{}\t{:.9}\t{:.9}\t{}\t{}\t{own:.9}",
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.epoch)
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut run: Option<(f64, f64)> = None;
            for (a, b) in kids {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.duration() - covered
        })
        .collect()
}

/// Sum of self time over every span with the given name.
pub fn self_time_of(spans: &[Span], own: &[f64], name: &str) -> f64 {
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            epoch: None,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("episode", 0.0, 10.0, None),
            span("pre", 0.0, 3.0, Some(0)),
            span("dispatch", 3.0, 8.0, Some(0)),
            span("inner", 4.0, 5.0, Some(2)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![2.0, 3.0, 4.0, 1.0]);
        assert_eq!(self_time_of(&spans, &own, "dispatch"), 4.0);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("parent", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            span("c", 8.0, 9.0, Some(0)),
        ];
        // Covered: [1, 6] and [8, 9] = 6 s.
        assert_eq!(self_times(&spans)[0], 4.0);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("parent", 2.0, 5.0, None),
            span("late", 4.0, 7.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![2.0, 3.0]);
    }

    #[test]
    fn dump_writes_one_line_per_span() {
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let root = tracer.record("episode", t0, t0, None, None);
        tracer.record("epoch", t0, t0, Some(root), Some(0));
        let mut out = Vec::new();
        tracer.dump(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().contains("\tepoch\t"));
    }
}
