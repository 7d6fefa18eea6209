//! Spans recorded in the benchmark's own code around its calls into
//! each layer: name, start, end and the span that caused it. Spans stay
//! in memory and are summarised when the run ends.
//!
//! A span's layer is the longest listed layer its name starts with
//! (`sim.executor.forward_warm.lenet5` belongs to `sim.executor`). Its
//! self time is its duration minus the part of its interval its child
//! spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`.
    pub name: String,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// The longest of `layers` that prefixes this span's name at a `.`.
    #[must_use]
    pub fn layer<'a>(&self, layers: &[&'a str]) -> Option<&'a str> {
        layers
            .iter()
            .filter(|l| {
                self.name
                    .strip_prefix(**l)
                    .is_some_and(|rest| rest.starts_with('.'))
            })
            .max_by_key(|l| l.len())
            .copied()
    }

    /// Duration in ms.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// A per-thread span recorder. When off, it records nothing and every
/// call returns `None`, so untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder measuring from `epoch`; share the epoch between
    /// threads so their spans can be merged.
    #[must_use]
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh recorder with the same switch and epoch, for another
    /// thread.
    #[must_use]
    pub fn fork(&self) -> Self {
        Self::new(self.on, self.epoch)
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start: start.duration_since(self.epoch).as_secs_f64(),
            end: end.duration_since(self.epoch).as_secs_f64(),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is set by [`Tracer::close`]; children
    /// recorded in between can name it as their parent.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent);
        out
    }

    /// Moves another thread's spans in; its root spans become children
    /// of `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Every recorded span, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (ms) of each span: its duration minus the union of its
    /// children's intervals, clipped to its own.
    #[must_use]
    pub fn self_ms(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut covered, mut reach) = (0.0, s.start);
                for (lo, hi) in kids {
                    let (lo, hi) = (lo.max(reach), hi.min(s.end));
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end - s.start - covered) * 1e3
            })
            .collect()
    }

    /// Total self time (ms) of each of `layers`, 0 for a layer with no
    /// spans.
    #[must_use]
    pub fn self_ms_by_layer<'a>(&self, layers: &[&'a str]) -> BTreeMap<&'a str, f64> {
        let mut by_layer: BTreeMap<&str, f64> = layers.iter().map(|&l| (l, 0.0)).collect();
        for (s, own) in self.spans.iter().zip(self.self_ms()) {
            if let Some(layer) = s.layer(layers) {
                *by_layer.entry(layer).or_insert(0.0) += own;
            }
        }
        by_layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, ms: u64) -> Instant {
        epoch + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let root = t.record("loadgen.phase", at(epoch, 0), at(epoch, 100), None);
        // Overlapping children cover 10..40 once, plus 90..120 clipped
        // to 90..100: 40 ms covered in all.
        t.record("engine.drain", at(epoch, 10), at(epoch, 30), root);
        t.record("engine.submit", at(epoch, 20), at(epoch, 40), root);
        t.record("protocol.write", at(epoch, 90), at(epoch, 120), root);
        let own = t.self_ms();
        assert!((own[0] - 60.0).abs() < 1e-6, "{}", own[0]);
        assert!((own[1] - 20.0).abs() < 1e-6);
        let layers = t.self_ms_by_layer(&["engine", "loadgen", "protocol", "pcm"]);
        assert!((layers["engine"] - 40.0).abs() < 1e-6);
        assert!((layers["loadgen"] - 60.0).abs() < 1e-6);
        assert_eq!(layers["pcm"], 0.0);
    }

    #[test]
    fn layer_is_the_longest_listed_prefix() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        t.record("sim.executor.forward_warm.lenet5", epoch, epoch, None);
        t.record("simulator.step", epoch, epoch, None);
        let layers = ["sim", "sim.executor", "sim.llm"];
        assert_eq!(t.spans()[0].layer(&layers), Some("sim.executor"));
        assert_eq!(t.spans()[1].layer(&layers), None);
    }

    #[test]
    fn absorbed_roots_hang_off_the_given_parent() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch);
        let root = main.record("loadgen.phase", epoch, at(epoch, 10), None);
        let mut worker = main.fork();
        let w = worker.record("protocol.read", epoch, at(epoch, 2), None);
        worker.record("protocol.decode", epoch, at(epoch, 1), w);
        main.absorb(worker, root);
        assert_eq!(main.spans()[1].parent, root);
        assert_eq!(main.spans()[2].parent, Some(1));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.time("engine.drain", None, || 7), 7);
        assert!(t.open("loadgen.phase", None).is_none());
        assert!(t.spans().is_empty());
    }
}
