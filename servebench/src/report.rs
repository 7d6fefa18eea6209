//! Runs the three phases for one invocation and turns what they
//! measured into the named metrics and the final JSON line.

use crate::cnn_wire::{self, CnnWire};
use crate::llm_wire::{self, LlmWire};
use crate::offline::{self, Offline};
use crate::spans::Tracer;
use crate::{common, probes, stats, Args, WORKLOADS};
use oxbar_serve::{catalog, EngineStats};
use std::fmt;
use std::io;
use std::time::Instant;

/// Timed set-ups of the named workload's phase; `setup_s` is their
/// median.
const SETUPS: usize = 9;

/// Seconds of traffic in each phase when it is not the named workload,
/// in [`WORKLOADS`] order. The `cnn_wire_open` pass sends 1000
/// requests, the fewest that put ten samples beyond its traced p99.
const COMPANION_SECONDS: [f64; 3] = [10.0, 8.0, 4.0];

/// Layers whose span self time is reported, longest-prefix matched.
const LAYERS: [&str; 10] = [
    "loadgen",
    "protocol",
    "server",
    "engine",
    "batcher",
    "cluster",
    "sim.executor",
    "sim.llm",
    "pcm",
    "photonics",
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The final result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        )?;
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                f,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )?;
        }
        write!(f, "}}}}")
    }
}

/// What the three phases of one invocation measured.
struct Phases {
    cnn: CnnWire,
    offline: Offline,
    llm: LlmWire,
    /// Peak RSS after the named workload's phase, MB.
    rss_peak_mb: f64,
}

impl Phases {
    fn correct(&self) -> bool {
        self.cnn.mismatches + self.offline.mismatches + self.llm.mismatches == 0
    }

    fn attempted(&self) -> u64 {
        self.cnn.attempted + self.offline.attempted + self.llm.attempted
    }

    fn failed(&self) -> u64 {
        self.cnn.failed + self.offline.failed + self.llm.failed
    }

    fn setup_s(&self, workload: usize) -> &[f64] {
        match workload {
            0 => &self.cnn.setup_s,
            1 => &self.offline.setup_s,
            _ => &self.llm.setup_s,
        }
    }

    /// The named workload's end-to-end time, ms: CNN wire p50, warm
    /// drain CPU time per inference, or LLM sequence p50.
    fn headline_ms(&self, workload: usize) -> Option<f64> {
        match workload {
            0 => stats::median(&self.cnn.latencies_ms),
            1 => stats::median(&self.offline.warm_ips).map(|ips| 1e3 / ips),
            _ => stats::median(&self.llm.seq_ms),
        }
    }
}

/// Runs the named workload's phase at length, then the other two short.
fn serve(args: &Args, only_primary: bool, tracer: &mut Tracer) -> io::Result<Phases> {
    let mut phases = Phases {
        cnn: CnnWire::default(),
        offline: Offline::default(),
        llm: LlmWire::default(),
        rss_peak_mb: 0.0,
    };
    let order = std::iter::once(args.workload)
        .chain((0..WORKLOADS.len()).filter(|&w| w != args.workload && !only_primary));
    for w in order {
        let (seconds, setups) = if w == args.workload {
            (args.seconds, SETUPS)
        } else {
            (COMPANION_SECONDS[w], 1)
        };
        match w {
            0 => phases.cnn = cnn_wire::run(args.seed, seconds, setups, tracer)?,
            1 => phases.offline = offline::run(args.seed, seconds, setups, tracer),
            _ => phases.llm = llm_wire::run(args.seed, seconds, setups, tracer)?,
        }
        if w == args.workload {
            phases.rss_peak_mb = common::peak_rss_mb();
        }
    }
    Ok(phases)
}

/// A statistic that must exist for the run to report.
fn need(name: &str, value: Option<f64>) -> io::Result<f64> {
    value
        .filter(|v| v.is_finite())
        .ok_or_else(|| io::Error::other(format!("too few samples to report {name}")))
}

/// Collects metrics, refusing any that could not be measured.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str) -> io::Result<()> {
        let value = need(name, value)?;
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
        Ok(())
    }
}

/// Runs one invocation.
///
/// # Errors
///
/// A phase that could not set up, or a metric without the samples it
/// needs.
pub fn run(args: &Args) -> io::Result<Output> {
    let epoch = Instant::now();
    let mut metrics = Metrics::default();
    let phases = if args.trace {
        let untraced = serve(args, true, &mut Tracer::new(false, epoch))?;
        let mut tracer = Tracer::new(true, epoch);
        let traced = serve(args, false, &mut tracer)?;
        let counts = probes::run(args.seed, &mut tracer);
        let overhead = traced
            .headline_ms(args.workload)
            .zip(untraced.headline_ms(args.workload))
            .map(|(t, u)| t - u);
        per_layer(&mut metrics, &traced, &tracer, &counts)?;
        metrics.put("trace.overhead_ms", overhead, "ms")?;
        traced
    } else {
        let phases = serve(args, false, &mut Tracer::new(false, epoch))?;
        end_to_end(&mut metrics, &phases, args.workload)?;
        phases
    };
    summarize(&phases);
    Ok(Output {
        correct: phases.correct(),
        attempted: phases.attempted(),
        failed: phases.failed(),
        metrics: metrics.0,
    })
}

fn end_to_end(m: &mut Metrics, p: &Phases, workload: usize) -> io::Result<()> {
    m.put("setup_s", stats::median(p.setup_s(workload)), "s")?;
    m.put("rss_peak_mb", Some(p.rss_peak_mb), "MB")?;
    let window = cnn_wire::WINDOW;
    let cnn = &p.cnn.latencies_ms;
    m.put(
        "cnn_p50_ms",
        stats::windowed_percentile(cnn, window, 0.50),
        "ms",
    )?;
    m.put(
        "cnn_p90_ms",
        stats::windowed_percentile(cnn, window, 0.90),
        "ms",
    )?;
    m.put("warm_ips", stats::median(&p.offline.warm_ips), "1/s")?;
    m.put("thrash_ips", stats::median(&p.offline.thrash_ips), "1/s")?;
    m.put("llm_ttft_p50_ms", stats::median(&p.llm.ttft_ms), "ms")?;
    m.put("llm_seq_p50_ms", stats::median(&p.llm.seq_ms), "ms")?;
    let tokens_per_s = p.llm.tokens as f64 / p.llm.wall_s;
    m.put("llm_tokens_per_s", Some(tokens_per_s), "1/s")
}

/// Median duration (ms) of the spans called `name`, optionally only
/// those whose parent is called `parent`.
fn span_median(tracer: &Tracer, name: &str, parent: Option<&str>) -> Option<f64> {
    let spans = tracer.spans();
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| parent.is_none_or(|want| s.parent.is_some_and(|i| spans[i].name == want)))
        .map(crate::spans::Span::ms)
        .collect();
    stats::median(&durations)
}

fn per_layer(
    m: &mut Metrics,
    p: &Phases,
    tracer: &Tracer,
    counts: &probes::ProbeCounts,
) -> io::Result<()> {
    let us = |ms: Option<f64>| ms.map(|v| v * 1e3);
    let count = |v: u64| Some(v as f64);

    m.put(
        "loadgen.late_p99_ms",
        stats::percentile(&p.cnn.late_ms, 0.99),
        "ms",
    )?;
    m.put(
        "loadgen.cnn_p99_ms",
        stats::percentile(&p.cnn.latencies_ms, 0.99),
        "ms",
    )?;
    m.put(
        "loadgen.llm_gap_p50_ms",
        stats::median(&p.llm.gaps_ms),
        "ms",
    )?;
    m.put(
        "loadgen.host_speed",
        stats::median(&p.offline.host_speed),
        "ratio",
    )?;

    m.put(
        "protocol.encode_us",
        us(span_median(tracer, "protocol.encode", None)),
        "us",
    )?;
    m.put(
        "protocol.decode_us",
        us(span_median(tracer, "protocol.decode", None)),
        "us",
    )?;
    m.put("protocol.request_bytes", Some(p.cnn.request_bytes), "bytes")?;
    m.put("protocol.reply_bytes", Some(p.cnn.reply_bytes), "bytes")?;

    m.put("server.residual_p50_ms", p.cnn.residual_p50_ms, "ms")?;
    m.put("server.llm_residual_p50_ms", p.llm.residual_p50_ms, "ms")?;
    m.put(
        "server.batch_size_mean",
        Some(p.cnn.batch_size_mean),
        "count",
    )?;

    let thrash = p
        .offline
        .thrash_stats
        .as_ref()
        .ok_or_else(|| io::Error::other("no thrash drain"))?;
    let warm = p
        .offline
        .warm_stats
        .as_ref()
        .ok_or_else(|| io::Error::other("no warm drain"))?;
    let engines: [&EngineStats; 2] = [thrash, warm];
    let sheds = p.cnn.sheds + p.llm.sheds + engines.iter().map(|s| s.sheds).sum::<u64>();
    let retries = p.cnn.retries + p.llm.retries + engines.iter().map(|s| s.retries).sum::<u64>();
    m.put(
        "engine.submit_us",
        us(span_median(tracer, "engine.try_submit", None)),
        "us",
    )?;
    m.put(
        "engine.drain_ms",
        span_median(tracer, "engine.drain_traced", Some("loadgen.offline_warm")),
        "ms",
    )?;
    m.put(
        "engine.batch_p50_ms",
        stats::median(&p.offline.warm_batch_ms),
        "ms",
    )?;
    m.put(
        "engine.batch_p90_ms",
        stats::percentile(&p.offline.warm_batch_ms, 0.90),
        "ms",
    )?;
    m.put("engine.sheds", count(sheds), "count")?;
    m.put("engine.retries", count(retries), "count")?;

    m.put(
        "batcher.form_us",
        us(span_median(tracer, "batcher.form_batches", None)),
        "us",
    )?;
    m.put(
        "batcher.route_us",
        us(span_median(tracer, "batcher.route_rounds", None)),
        "us",
    )?;
    m.put("batcher.batches", count(thrash.batches), "count")?;
    m.put(
        "batcher.mean_batch_size",
        Some(thrash.mean_batch_size()),
        "count",
    )?;

    m.put("cluster.hit_rate", Some(thrash.hit_rate()), "ratio")?;
    m.put("cluster.evictions", count(thrash.evictions), "count")?;
    m.put(
        "cluster.prewarmed_tiles",
        count(thrash.prewarmed_tiles),
        "count",
    )?;
    let cnn_names: Vec<String> = catalog::stock_catalog()
        .into_iter()
        .map(|s| s.name)
        .collect();
    for name in cnn_names.iter().map(String::as_str).chain(["llm_tiny"]) {
        let median = span_median(tracer, &format!("cluster.prewarm.{name}"), None);
        m.put(&format!("cluster.prewarm_ms.{name}"), median, "ms")?;
    }

    for name in &cnn_names {
        let warm = span_median(tracer, &format!("sim.executor.forward_warm.{name}"), None);
        m.put(&format!("sim.executor.forward_warm_ms.{name}"), warm, "ms")?;
        let cold = span_median(tracer, &format!("sim.executor.forward_cold.{name}"), None);
        m.put(&format!("sim.executor.forward_cold_ms.{name}"), cold, "ms")?;
    }
    m.put(
        "sim.executor.tiles_programmed",
        count(counts.tiles_programmed),
        "count",
    )?;
    m.put(
        "sim.executor.cells_programmed",
        count(counts.cells_programmed),
        "count",
    )?;
    m.put(
        "sim.llm.step_ms",
        span_median(tracer, "sim.llm.lm_step", None),
        "ms",
    )?;

    m.put(
        "pcm.program_us",
        us(span_median(tracer, "pcm.program_codes", None)),
        "us",
    )?;
    let mvm = us(span_median(tracer, "photonics.run_normalized_batch", None));
    m.put(
        "photonics.mvm_us",
        mvm.map(|v| v / probes::MVM_WINDOWS as f64),
        "us",
    )?;
    m.put(
        "photonics.mvm_macs",
        Some(probes::MVM_MACS_PER_WINDOW as f64),
        "count",
    )?;
    m.put(
        "photonics.mvm_bytes",
        Some(probes::MVM_BYTES_PER_WINDOW as f64),
        "bytes",
    )?;

    for (layer, own) in tracer.self_ms_by_layer(&LAYERS) {
        m.put(&format!("{layer}.self_ms"), Some(own), "ms")?;
    }
    Ok(())
}

/// Sample counts and the highest percentile each supports, for the
/// human reader (stdout, before the result line).
fn summarize(p: &Phases) {
    let tail = |n: usize| {
        stats::highest_supported(n).map_or("none".to_string(), |q| format!("p{}", q * 100.0))
    };
    println!(
        "cnn_wire_open: {} sent, {} answered (highest supported tail {}), {} failed",
        p.cnn.attempted,
        p.cnn.latencies_ms.len(),
        tail(p.cnn.latencies_ms.len()),
        p.cnn.failed
    );
    println!(
        "cnn_offline: {} warm and {} thrash drains of {} requests, {} failed, host speed {:.3} of nominal",
        p.offline.warm_ips.len(),
        p.offline.thrash_ips.len(),
        offline::REQUESTS,
        p.offline.failed,
        stats::median(&p.offline.host_speed).unwrap_or(f64::NAN)
    );
    println!(
        "llm_wire_generate: {} sequences, {} tokens (highest supported tail {}), {} failed",
        p.llm.attempted,
        p.llm.tokens,
        tail(p.llm.ttft_ms.len()),
        p.llm.failed
    );
    println!("engine workers: {}", common::workers());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_full_precision_values() {
        let out = Output {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "cnn_p50_ms".to_string(),
                    value: 5.123_456_789_012_345,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s".to_string(),
                    value: 2.0,
                    unit: "s",
                },
            ],
        };
        assert_eq!(
            out.to_string(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"cnn_p50_ms\": {\"value\": 5.123456789012345, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_metric_without_samples_is_refused() {
        let mut m = Metrics::default();
        assert!(m
            .put("cnn_p90_ms", stats::percentile(&[1.0; 50], 0.90), "ms")
            .is_err());
        assert!(m.put("warm_ips", Some(f64::NAN), "1/s").is_err());
        assert!(m.put("warm_ips", Some(812.5), "1/s").is_ok());
    }
}
