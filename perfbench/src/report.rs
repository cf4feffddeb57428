//! What one benchmark run found, and how it is printed: a human-readable
//! table of every metric with its unit and sample count, the checks, the
//! exact counts and output digest, and — last — the one-line JSON result.

use std::fmt::Write as _;

use crate::ledger::{Kind, Tracer};
use crate::measure::{median, Digest};

/// End-to-end metrics in the JSON result of an untraced run. Every
/// workload reports all of them (see `perfbench/README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("ticks_per_s", "1/s"),
    ("wakes_per_cpu_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics in the JSON result of a traced run, beyond the
/// `span.<kind>.{calls,self_ns,share_pct}` triple every span kind gets.
/// A layer a workload never calls reports 0.
pub const LAYER_METRICS: [(&str, &str); 29] = [
    ("setup.ctx_s", "s"),
    ("setup.arena_s", "s"),
    ("des.drain_ns", "ns"),
    ("des.events_per_wake", "count"),
    ("metro.chain_ns", "ns"),
    ("metro.wake_ns", "ns"),
    ("metro.merge_s", "s"),
    ("metro.resume_s", "s"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_wake", "B"),
    ("client.flush_ns", "ns"),
    ("server.outbox_wait_p50_ms", "ms"),
    ("server.outbox_wait_p99_ms", "ms"),
    ("checkpoint.encode_mb_s", "MB/s"),
    ("checkpoint.diff_s", "s"),
    ("wal.encode_mb_s", "MB/s"),
    ("checkpoint.decode_mb_s", "MB/s"),
    ("checkpoint.compact_s", "s"),
    ("wal.decode_mb_s", "MB/s"),
    ("checkpoint.dirty_home_pct", "%"),
    ("ctr.sample_windows_per_wake", "count"),
    ("ctr.radio_attempts_per_frame", "count"),
    ("ctr.reports_accepted_per_wake", "count"),
    ("ctr.steps_extracted_per_wake", "count"),
    ("ctr.planner_decisions_per_wake", "count"),
    ("ctr.prompts_rendered_per_wake", "count"),
    ("trace.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: u64,
}

#[derive(Debug)]
pub struct Report {
    pub header: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub checks: Vec<(String, bool, String)>,
    /// Exact counts; the flag marks those folded into the digest.
    pub exact: Vec<(String, String, bool)>,
    pub notes: Vec<String>,
    digest: Digest,
}

impl Report {
    pub fn new(header: String) -> Report {
        Report {
            header,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            layers: Vec::new(),
            checks: Vec::new(),
            exact: Vec::new(),
            notes: Vec::new(),
            digest: Digest::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// `setup_s`: the median of the set-ups, which run first in the
    /// fresh process; the samples are noted in the order they ran.
    pub fn setup(&mut self, samples: &[f64]) {
        self.metric("setup_s", median(samples), "s", samples.len() as u64);
        self.notes.push(format!("set-ups took {samples:.4?} s"));
    }

    /// Records a check; a failed one fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// An exact, seed-determined count: printed and folded into the
    /// output digest, so any change in simulated work shows.
    pub fn exact(&mut self, name: &str, value: impl std::fmt::Display) {
        let value = value.to_string();
        self.digest.bytes(name.as_bytes());
        self.digest.bytes(value.as_bytes());
        self.exact.push((name.to_string(), value, true));
    }

    /// An exact count only the traced run measures: printed, but kept
    /// out of the digest so traced and untraced runs digest alike.
    pub fn traced_exact(&mut self, name: &str, value: impl std::fmt::Display) {
        self.exact
            .push((name.to_string(), value.to_string(), false));
    }

    /// Folds rendered output (report render, WAL bytes, care log) into
    /// the digest.
    pub fn digest_bytes(&mut self, bytes: &[u8]) {
        self.digest.bytes(bytes);
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    /// Adds the span ledger: calls, self time per call and share of the
    /// traced total for every span kind.
    pub fn span_ledger(&mut self, tr: &Tracer) {
        let total = tr.self_total_ns().max(1) as f64;
        for k in Kind::ALL {
            let a = tr.agg(k);
            let per = a.per_call_ns();
            let share = a.self_ns as f64 / total * 100.0;
            self.layer(
                &format!("span.{}.calls", k.name()),
                a.calls as f64,
                "count",
                1,
            );
            self.layer(&format!("span.{}.self_ns", k.name()), per, "ns", a.calls);
            self.layer(&format!("span.{}.share_pct", k.name()), share, "%", 1);
        }
    }

    fn find(list: &[Metric], name: &str) -> Option<f64> {
        list.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Prints the human-readable report, then the JSON result line.
    pub fn print(&self, traced: bool) {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header);
        let _ = writeln!(
            out,
            "{:<34} {:>16} {:<6} {:>9}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<34} {:>16.4} {:<6} {:>9}",
                m.name, m.value, m.unit, m.samples
            );
        }
        if traced {
            let _ = writeln!(out, "per-layer ledger (traced run):");
            for m in self.layers.iter().filter(|m| !m.name.starts_with("span.")) {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>16.4} {:<6} {:>9}",
                    m.name, m.value, m.unit, m.samples
                );
            }
            let _ = writeln!(
                out,
                "  {:<20} {:>9} {:>14} {:>8}",
                "span", "calls", "self ns/call", "share %"
            );
            for k in Kind::ALL {
                let get = |s: &str| {
                    Self::find(&self.layers, &format!("span.{}.{s}", k.name())).unwrap_or(0.0)
                };
                if get("calls") > 0.0 {
                    let _ = writeln!(
                        out,
                        "  {:<20} {:>9} {:>14.1} {:>8.3}",
                        k.name(),
                        get("calls"),
                        get("self_ns"),
                        get("share_pct")
                    );
                }
            }
        }
        let _ = writeln!(out, "exact counts:");
        for (k, v, digested) in &self.exact {
            let _ = writeln!(
                out,
                "  {k} = {v}{}",
                if *digested { "" } else { " (traced)" }
            );
        }
        let _ = writeln!(out, "output digest: {}", self.digest.hex());
        let _ = writeln!(out, "checks:");
        for (name, ok, detail) in &self.checks {
            let _ = writeln!(
                out,
                "  {} {name}{}",
                if *ok { "ok  " } else { "FAIL" },
                if detail.is_empty() {
                    String::new()
                } else {
                    format!(": {detail}")
                }
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        print!("{out}");
        println!("{}", self.json(traced));
    }

    fn json(&self, traced: bool) -> String {
        let mut fields = Vec::new();
        let mut push = |name: &str, value: Option<f64>, unit: &str| {
            // JSON has no infinity: an infinitely late delivery (a frame
            // never received) prints as 1e300 and its run fails its checks.
            let v = value.unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 1e300 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        };
        if traced {
            for k in Kind::ALL {
                for (s, unit) in [("calls", "count"), ("self_ns", "ns"), ("share_pct", "%")] {
                    let name = format!("span.{}.{s}", k.name());
                    push(&name, Self::find(&self.layers, &name), unit);
                }
            }
            for (name, unit) in LAYER_METRICS {
                push(name, Self::find(&self.layers, name), unit);
            }
        } else {
            for (name, unit) in END_TO_END {
                push(name, Self::find(&self.metrics, name), unit);
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}
