//! Raw signal traces: record, serialise and replay sensor streams.
//!
//! The paper's Table 3 was computed from raw accelerometer/pressure
//! recordings. This module gives the synthetic equivalent a durable form:
//! a 10 Hz reading stream can be captured to a line-oriented text file,
//! shared, and replayed through the detection pipeline bit-for-bit —
//! useful for debugging thresholds and for publishing datasets.
//!
//! ```text
//! #coreda-signal v1
//! #tool 6
//! #period_ms 100
//! P 101.31
//! P 104.22
//! A 0.013 -0.021 1.004
//! …
//! ```

use std::error::Error;
use std::fmt;

use coreda_des::rng::SimRng;
use serde::{Deserialize, Serialize};

use crate::sensors::{Reading, Vec3};
use crate::signal::SignalModel;

/// Format header line.
pub const HEADER: &str = "#coreda-signal v1";

/// A recorded reading stream from one tool's sensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignalTrace {
    /// The tool/node uid the trace came from.
    pub tool: u16,
    /// Sampling period in milliseconds (100 = the PAVENET 10 Hz).
    pub period_ms: u64,
    /// The readings, oldest first.
    pub readings: Vec<Reading>,
}

impl SignalTrace {
    /// Records `ticks` samples from `model`, with `active` saying whether
    /// the tool is in use at each tick index.
    pub fn record(
        tool: u16,
        model: &SignalModel,
        ticks: usize,
        mut active: impl FnMut(usize) -> bool,
        rng: &mut SimRng,
    ) -> Self {
        let readings = (0..ticks).map(|i| model.sample(active(i), rng)).collect();
        SignalTrace { tool, period_ms: 100, readings }
    }

    /// Duration covered by the trace, in milliseconds.
    #[must_use]
    pub fn duration_ms(&self) -> u64 {
        self.readings.len() as u64 * self.period_ms
    }

    /// Serialises to the text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "#tool {}", self.tool);
        let _ = writeln!(out, "#period_ms {}", self.period_ms);
        for r in &self.readings {
            match *r {
                Reading::Accel(v) => {
                    let _ = writeln!(out, "A {} {} {}", v.x, v.y, v.z);
                }
                Reading::Pressure(p) => {
                    let _ = writeln!(out, "P {p}");
                }
                Reading::Brightness(b) => {
                    let _ = writeln!(out, "B {b}");
                }
                Reading::Temperature(t) => {
                    let _ = writeln!(out, "T {t}");
                }
                Reading::Motion(m) => {
                    let _ = writeln!(out, "M {}", u8::from(m));
                }
            }
        }
        out
    }

    /// Parses the text format.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on a bad header or malformed line.
    pub fn from_text(text: &str) -> Result<Self, TraceError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l.trim() == HEADER => {}
            other => return Err(TraceError::BadHeader(other.map(|(_, l)| l.to_owned()))),
        }
        let tool = match lines.next() {
            Some((_, l)) if l.starts_with("#tool ") => l["#tool ".len()..]
                .trim()
                .parse()
                .map_err(|_| TraceError::BadHeader(Some(l.to_owned())))?,
            other => return Err(TraceError::BadHeader(other.map(|(_, l)| l.to_owned()))),
        };
        let period_ms = match lines.next() {
            Some((_, l)) if l.starts_with("#period_ms ") => l["#period_ms ".len()..]
                .trim()
                .parse()
                .map_err(|_| TraceError::BadHeader(Some(l.to_owned())))?,
            other => return Err(TraceError::BadHeader(other.map(|(_, l)| l.to_owned()))),
        };
        let mut readings = Vec::new();
        for (idx, line) in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let kind = parts.next().unwrap_or_default();
            let mut num = || -> Result<f64, TraceError> {
                parts
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or(TraceError::BadLine { line: idx + 1 })
            };
            let reading = match kind {
                "A" => Reading::Accel(Vec3::new(num()?, num()?, num()?)),
                "P" => Reading::Pressure(num()?),
                "B" => Reading::Brightness(num()?),
                "T" => Reading::Temperature(num()?),
                "M" => Reading::Motion(num()? != 0.0),
                _ => return Err(TraceError::BadLine { line: idx + 1 }),
            };
            readings.push(reading);
        }
        Ok(SignalTrace { tool, period_ms, readings })
    }
}

/// Trace parsing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Header lines missing or malformed.
    BadHeader(Option<String>),
    /// A reading line is malformed.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadHeader(Some(l)) => write!(f, "bad trace header: {l:?}"),
            TraceError::BadHeader(None) => write!(f, "trace is empty"),
            TraceError::BadLine { line } => write!(f, "line {line}: malformed reading"),
        }
    }
}

impl Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{Detector, Thresholds};

    fn sample_trace() -> SignalTrace {
        let model = SignalModel::accelerometer(0.03, 0.45, 0.6);
        let mut rng = SimRng::seed_from(1);
        // Active for the middle third.
        SignalTrace::record(5, &model, 90, |i| (30..60).contains(&i), &mut rng)
    }

    #[test]
    fn roundtrip_is_lossless_enough_to_reproduce_detection() {
        let trace = sample_trace();
        let parsed = SignalTrace::from_text(&trace.to_text()).unwrap();
        assert_eq!(parsed.tool, 5);
        assert_eq!(parsed.period_ms, 100);
        assert_eq!(parsed.readings.len(), trace.readings.len());
        // The replayed trace yields identical detector verdicts.
        let mut det_a = Detector::new(Thresholds::default().accel);
        let mut det_b = Detector::new(Thresholds::default().accel);
        for (a, b) in trace.readings.iter().zip(&parsed.readings) {
            assert_eq!(det_a.push(*a), det_b.push(*b));
        }
    }

    #[test]
    fn all_reading_kinds_roundtrip() {
        let trace = SignalTrace {
            tool: 9,
            period_ms: 100,
            readings: vec![
                Reading::Accel(Vec3::new(0.25, -0.5, 1.0)),
                Reading::Pressure(104.5),
                Reading::Brightness(250.0),
                Reading::Temperature(21.5),
                Reading::Motion(true),
                Reading::Motion(false),
            ],
        };
        let parsed = SignalTrace::from_text(&trace.to_text()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn duration_is_ticks_times_period() {
        assert_eq!(sample_trace().duration_ms(), 9_000);
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(matches!(SignalTrace::from_text(""), Err(TraceError::BadHeader(None))));
        assert!(SignalTrace::from_text("nope\n").is_err());
        let text = format!("{HEADER}\n#tool 1\n#period_ms 100\nX 1 2 3\n");
        assert_eq!(SignalTrace::from_text(&text), Err(TraceError::BadLine { line: 4 }));
        let text = format!("{HEADER}\n#tool 1\n#period_ms 100\nA 1 2\n");
        assert_eq!(SignalTrace::from_text(&text), Err(TraceError::BadLine { line: 4 }));
    }

    #[test]
    fn comments_and_blanks_tolerated() {
        let text = format!("{HEADER}\n#tool 2\n#period_ms 100\n\n# note\nP 101.3\n");
        let parsed = SignalTrace::from_text(&text).unwrap();
        assert_eq!(parsed.readings.len(), 1);
    }

    #[test]
    fn active_window_shows_in_activations() {
        let trace = sample_trace();
        let quiet: f64 = trace.readings[..30].iter().map(Reading::activation).sum::<f64>() / 30.0;
        let busy: f64 =
            trace.readings[30..60].iter().map(Reading::activation).sum::<f64>() / 30.0;
        assert!(busy > quiet * 3.0, "busy {busy:.3} vs quiet {quiet:.3}");
    }
}
