//! The traced run's span store and the per-layer ledger built from it.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public functions. A span has a kind, a start, an end
//! and a parent (the span open when it began); spans of one wake share
//! the wake's `(home, instant)` id. A traced 100k-home run makes tens of
//! millions of spans, so the store is bounded: every span is folded into
//! per-kind totals, and only a fixed sample of raw spans (the wakes of
//! every `SAMPLE_HOME_STRIDE`-th home plus the first epoch windows'
//! structural spans) is kept verbatim. All of it stays in memory and is
//! written once, at the end.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// A layer boundary the traced drives time. `name` is the span name in
/// the ledger; the comment names the public call the span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The traced drive as a whole; self time is the benchmark's glue.
    Drive,
    /// `ServeCtx::new` (planner-template training, shared tables).
    SetupCtx,
    /// `ServeCtx::session` (arena allocation, initial wakes).
    SetupArena,
    /// Every home's handshake exchange.
    Handshake,
    /// One epoch window; self time is the per-window loop glue.
    Epoch,
    /// `ServeSession::next_epoch` (DES drain of one window).
    Drain,
    /// `ServeSession::next_wake` (chain lookup and walk).
    Chain,
    /// `ServeSession::serve_wake` (the per-wake pipeline).
    Wake,
    /// `ServeSession::drain_care` / `finish_care`.
    Care,
    /// `Clock::wait_until` (idle pacing, not CPU).
    Wait,
    /// `encode_frame`.
    Encode,
    /// `try_decode` over a connection's inbound bytes.
    Decode,
    /// `Client::on_bytes` of the timed mote client.
    Flush,
    /// `ServeSession::finish` + `collect_served`.
    Merge,
    /// `run_scale_durable` (simulation, snapshot capture and diff).
    DurableRun,
    /// `save_checkpoint` / `save_delta`.
    CkptEncode,
    /// `encode_wal`.
    WalEncode,
    /// `load_checkpoint` / `load_delta`.
    CkptDecode,
    /// `decode_wal_tolerant`.
    WalDecode,
    /// `delta_checkpoint`.
    Diff,
    /// `apply_delta` along the chain (what `compact` does).
    Compact,
    /// `resume_scale_durable`.
    Resume,
}

impl Kind {
    pub const ALL: [Kind; 22] = [
        Kind::Drive,
        Kind::SetupCtx,
        Kind::SetupArena,
        Kind::Handshake,
        Kind::Epoch,
        Kind::Drain,
        Kind::Chain,
        Kind::Wake,
        Kind::Care,
        Kind::Wait,
        Kind::Encode,
        Kind::Decode,
        Kind::Flush,
        Kind::Merge,
        Kind::DurableRun,
        Kind::CkptEncode,
        Kind::WalEncode,
        Kind::CkptDecode,
        Kind::WalDecode,
        Kind::Diff,
        Kind::Compact,
        Kind::Resume,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            Kind::Drive => "bench.drive",
            Kind::SetupCtx => "setup.ctx",
            Kind::SetupArena => "setup.arena",
            Kind::Handshake => "server.handshake",
            Kind::Epoch => "bench.epoch",
            Kind::Drain => "des.drain",
            Kind::Chain => "metro.chain",
            Kind::Wake => "metro.wake",
            Kind::Care => "metro.care",
            Kind::Wait => "clock.wait",
            Kind::Encode => "wire.encode",
            Kind::Decode => "wire.decode",
            Kind::Flush => "client.flush",
            Kind::Merge => "metro.merge",
            Kind::DurableRun => "metro.durable_run",
            Kind::CkptEncode => "checkpoint.encode",
            Kind::WalEncode => "wal.encode",
            Kind::CkptDecode => "checkpoint.decode",
            Kind::WalDecode => "wal.decode",
            Kind::Diff => "checkpoint.diff",
            Kind::Compact => "checkpoint.compact",
            Kind::Resume => "metro.resume",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const KINDS: usize = Kind::ALL.len();

/// Raw spans kept verbatim: the wakes of every home whose id is a
/// multiple of this stride.
const SAMPLE_HOME_STRIDE: u32 = 997;
/// Structural (non-wake) spans are kept verbatim for this many windows.
const SAMPLE_WINDOWS: u32 = 32;
/// Hard cap on raw spans kept (~40 B each).
const SAMPLE_CAP: usize = 100_000;

/// Calls, self time and total time of one span kind, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

impl Agg {
    /// Self time per call (0 for a span never entered).
    pub fn per_call_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// [`Agg`] in timestamp ticks, as the store accumulates it.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    calls: u64,
    self_t: u64,
    total_t: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    kind: Kind,
    start_t: u64,
    child_t: u64,
}

/// One raw span. `home == u32::MAX` marks a span outside any wake.
#[derive(Debug, Clone, Copy)]
struct RawSpan {
    kind: Kind,
    parent: Option<Kind>,
    start_t: u64,
    end_t: u64,
    home: u32,
    at_ms: u64,
}

/// Span timestamps in ticks: the TSC on x86-64, where reading it costs
/// a fraction of `Instant::now` on a virtualised host, and nanoseconds
/// since an `Instant` elsewhere. A rate calibrated against `Instant`
/// converts ticks to nanoseconds.
#[derive(Debug)]
struct Ticks {
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    origin: Instant,
    origin_t: u64,
}

impl Ticks {
    fn new() -> Ticks {
        let mut t = Ticks {
            origin: Instant::now(),
            origin_t: 0,
        };
        t.origin_t = t.raw();
        t
    }

    /// Nanoseconds per tick, calibrated once per process (a 20 ms spin
    /// on x86-64) on the first conversion, after the timed phases.
    fn ns_per_tick(&self) -> f64 {
        static RATE: OnceLock<f64> = OnceLock::new();
        *RATE.get_or_init(|| {
            if !cfg!(target_arch = "x86_64") {
                return 1.0;
            }
            let (i0, c0) = (Instant::now(), self.raw());
            while i0.elapsed().as_millis() < 20 {}
            let (ns, c1) = (i0.elapsed().as_secs_f64() * 1e9, self.raw());
            ns / c1.saturating_sub(c0).max(1) as f64
        })
    }

    #[inline]
    fn raw(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: RDTSC only reads the time-stamp counter; it touches no
        // memory and every x86-64 CPU implements it.
        let t = unsafe { std::arch::x86_64::_rdtsc() };
        #[cfg(not(target_arch = "x86_64"))]
        let t = self.origin.elapsed().as_nanos() as u64;
        t
    }

    #[inline]
    fn now(&self) -> u64 {
        self.raw().wrapping_sub(self.origin_t)
    }

    fn ns(&self, ticks: u64) -> u64 {
        (ticks as f64 * self.ns_per_tick()) as u64
    }
}

/// The span store: per-kind totals and a bounded raw sample.
#[derive(Debug)]
pub struct Tracer {
    /// `false` for [`Tracer::off`]: spans are not recorded.
    on: bool,
    ticks: Ticks,
    stack: Vec<Open>,
    totals: [Acc; KINDS],
    /// Epoch windows closed so far.
    epochs: u32,
    sample: Vec<RawSpan>,
    sample_dropped: u64,
    wake: Option<(u32, u64)>,
    /// Bytes each kind processed (codec throughput).
    pub bytes: [u64; KINDS],
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            ticks: Ticks::new(),
            stack: Vec::with_capacity(16),
            totals: [Acc::default(); KINDS],
            epochs: 0,
            sample: Vec::new(),
            sample_dropped: 0,
            wake: None,
            bytes: [0; KINDS],
        }
    }

    /// A tracer that records no spans, for the untraced runs of code the
    /// traced drives share.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    pub fn enter(&mut self, kind: Kind) {
        if !self.on {
            return;
        }
        let start_t = self.ticks.now();
        self.stack.push(Open {
            kind,
            start_t,
            child_t: 0,
        });
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_t = self.ticks.now();
        let open = self.stack.pop().expect("exit without enter");
        let dur = end_t.saturating_sub(open.start_t);
        let acc = &mut self.totals[open.kind.index()];
        acc.calls += 1;
        acc.self_t += dur.saturating_sub(open.child_t);
        acc.total_t += dur;
        let parent = self.stack.last_mut().map(|p| {
            p.child_t += dur;
            p.kind
        });
        let keep = match self.wake {
            Some((home, _)) => home % SAMPLE_HOME_STRIDE == 0,
            None => self.epochs < SAMPLE_WINDOWS,
        };
        if keep {
            if self.sample.len() < SAMPLE_CAP {
                let (home, at_ms) = self.wake.unwrap_or((u32::MAX, 0));
                self.sample.push(RawSpan {
                    kind: open.kind,
                    parent,
                    start_t: open.start_t,
                    end_t,
                    home,
                    at_ms,
                });
            } else {
                self.sample_dropped += 1;
            }
        }
        if open.kind == Kind::Epoch {
            self.epochs += 1;
        }
    }

    /// Times `f` as one span of `kind`.
    pub fn span<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> T {
        self.enter(kind);
        let out = f();
        self.exit();
        out
    }

    /// Tags the spans that follow with a wake's `(home, instant)` id.
    pub fn set_wake(&mut self, wake: Option<(u32, u64)>) {
        self.wake = wake;
    }

    pub fn agg(&self, kind: Kind) -> Agg {
        let a = self.totals[kind.index()];
        Agg {
            calls: a.calls,
            self_ns: self.ticks.ns(a.self_t),
            total_ns: self.ticks.ns(a.total_t),
        }
    }

    /// Spans recorded in total.
    pub fn spans(&self) -> u64 {
        self.totals.iter().map(|a| a.calls).sum()
    }

    /// Sum of every span's self time: the traced total when the drive
    /// ran under one root span.
    pub fn self_total_ns(&self) -> u64 {
        self.ticks.ns(self.totals.iter().map(|a| a.self_t).sum())
    }

    /// Per-span cost of the tracer itself, measured on a scratch store:
    /// what each recorded span adds to the traced run's wall time.
    pub fn calibrate_span_ns() -> f64 {
        const N: u32 = 200_000;
        let mut t = Tracer::new();
        t.enter(Kind::Drive);
        let start = Instant::now();
        for _ in 0..N {
            t.enter(Kind::Wake);
            t.exit();
        }
        let per = start.elapsed().as_secs_f64() * 1e9 / f64::from(N);
        t.exit();
        per
    }

    /// Writes the store as JSON lines: one `kind` line per span kind
    /// with totals, then the raw sample as `span` lines.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"header\",{header},\"spans\":{},\"epochs\":{},\"sampled\":{},\"sample_dropped\":{}}}",
            self.spans(),
            self.epochs,
            self.sample.len(),
            self.sample_dropped
        );
        for k in Kind::ALL {
            let a = self.agg(k);
            if a.calls > 0 {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"kind\",\"name\":\"{}\",\"calls\":{},\"self_ns\":{},\"total_ns\":{},\"bytes\":{}}}",
                    k.name(),
                    a.calls,
                    a.self_ns,
                    a.total_ns,
                    self.bytes[k.index()]
                );
            }
        }
        for s in &self.sample {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| format!("\"{}\"", p.name()));
            let id = if s.home == u32::MAX {
                "null".to_string()
            } else {
                format!("[{},{}]", s.home, s.at_ms)
            };
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"wake\":{id}}}",
                s.kind.name(),
                self.ticks.ns(s.start_t),
                self.ticks.ns(s.end_t)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Log-linear latency histogram over nanoseconds: exact below 2048 ns,
/// then 1024 sub-buckets per power of two (0.1 % relative resolution) —
/// bounded memory for the ~10^6 polls of a served run.
#[derive(Debug, Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    total: u64,
}

const LINEAR: u64 = 2048;
const SUB_BITS: u32 = 10;

impl LatHist {
    pub fn new() -> LatHist {
        LatHist {
            counts: vec![0; (LINEAR as usize) + (64 - 11) * (1 << SUB_BITS)],
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < LINEAR {
            return usize::try_from(v).expect("small");
        }
        let e = 63 - v.leading_zeros(); // >= 11
        let sub = (v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        usize::try_from(LINEAR + u64::from(e - 11) * (1 << SUB_BITS) + sub).expect("bounded")
    }

    /// Midpoint of bucket `i`, in ns.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < LINEAR {
            return i as f64;
        }
        let e = (i - LINEAR) / (1 << SUB_BITS) + 11;
        let sub = (i - LINEAR) % (1 << SUB_BITS);
        let width = 1u64 << (e - u64::from(SUB_BITS));
        let lo = (1u64 << e) + sub * width;
        lo as f64 + width as f64 / 2.0
    }

    pub fn record(&mut self, ns: f64) {
        let v = ns.max(0.0) as u64;
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile, in ns.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.total > 0, "quantile of an empty histogram");
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank within total")
    }
}
