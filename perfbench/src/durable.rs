//! `durable_resume`: `run_scale_durable` over a 10k-home fleet with the
//! WAL on and delta checkpoints at a fixed cadence; every artifact is
//! encoded to bytes, then a kill-resume drill restores from those bytes
//! and resumes over the tail past the newest checkpoint. The only
//! workload that writes and then reads the durability codecs.

use bytes::Bytes;
use coreda_core::checkpoint::{
    apply_delta, config_digest, delta_checkpoint, load_checkpoint, load_delta, save_checkpoint,
    save_delta,
};
use coreda_core::metro::{
    resume_scale_durable, run_scale_durable, DurableRun, MetroConfig, ScaleReport,
};
use coreda_core::wal::{decode_wal_tolerant, encode_wal};
use coreda_des::time::{SimDuration, SimTime};

use crate::batch::{drive_chain, setup_once, trace_cost, wake_ledger};
use crate::ledger::{Kind, Tracer};
use crate::measure::{median, peak_rss_mb, spread_samples, timed};
use crate::report::Report;

pub const HOMES: usize = 10_000;
/// Simulated seconds per second of `--seconds`.
pub const SIM_PER_WALL: u64 = 30;
/// Checkpoint stops per run: the horizon splits into `STOPS + 1` equal
/// intervals; the first stop is the base, the rest are deltas.
pub const STOPS: u64 = 5;
/// Kill-resume drills per run; the drill's time is their median.
const DRILLS: usize = 5;

pub fn config(seed: u64, seconds: u64) -> MetroConfig {
    MetroConfig {
        homes: HOMES,
        horizon: SimDuration::from_secs(SIM_PER_WALL * seconds),
        seed,
        jobs: 1,
        ..MetroConfig::default()
    }
}

fn stops(cfg: &MetroConfig) -> Vec<SimTime> {
    let every = cfg.horizon.as_millis() / (STOPS + 1) / 1000 * 1000;
    (1..=STOPS)
        .map(|k| SimTime::from_millis(k * every))
        .collect()
}

/// A durable run's artifacts as persisted bytes.
#[derive(Debug, PartialEq)]
struct Persisted {
    base: Bytes,
    deltas: Vec<Bytes>,
    wal: Bytes,
}

fn persist(run: &DurableRun, digest: u64, tr: &mut Tracer) -> Persisted {
    let base = tr.span(Kind::CkptEncode, || save_checkpoint(&run.base, 1));
    let deltas: Vec<Bytes> = run
        .deltas
        .iter()
        .map(|d| tr.span(Kind::CkptEncode, || save_delta(d, 1)))
        .collect();
    let wal = tr.span(Kind::WalEncode, || encode_wal(digest, &run.wal));
    tr.bytes[Kind::CkptEncode as usize] +=
        (base.len() + deltas.iter().map(Bytes::len).sum::<usize>()) as u64;
    tr.bytes[Kind::WalEncode as usize] += wal.len() as u64;
    Persisted { base, deltas, wal }
}

/// The kill-resume drill: persisted bytes → decoded chain → resumed,
/// WAL-cross-checked report over the tail.
fn recover(
    cfg: &MetroConfig,
    p: &Persisted,
    tr: &mut Tracer,
) -> Result<(DurableRun, ScaleReport), String> {
    let base = tr
        .span(Kind::CkptDecode, || load_checkpoint(&p.base, 1))
        .map_err(|e| format!("base: {e}"))?;
    let deltas = p
        .deltas
        .iter()
        .map(|b| tr.span(Kind::CkptDecode, || load_delta(b, 1)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("delta: {e}"))?;
    let tail = tr
        .span(Kind::WalDecode, || decode_wal_tolerant(&p.wal))
        .map_err(|e| format!("wal: {e}"))?;
    tr.bytes[Kind::CkptDecode as usize] +=
        (p.base.len() + p.deltas.iter().map(Bytes::len).sum::<usize>()) as u64;
    tr.bytes[Kind::WalDecode as usize] += p.wal.len() as u64;
    if tail.digest != config_digest(cfg) {
        return Err("wal: config digest mismatch".into());
    }
    let run = DurableRun {
        base,
        deltas,
        wal: tail.records,
    };
    let report = tr
        .span(Kind::Resume, || resume_scale_durable(cfg, &run))
        .map_err(|e| format!("resume: {e}"))?;
    Ok((run, report))
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let cfg = config(seed, seconds);
    let stops = stops(&cfg);
    let digest = config_digest(&cfg);
    let mut r = Report::new(format!(
        "perfbench durable_resume: run_scale_durable, {} homes x {} s simulated, jobs=1, sim clock \
         (unpaced), WAL on, checkpoints at {:?} ms, resume from the last over the tail, seed {seed}",
        cfg.homes,
        cfg.horizon.as_millis() / 1000,
        stops.iter().map(|s| s.as_millis()).collect::<Vec<_>>()
    ));
    // Set-ups (~30 ms each) run first, in the fresh process.
    let setup = spread_samples(|| setup_once(&cfg));
    let mut untraced = Tracer::off();
    let ((report, run, persisted), write) = timed(|| {
        let (report, run) = run_scale_durable(&cfg, &stops);
        let persisted = persist(&run, digest, &mut untraced);
        (report, run, persisted)
    });
    let mut drills = Vec::with_capacity(DRILLS);
    let mut verified = 0u64;
    let mut recovered: Option<Result<DurableRun, String>> = None;
    for _ in 0..DRILLS {
        // Drop the previous drill's decoded chain before the next one.
        drop(recovered.take());
        let (drill, read) = timed(|| recover(&cfg, &persisted, &mut untraced));
        drills.push(read.wall_s);
        recovered = Some(drill.map(|(chain, resumed)| {
            verified += u64::from(resumed == report);
            chain
        }));
    }
    let recovered = recovered.expect("DRILLS > 0");
    let peak = peak_rss_mb();
    let recover_s = median(&drills);
    r.notes
        .push(format!("kill-resume drills took {drills:.3?} s"));

    r.metric(
        "ticks_per_s",
        report.pipeline_ticks() as f64 / write.wall_s,
        "1/s",
        1,
    );
    r.metric(
        "wakes_per_cpu_s",
        report.des_events as f64 / write.cpu_s,
        "1/s",
        1,
    );
    r.metric("latency_p50_ms", recover_s * 1e3, "ms", DRILLS as u64);
    r.metric("recover_s", recover_s, "s", DRILLS as u64);
    r.metric("peak_rss_mb", peak, "MB", 1);

    let newest = run.deltas.last().expect("STOPS > 1 gives deltas");
    let from = stops[stops.len() - 2];
    let to = stops[stops.len() - 1];
    let slice: Vec<_> = run
        .wal
        .iter()
        .filter(|rec| rec.at > from && rec.at <= to)
        .copied()
        .collect();
    let interval_bytes =
        persisted.deltas.last().expect("deltas").len() + encode_wal(digest, &slice).len();
    r.metric("interval_bytes", interval_bytes as f64, "B", 1);

    r.check(
        "homes did work",
        report.pipeline_ticks() > 0,
        "no episode starts in the first simulated minute",
    );
    let artifacts = 2 + run.deltas.len() as u64;
    r.attempted = report.des_events + (artifacts + 1) * DRILLS as u64;
    match &recovered {
        Ok(chain) => {
            r.check(
                "decoded base equals the written one",
                chain.base == run.base,
                "",
            );
            r.check(
                "decoded deltas equal the written ones",
                chain.deltas == run.deltas,
                format!("{} deltas", chain.deltas.len()),
            );
            r.check(
                "decoded WAL equals the written one",
                chain.wal == run.wal,
                format!("{} vs {} records", chain.wal.len(), run.wal.len()),
            );
        }
        Err(e) => r.check("kill-resume drill decodes and resumes", false, e.clone()),
    }
    r.check(
        "every drill's resumed report equals the uninterrupted one (WAL tail cross-checked)",
        verified == DRILLS as u64,
        format!("{verified}/{DRILLS} drills"),
    );
    r.failed = DRILLS as u64 - verified;
    r.metric(
        "failed_pct",
        r.failed as f64 / r.attempted as f64 * 100.0,
        "%",
        r.attempted,
    );

    let dirty_pct = newest.dirty_homes() as f64 / cfg.homes as f64 * 100.0;
    r.exact("pipeline_ticks", report.pipeline_ticks());
    r.exact("des_events", report.des_events);
    r.exact("wal_records", run.wal.len());
    r.exact("base_bytes", persisted.base.len());
    r.exact(
        "delta_bytes",
        persisted
            .deltas
            .iter()
            .map(|d| d.len().to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    r.exact("wal_bytes", persisted.wal.len());
    r.exact("interval_bytes", interval_bytes);
    r.exact(
        "checkpoint.dirty_homes",
        format!("{}/{}", newest.dirty_homes(), cfg.homes),
    );
    r.digest_bytes(report.render().as_bytes());
    r.digest_bytes(&persisted.wal);
    r.digest_bytes(&persisted.base);
    for d in &persisted.deltas {
        r.digest_bytes(d);
    }
    drop(recovered);
    r.setup(&setup);

    if traced {
        let mut tr = Tracer::new();
        tr.enter(Kind::Drive);
        let chain = drive_chain(&cfg, &mut tr);
        r.check(
            "traced chain drive reproduces the durable run's report",
            chain.out.report == report,
            "",
        );
        r.check(
            "traced chain drive reproduces the durable run's WAL",
            chain.log == run.wal,
            "",
        );
        let (report2, run2) = tr.span(Kind::DurableRun, || run_scale_durable(&cfg, &stops));
        let persisted2 = persist(&run2, digest, &mut tr);
        r.check(
            "traced: report and persisted bytes equal the untraced run's",
            report2 == report && persisted2 == persisted,
            "",
        );
        drop(run2);
        let resumed = recover(&cfg, &persisted2, &mut tr);
        r.check(
            "traced: resumed report equals the uninterrupted one",
            resumed.as_ref().is_ok_and(|(_, rep)| *rep == report),
            "",
        );
        drop(resumed);
        // Re-derive each delta from the two snapshots it sits between:
        // apply along the chain (what `compact` does) and diff again.
        let mut prev = run.base.clone();
        let mut rediffed = true;
        for d in &run.deltas {
            let cur = tr
                .span(Kind::Compact, || apply_delta(&prev, d))
                .expect("the chain applies");
            rediffed &= tr.span(Kind::Diff, || delta_checkpoint(&prev, &cur)) == *d;
            prev = cur;
        }
        tr.exit();
        r.check(
            "traced: re-diffing the chain reproduces every delta",
            rediffed,
            "",
        );

        wake_ledger(&mut r, &tr, chain.wakes, chain.out.report.des_events);
        let secs = |k: Kind| tr.agg(k).self_ns as f64 / 1e9;
        let mb_s = |k: Kind| tr.bytes[k as usize] as f64 / 1e6 / secs(k);
        r.layer(
            "metro.resume_s",
            secs(Kind::Resume),
            "s",
            tr.agg(Kind::Resume).calls,
        );
        r.layer(
            "checkpoint.encode_mb_s",
            mb_s(Kind::CkptEncode),
            "MB/s",
            tr.agg(Kind::CkptEncode).calls,
        );
        r.layer(
            "checkpoint.decode_mb_s",
            mb_s(Kind::CkptDecode),
            "MB/s",
            tr.agg(Kind::CkptDecode).calls,
        );
        r.layer("wal.encode_mb_s", mb_s(Kind::WalEncode), "MB/s", 1);
        r.layer("wal.decode_mb_s", mb_s(Kind::WalDecode), "MB/s", 1);
        r.layer(
            "checkpoint.diff_s",
            secs(Kind::Diff),
            "s",
            tr.agg(Kind::Diff).calls,
        );
        r.layer(
            "checkpoint.compact_s",
            secs(Kind::Compact),
            "s",
            tr.agg(Kind::Compact).calls,
        );
        r.layer("checkpoint.dirty_home_pct", dirty_pct, "%", 1);
        let same_calls = [
            Kind::DurableRun,
            Kind::CkptEncode,
            Kind::WalEncode,
            Kind::CkptDecode,
            Kind::WalDecode,
            Kind::Resume,
        ];
        let traced_s: f64 = same_calls.iter().map(|&k| secs(k)).sum();
        trace_cost(&mut r, &tr, write.wall_s + recover_s, traced_s);
        r.span_ledger(&tr);
        crate::write_spans(&tr, "durable_resume", seed);
    }
    r
}
