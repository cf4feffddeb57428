//! Metro-scale serving throughput: homes/sec and events/sec across the
//! fleet-size grid.
//!
//! Besides the criterion group printed to stdout, this bench writes
//! `BENCH_scale.json` at the repository root: the serving grid (100, 1k,
//! 10k and 100k homes at 1/2/4/8 workers), a `telemetry_overhead` entry
//! pricing the flight recorder at 1k homes, a `care_overhead`
//! entry pricing the caregiver escalation overlay and fleet analytics
//! reduction at 10k homes (paired-ratio protocol, bar <= 5 %), a
//! `checkpoint` entry
//! recording snapshot encode/restore throughput for a mid-run 1k-home
//! fleet, a `durability` entry pricing the steady-state delta + WAL
//! interval against a full snapshot at 10k homes, a `phase_breakdown`
//! entry separating fleet construction from serving at 10k/100k homes,
//! and a `memory` entry with the marginal bytes-per-home slope
//! (10k -> 100k) plus a 1M-home stretch probe. `events_per_sec` counts
//! 100 ms pipeline ticks, the logical serving work, so rates of runs
//! that serve the same fleet compare as wall-clock speedups. The host
//! core count ships with the numbers, and a debug build refuses to write
//! the file at all — unoptimised timings would be noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use coreda_core::checkpoint::{
    compact, config_digest, load_checkpoint, load_delta, save_checkpoint, save_delta,
};
use coreda_core::fleet::default_jobs;
use coreda_core::escalation::CarePolicy;
use coreda_core::metro::{run, run_scale, run_scale_durable, MetroConfig, RunOutput, RunSpec};
use coreda_core::wal::encode_wal;
use coreda_des::time::{SimDuration, SimTime};
use criterion::{criterion_group, criterion_main, Criterion};

/// Live/peak-tracking shim over the system allocator. The two relaxed
/// atomics cost nanoseconds against millisecond-scale serve loops (the
/// serving path is allocation-free by design), and they buy the
/// `bytes_per_home` figure: peak live heap deltas between fleet sizes.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak live heap reached while running `f`, measured from the current
/// live level (so back-to-back probes don't inherit each other's peak).
fn peak_during(f: impl FnOnce()) -> usize {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    f();
    PEAK_BYTES.load(Ordering::Relaxed)
}

const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// (homes, simulated seconds): bigger fleets get shorter walls so every
/// grid cell does comparable total work.
// The 100k wall must clear the 60–240 s first-episode gap draw, or the
// cell measures fleet construction and zero serving ticks.
const GRID: [(usize, u64); 4] = [(100, 3600), (1000, 1800), (10_000, 360), (100_000, 120)];
const SEED: u64 = 2007;

fn cfg(homes: usize, secs: u64, jobs: usize) -> MetroConfig {
    MetroConfig {
        homes,
        horizon: SimDuration::from_secs(secs),
        seed: SEED,
        jobs,
        ..MetroConfig::default()
    }
}

/// A fresh [`run`] observing what `spec` asks for.
fn observe(config: &MetroConfig, spec: RunSpec<'_>) -> RunOutput {
    run(config, &spec).expect("a fresh run cannot mismatch")
}

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("metro_scale");
    group.sample_size(2);
    group.bench_function("serve/homes=100", |b| {
        b.iter(|| run_scale(&cfg(100, 600, 1)));
    });
    group.finish();
}

/// Wall clock of the best of two timed runs after one warm-up, plus the
/// pipeline-tick count (identical across runs of the same config).
fn measure(config: &MetroConfig) -> (f64, u64) {
    let ticks = run_scale(config).pipeline_ticks();
    let secs = (0..2)
        .map(|_| {
            let t = Instant::now();
            let _ = run_scale(config);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (secs, ticks)
}

fn grid_json() -> String {
    let rows: Vec<String> = GRID
        .iter()
        .flat_map(|&(homes, sim_secs)| {
            JOB_COUNTS.iter().map(move |&jobs| {
                let (secs, ticks) = measure(&cfg(homes, sim_secs, jobs));
                format!(
                    "    {{\"homes\": {homes}, \"sim_secs\": {sim_secs}, \"jobs\": {jobs}, \
                     \"secs\": {secs:.4}, \"homes_per_sec\": {:.1}, \
                     \"events_per_sec\": {:.0}}}",
                    homes as f64 / secs,
                    ticks as f64 / secs
                )
            })
        })
        .collect();
    format!("  \"grid\": [\n{}\n  ]", rows.join(",\n"))
}

/// Flight-recorder cost: the same 1k-home serve with the recorder off
/// vs on. The acceptance bar is <= 5 % overhead; the recorded report is
/// asserted bit-identical to the plain one first, so the timings compare
/// the same work plus recording.
///
/// Protocol: seven off/on *pairs*, each pair back-to-back, and the
/// reported figure is the median of the per-pair ratios. This host's
/// wall clock drifts by ~10 % over a bench run; a pairwise ratio sees
/// both arms under the same drift so it cancels, and the median throws
/// away pairs that straddle a frequency step entirely. The previous
/// best-of-five-each-arm protocol let drift land asymmetrically and
/// once recorded a 15.86 % "overhead" that CPU-time measurement
/// (utime+stime from /proc/self/stat) showed was ~0-3 % — i.e. within
/// the bar. Keep wall clock here (it is what users feel) but pair it.
fn telemetry_overhead_json() -> String {
    let config = cfg(1000, 1800, 1);
    let trace = RunSpec { trace: true, ..RunSpec::default() };
    let traced = observe(&config, trace);
    let plain = run_scale(&config);
    assert_eq!(
        plain.per_home, traced.report.per_home,
        "recording changed the serve; timings would compare different work"
    );
    let ticks = plain.pipeline_ticks();
    let mut pairs: Vec<(f64, f64)> = (0..7)
        .map(|_| {
            let t = Instant::now();
            let _ = run_scale(&config);
            let off = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let _ = observe(&config, trace);
            (off, t.elapsed().as_secs_f64())
        })
        .collect();
    pairs.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
    let (off_secs, on_secs) = pairs[pairs.len() / 2];
    format!(
        "  \"telemetry_overhead\": {{\"homes\": 1000, \"sim_secs\": 1800, \"jobs\": 1, \
         \"pipeline_ticks\": {ticks}, \"pairs\": {}, \
         \"recorder_off_secs\": {off_secs:.4}, \"recorder_on_secs\": {on_secs:.4}, \
         \"overhead_pct\": {:.2}}}",
        pairs.len(),
        (on_secs / off_secs - 1.0) * 100.0
    )
}

/// Caregiver-overlay cost at fleet scale: the 10k-home serving cell
/// with the escalation monitor and fleet analytics reduction off vs on.
/// The overlay is a pure fold over the write-ahead event stream plus a
/// per-home quantile rollup merged in home order, so its cost must stay
/// noise-level; the acceptance bar is <= 5 % overhead. The plain and
/// overlaid reports are asserted bit-identical first — observation must
/// never perturb the fleet — and the timing reuses the paired-ratio
/// protocol from `telemetry_overhead_json` (median of per-pair ratios,
/// both arms back-to-back under the same clock drift).
fn care_overhead_json() -> String {
    let config = cfg(10_000, 360, 1);
    let policy = CarePolicy::default();
    let with_care = RunSpec { care: Some(&policy), ..RunSpec::default() };
    let plain = run_scale(&config);
    let cared = observe(&config, with_care);
    let care = cared.care.expect("care was requested");
    assert_eq!(
        plain, cared.report,
        "the care overlay changed the serve; timings would compare different work"
    );
    let ticks = plain.pipeline_ticks();
    let mut pairs: Vec<(f64, f64)> = (0..7)
        .map(|_| {
            let t = Instant::now();
            let _ = run_scale(&config);
            let off = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let _ = observe(&config, with_care);
            (off, t.elapsed().as_secs_f64())
        })
        .collect();
    pairs.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
    let (off_secs, on_secs) = pairs[pairs.len() / 2];
    format!(
        "  \"care_overhead\": {{\"homes\": 10000, \"sim_secs\": 360, \"jobs\": 1, \
         \"pipeline_ticks\": {ticks}, \"pairs\": {}, \"escalation_events\": {}, \
         \"care_off_secs\": {off_secs:.4}, \"care_on_secs\": {on_secs:.4}, \
         \"overhead_pct\": {:.2}}}",
        pairs.len(),
        care.events.len(),
        (on_secs / off_secs - 1.0) * 100.0
    )
}

/// Incremental durability cost at fleet scale: a 10k-home serve with a
/// base snapshot at 120 s and delta checkpoints every 120 s after, WAL
/// on for the whole horizon. The figures that matter are the steady-
/// state interval bytes (newest delta plus its WAL slice) against a
/// full snapshot — the ISSUE bar is <= 10 % — and the delta encode /
/// decode rates. The delta round trip is asserted exact before timing,
/// and the diff itself (`delta_checkpoint` between the two newest full
/// states, rebuilt via `compact`) is timed separately from the codec so
/// the interval cost can be read as diff + encode + log append.
fn durability_json() -> String {
    let config = cfg(10_000, 360, 8);
    let stops: Vec<SimTime> = [120u64, 240, 360].iter().map(|&s| SimTime::from_secs(s)).collect();
    let (_, run) = run_scale_durable(&config, &stops);
    let full_bytes = save_checkpoint(&run.base, 8).len();
    let last = run.deltas.last().expect("two deltas past the base");
    let blob = save_delta(last, 8);
    assert_eq!(
        &load_delta(&blob, 8).expect("fresh delta decodes"),
        last,
        "delta codec round trip drifted; throughput would measure a broken codec"
    );
    let prev = compact(&run.base, &run.deltas[..run.deltas.len() - 1]).expect("chain folds");
    let cur = compact(&prev, &run.deltas[run.deltas.len() - 1..]).expect("chain folds");
    let tail: Vec<_> = run.wal.iter().filter(|rec| rec.at > stops[1]).copied().collect();
    let wal_bytes = encode_wal(config_digest(&config), &tail).len();
    let best = |f: &dyn Fn()| {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let diff_secs = best(&|| {
        let _ = coreda_core::checkpoint::delta_checkpoint(&prev, &cur);
    });
    let encode_secs = best(&|| {
        let _ = save_delta(last, 8);
    });
    let decode_secs = best(&|| {
        let _ = load_delta(&blob, 8).expect("decode");
    });
    let dirty: usize = last.homes.iter().flatten().count();
    let homes = run.base.homes.len();
    format!(
        "  \"durability\": {{\"homes\": {homes}, \"sim_secs\": 360, \"interval_secs\": 120, \
         \"jobs\": 8, \"full_snapshot_bytes\": {full_bytes}, \"delta_bytes\": {}, \
         \"wal_interval_bytes\": {wal_bytes}, \"interval_pct_of_full\": {:.2}, \
         \"dirty_homes\": {dirty}, \"wal_records\": {}, \
         \"diff_secs\": {diff_secs:.4}, \"encode_secs\": {encode_secs:.4}, \
         \"decode_secs\": {decode_secs:.4}, \"encode_mb_per_sec\": {:.1}, \
         \"diff_homes_per_sec\": {:.0}}}",
        blob.len(),
        100.0 * (blob.len() + wal_bytes) as f64 / full_bytes as f64,
        tail.len(),
        blob.len() as f64 / 1e6 / encode_secs,
        homes as f64 / diff_secs
    )
}

/// Where the 100k-home wall clock goes. A 1-second-horizon run prices
/// fleet construction (spec interning, arena allocation, wheel slots —
/// the first episode draw lands at 60-240 s, so no home has woken
/// yet), and the remainder of the full grid cell is pure serving.
/// Construction is a few percent and amortises, so whatever gap exists
/// between fleet sizes lives in the serve phase: the struct-of-arrays
/// fleet state runs ~5.8 kB/home marginal (see `memory`), so a 100k
/// fleet is ~580 MB against ~58 MB at 10k — a 10x working-set jump
/// that outruns every cache level and the TLB. Serving wakes in strict
/// `(due, seq)` order once cost ~2.5x of throughput at that cliff;
/// epoch tiling serves each window's wakes in arena order so
/// consecutive wakes share lines, closing most of it.
fn phase_breakdown_json() -> String {
    let rows: Vec<String> = [(10_000usize, 360u64), (100_000, 120)]
        .iter()
        .map(|&(homes, sim_secs)| {
            let best = |secs: u64| {
                (0..2)
                    .map(|_| {
                        let t = Instant::now();
                        let _ = run_scale(&cfg(homes, secs, 8));
                        t.elapsed().as_secs_f64()
                    })
                    .fold(f64::INFINITY, f64::min)
            };
            let construct_secs = best(1);
            let total_secs = best(sim_secs);
            let serve_secs = (total_secs - construct_secs).max(0.0);
            format!(
                "    {{\"homes\": {homes}, \"sim_secs\": {sim_secs}, \"jobs\": 8, \
                 \"construct_secs\": {construct_secs:.4}, \"serve_secs\": {serve_secs:.4}, \
                 \"construct_pct\": {:.1}}}",
                100.0 * construct_secs / total_secs
            )
        })
        .collect();
    format!("  \"phase_breakdown\": [\n{}\n  ]", rows.join(",\n"))
}

/// Snapshot codec throughput at fleet scale: encode and restore a
/// mid-run 1k-home checkpoint, serial vs the sharded (`jobs = 8`) path.
/// The round trip is asserted exact before anything is timed, so the
/// rates describe a codec that actually preserves the fleet.
fn checkpoint_json() -> String {
    let config = cfg(1000, 1800, 1);
    let stops = [SimTime::from_secs(900)];
    let snaps = observe(&config, RunSpec { stops: &stops, ..RunSpec::default() }).checkpoints;
    let snap = &snaps[0];
    let blob = save_checkpoint(snap, 1);
    assert_eq!(
        &load_checkpoint(&blob, 1).expect("fresh snapshot decodes"),
        snap,
        "codec round trip drifted; throughput would measure a broken codec"
    );
    let best = |f: &dyn Fn()| {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let homes = snap.homes.len();
    let encode_secs = best(&|| {
        let _ = save_checkpoint(snap, 8);
    });
    let decode_secs = best(&|| {
        let _ = load_checkpoint(&blob, 8).expect("decode");
    });
    let mb = blob.len() as f64 / 1e6;
    format!(
        "  \"checkpoint\": {{\"homes\": {homes}, \"at_secs\": 900, \
         \"blob_bytes\": {}, \"jobs\": 8, \
         \"encode_secs\": {encode_secs:.4}, \"decode_secs\": {decode_secs:.4}, \
         \"encode_mb_per_sec\": {:.1}, \"decode_mb_per_sec\": {:.1}, \
         \"encode_homes_per_sec\": {:.0}, \"decode_homes_per_sec\": {:.0}}}",
        blob.len(),
        mb / encode_secs,
        mb / decode_secs,
        homes as f64 / encode_secs,
        homes as f64 / decode_secs
    )
}

/// Heap footprint by fleet size. `bytes_per_home` is the *marginal*
/// cost from 10k to 100k homes — the slope cancels everything a fleet
/// pays once (trained planner templates, interned specs, the DES wheel's
/// fixed slots) and isolates what each additional home actually owns in
/// the struct-of-arrays arenas. The 1M-home probe is the stretch point:
/// a single short-horizon serve proving the layout holds at seven
/// figures, with its own whole-fleet average for comparison.
fn memory_json() -> String {
    let peak_at = |homes: usize, secs: u64| {
        peak_during(|| {
            let _ = run_scale(&cfg(homes, secs, 1));
        })
    };
    let small = peak_at(10_000, 10);
    let large = peak_at(100_000, 10);
    let million = peak_at(1_000_000, 1);
    let marginal = (large.saturating_sub(small)) as f64 / 90_000.0;
    format!(
        "  \"memory\": {{\"peak_bytes_10k\": {small}, \"peak_bytes_100k\": {large}, \
         \"peak_bytes_1m\": {million}, \"bytes_per_home\": {marginal:.0}, \
         \"avg_bytes_per_home_1m\": {:.0}}}",
        million as f64 / 1e6
    )
}

fn emit_report(_c: &mut Criterion) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    if cfg!(debug_assertions) {
        eprintln!(
            "\nscale_micro: debug build — refusing to write {path}; \
             run under --release for committable numbers"
        );
        return;
    }
    let json = format!(
        "{{\n\"bench\": \"scale_micro\",\n\"host_cores\": {},\n{},\n{},\n{},\n{},\n{},\n{},\n{}\n}}\n",
        default_jobs(),
        grid_json(),
        telemetry_overhead_json(),
        care_overhead_json(),
        checkpoint_json(),
        durability_json(),
        phase_breakdown_json(),
        memory_json()
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_scale, emit_report);
criterion_main!(benches);
