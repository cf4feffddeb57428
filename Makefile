# Convenience targets for the CoReDA reproduction.

.PHONY: all build test bench bench-fleet bench-scale ci fuzz doc clippy examples repro clean

all: build test

build:
	cargo build --workspace

test:
	cargo test --workspace

bench:
	cargo bench --workspace

# Fleet-engine throughput at 1/2/4/8 workers; writes BENCH_fleet.json.
bench-fleet:
	cargo bench -p coreda-bench --bench fleet_micro

# Metro-scale serving grid (100/1k/10k/100k homes), the recorder and
# care-overlay overheads, and snapshot/delta codec throughput; writes
# BENCH_scale.json (release builds only).
bench-scale:
	cargo bench -p coreda-bench --bench scale_micro

# The tier-1 gate: release build, every crate's test suite — unit
# tests, proptests and every tests/*.rs integration suite, which
# `--workspace` already covers because the root package is a workspace
# member — including the determinism regressions (parallel sweeps,
# metro serving, and flight-recorder telemetry byte-identical to
# serial; the timing wheel ≡ the reference binary-heap queue, drained
# window by window, which no simulator runs on; event-driven
# wakes byte-identical to the dense 100 ms polling oracle in metro's
# unit tests), the checkpoint/resume equivalence suite (full snapshots
# AND delta-chain + write-ahead-log resume, bit-identical at any
# cadence/jobs, with a stored log that must be a prefix of the
# replay), the wire-format fixture replay, the
# trace-summary golden, the observer goldens (tests/observer_goldens.rs:
# the telemetry JSONL, taps, write-ahead log and care log of the
# trace-summary fleet and the bad-day and radio-burst-ge corpus plans
# with every observer on, byte-compared with tests/golden/observers_*,
# and each observer alone held to the same bytes), the paper's study goldens (tests/paper_goldens.rs:
# every repro_* binary's output at the argument lists EXPERIMENTS.md
# documents, byte-compared with tests/golden/repro_*.txt, and every quote
# of them in EXPERIMENTS.md held to its file), doc (any rustdoc warning
# fails) and clippy lints, a
# fixed-seed
# simulation-testing fuzz budget (plus a second budget with
# checkpoint-kill-resume faults injected into every plan — each kill
# stops the production run, round-trips the snapshot through the full
# or delta codec, tears the write-ahead log mid-chunk and resumes; both
# budgets serve a three-home fleet through metro::run behind the fault
# overlay, so they exercise the serving code itself), the DST
# regression corpus replay (including kill-mid-compaction), a 100k-home
# arena smoke serve, and the bench-regression gate: fresh 10k-home
# throughput within 10 % of the committed BENCH_scale.json figure, the
# committed telemetry overhead under 12 %, and — deterministically, by
# byte count — the steady-state 1k-home delta checkpoint no larger than
# 15 % of a full snapshot. The online serving front end gates too: the
# serve≡batch differential (report, telemetry, and delivery log
# byte-identical across jobs 1↔8 and any window cut), the wire-codec
# proptests (every single-bit flip, truncation and foreign version of
# every frame kind rejected), the loadgen report goldens (including the
# explicit zero-deliveries body), a served-path fuzz budget (transport
# fault plans through the real wire), and a 1k-home load-generator
# smoke under the sim clock. The caregiver escalation overlay gates
# alongside: the escalation_consistency suite (escalation logs
# byte-identical across jobs 1↔8, window widths, and served≡batch), a
# care-path fuzz budget drawing caregiver-outage fault plans against
# the escalation_consistency oracle, and — via bench_check — the
# committed care-overlay overhead under 5 %. Epoch-tiled wake
# scheduling gates through the locality_equivalence differential (full
# windows — on the sim clock one per segment between stops, each
# home's chain served in one visit — ≡ the strict (due, seq) sweep down
# to WAL bytes, telemetry JSONL, care logs and the served wire outcome,
# at jobs 1 and 8, with window-agnostic checkpoints); the strict sweep
# is a served fleet paced by testkit's single-instant InstantClock,
# which no production path selects. Then the drain_until proptests
# riding the des suite, the 100k-home smoke serve, and bench_check's
# 100k-home throughput floor next to the 10k one. The serving hot
# path's heap use gates by count, which does not drift with the host:
# tests/alloc_budget.rs serves a fixed-seed fleet under its own
# counting allocator and holds a steady-state segment under 0.05
# allocator calls per pipeline tick, once with the log every session
# keeps and once with taps, flight recorder, log and the default care
# policy on, and tests/home_bytes.rs holds a
# home's footprint under its own live/peak-tracking allocator: the
# marginal peak heap per home between fixed-seed 1k- and 3k-home fleets
# at most 3 650 B, and ServeCtx::session at most 4.2 allocator calls
# per home; tests/snapshot_bytes.rs holds a fleet snapshot's heap the
# same way: the marginal live heap per home of a snapshot run captures
# at most 2 780 B and of one load_checkpoint decodes at most 2 760 B
# (a home still on its planner template shares the template's learned
# table), and save_checkpoint's peak heap at most twice the bytes it
# returns. The
# sensing hot path's noise bound gates through a release run of the
# sensornet proptests at 2048 cases, whose node differential (skip path
# ≡ eager sampling, down to checkpointed window peaks) needs that many
# to reach near-threshold draws. The durability decoder (the delta read
# walk, which snapshots run too) gates through a release run of the two
# hostile-bytes properties at 4096 cases each: bytes past a delta's or a
# snapshot's header overwritten or cut, the CRC-32C re-stamped, and load
# (+ apply, for a delta) must return a snapshot or a typed error, never
# panic or abort. Both run at fixed seeds here; `make fuzz` searches them
# under a fresh PROPTEST_SEED.
ci:
	cargo build --release
	cargo test -q --workspace
	PROPTEST_CASES=2048 cargo test -q --release -p coreda-sensornet --test proptests
	PROPTEST_CASES=4096 cargo test -q --release --test checkpoint_equivalence hostile_
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
	cargo clippy --workspace --all-targets -- -D warnings
	cargo run --release -p coreda-cli -- fuzz --seconds 30 --seed 2007
	cargo run --release -p coreda-cli -- fuzz --seconds 15 --seed 2008 --kill-resume true
	cargo run --release -p coreda-cli -- fuzz --seconds 15 --seed 2009 --served true
	cargo run --release -p coreda-cli -- fuzz --seconds 15 --seed 2010 --care true
	cargo run --release -p coreda-cli -- replay --dir tests/corpus
	cargo run --release -p coreda-cli -- scale --homes 100000 --hours 0.1 --seed 2007
	cargo run --release -p coreda-cli -- loadgen --homes 1000 --hours 0.1 --seed 2007
	cargo run --release -p coreda-bench --bin bench_check

# Longer fuzzing session under a fresh seed; violations shrink to
# .seed.json repros under fuzz-out/ for triage and corpus promotion.
# The second budget fuzzes the served ingestion path: transport fault
# plans (duplicated / reordered / delayed frames, mid-session hangups)
# through the real wire codec, checked against batch on full and
# single-instant serving windows.
# The third fuzzes the caregiver escalation overlay: caregiver-outage
# plans against the escalation_consistency oracle. Last, both
# hostile-bytes properties (delta and snapshot decoding) run under a
# fresh PROPTEST_SEED; a failing case prints the seed that replays it.
fuzz:
	cargo run --release -p coreda-cli -- fuzz --seconds 300 --seed $$(date +%s) --out fuzz-out
	cargo run --release -p coreda-cli -- fuzz --seconds 120 --seed $$(date +%s) --served true --out fuzz-out
	cargo run --release -p coreda-cli -- fuzz --seconds 120 --seed $$(date +%s) --care true --out fuzz-out
	PROPTEST_SEED=$$(date +%s) PROPTEST_CASES=65536 cargo test -q --release --test checkpoint_equivalence hostile_

doc:
	cargo doc --workspace --no-deps

clippy:
	cargo clippy --workspace --all-targets

examples:
	for ex in quickstart tea_making tooth_brushing custom_adl multi_routine smart_home year_in_the_life; do \
		cargo run --release --example $$ex; \
	done

# Regenerate every table and figure of the paper plus the extended studies.
repro:
	cargo run --release -p coreda-bench --bin repro_table3
	cargo run --release -p coreda-bench --bin repro_fig4
	cargo run --release -p coreda-bench --bin repro_table4
	cargo run --release -p coreda-bench --bin repro_fig1
	cargo run --release -p coreda-bench --bin repro_ablation
	cargo run --release -p coreda-bench --bin repro_baselines
	cargo run --release -p coreda-bench --bin repro_radio_loss
	cargo run --release -p coreda-bench --bin repro_adaptation
	cargo run --release -p coreda-bench --bin repro_energy
	cargo run --release -p coreda-bench --bin repro_burden
	cargo run --release -p coreda-bench --bin repro_contention

clean:
	cargo clean
