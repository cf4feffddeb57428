//! The paper's studies, pinned: every `repro_*` binary's output at the
//! argument lists EXPERIMENTS.md documents, byte-compared with a golden
//! file under `tests/golden/` named after the binary and its arguments.
//! The bodies run here are the binaries' own (`coreda_bench::repro`).
//!
//! Each study is seed-deterministic and worker-count invariant, so any
//! byte that moves is a change in what the study measures. EXPERIMENTS.md
//! quotes each golden verbatim; `experiments_md_quotes_the_goldens`
//! holds every quote to its file.

use coreda_bench::common::Args;
use coreda_bench::repro;

type Study = fn(Args) -> Result<String, String>;

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn read(path: &std::path::Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs `study` on `args` and compares its output with the golden file
/// `repro_<bin>_<args joined by _>.txt`.
fn check(bin: &str, study: Study, args: &[&str]) {
    let name = format!("repro_{bin}_{}.txt", args.join("_"));
    let out = study(Args::new(args.iter().copied()).unwrap()).unwrap();
    assert!(out == read(&golden_path(&name)), "{name} moved; the study now prints:\n{out}");
}

#[test]
fn table3_at_the_papers_40_trials() {
    check("table3", repro::table3, &["40", "2007"]);
}

#[test]
fn table3_at_400_trials() {
    check("table3", repro::table3, &["400", "2007"]);
}

#[test]
fn figure4_over_30_runs() {
    check("fig4", repro::fig4, &["120", "30", "2007"]);
}

#[test]
fn figure4_over_60_runs() {
    check("fig4", repro::fig4, &["120", "60", "2007"]);
}

#[test]
fn table4() {
    check("table4", repro::table4, &["30", "2007"]);
}

#[test]
fn figure1() {
    check("fig1", repro::fig1, &["2007"]);
}

#[test]
fn ablation() {
    check("ablation", repro::ablation, &["10", "2007"]);
}

#[test]
fn baselines() {
    check("baselines", repro::baselines, &["5", "20", "2007"]);
}

#[test]
fn radio_loss() {
    check("radio_loss", repro::radio_loss, &["120", "2007"]);
}

#[test]
fn adaptation() {
    check("adaptation", repro::adaptation, &["150", "10", "2007"]);
}

#[test]
fn energy() {
    check("energy", repro::energy, &["10", "3", "2007"]);
}

#[test]
fn contention() {
    check("contention", repro::contention, &["80", "2007"]);
}

#[test]
fn burden() {
    check("burden", repro::burden, &["360", "60", "20", "2007"]);
}

/// Every fenced block in EXPERIMENTS.md whose info string names a golden
/// (```` ```text tests/golden/<file> ````) must equal that file, so the
/// document's measured numbers are the goldens' numbers.
#[test]
fn experiments_md_quotes_the_goldens() {
    let doc = read(&std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md"));
    let mut quoted = 0;
    let mut lines = doc.lines();
    while let Some(line) = lines.next() {
        let Some(name) = line.strip_prefix("```text tests/golden/") else { continue };
        let mut block = String::new();
        for body in lines.by_ref().take_while(|l| *l != "```") {
            block.push_str(body);
            block.push('\n');
        }
        // A golden's blank first and last lines are dropped in the quote.
        let golden = read(&golden_path(name));
        assert_eq!(block.trim_matches('\n'), golden.trim_matches('\n'), "EXPERIMENTS.md's quote of {name}");
        quoted += 1;
    }
    assert_eq!(quoted, 13, "EXPERIMENTS.md quotes each study golden once");
}
