//! Builds `results/report.html` — the self-contained suite report.
//!
//! Re-runs the eleven golden cells with the flight recorder on (fresh,
//! deterministic, seconds), writes each series as
//! `results/metrics_<stem>.jsonl`, then folds in whatever earlier runs
//! left behind: `results/BENCH_runner.json` (span breakdown),
//! `results/BENCH_baseline.json` (regression deltas),
//! `results/ATTRIB_all.json` and the crash journal (provenance notes).
//! Everything except the recorded cells is best-effort: missing inputs
//! degrade to a note in the report, never an error.
//!
//! Exit code is 1 only when the span self-check fails — the runner's
//! per-worker busy+idle decomposition must re-compose the suite
//! wall-clock within 5 % (DESIGN.md §16).

use carrefour_bench::{journal, logx, report};
use std::path::Path;

fn main() {
    let out_path = std::env::args()
        .find_map(|a| a.strip_prefix("--out=").map(str::to_string))
        .unwrap_or_else(|| "results/report.html".to_string());

    logx::info("[report] recording golden cells (metrics-v3)...");
    let series = report::record_golden_cells(Path::new("results"));

    let runner = read_runner_json("results/BENCH_runner.json");
    let baseline = read_runner_json("results/BENCH_baseline.json");
    let attrib_present = Path::new("results/ATTRIB_all.json").exists();
    let journal = std::fs::read_to_string("results/journal_all.jsonl")
        .ok()
        .map(|t| journal::status_counts(&t));

    let html = report::html_report(
        &series,
        runner.as_ref(),
        baseline.as_ref(),
        attrib_present,
        journal,
    );
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(&out_path, html.as_bytes()))
    {
        logx::warn(&format!("could not write {out_path}: {e}"));
        std::process::exit(1);
    }
    logx::info(&format!(
        "[report] wrote {out_path} ({} KiB, {} cells, runner {}, baseline {})",
        html.len() / 1024,
        series.len(),
        runner.as_ref().map_or("absent", |r| &r.schema),
        baseline.as_ref().map_or("absent", |r| &r.schema),
    ));

    if let Some(r) = &runner {
        let bd = report::SpanBreakdown::from_runner(r);
        if bd.within_bound() {
            logx::info(&format!(
                "[report] span self-check ok: worst lane error {:.2}% of {:.3}s wall",
                bd.worst_error_fraction() * 100.0,
                bd.total_wall_secs
            ));
        } else {
            logx::warn(&format!(
                "[report] span self-check FAILED: worst lane error {:.2}% (> 5%)",
                bd.worst_error_fraction() * 100.0
            ));
            std::process::exit(1);
        }
    }
}

/// Reads one `BENCH_*.json` file: an absent file is silently `None`, a
/// malformed one warns with its typed parse error and is `None` too.
fn read_runner_json(path: &str) -> Option<report::RunnerReport> {
    let text = std::fs::read_to_string(path).ok()?;
    report::parse_runner_json(&text)
        .map_err(|e| logx::warn(&format!("[report] ignoring {path}: {e}")))
        .ok()
}
