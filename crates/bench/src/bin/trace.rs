//! Per-epoch trace timeline renderer and golden-digest regenerator.
//!
//! Default mode runs the golden cell set traced and renders, for each
//! cell, a per-epoch timeline (one row per epoch: imbalance, LAR,
//! walk-miss fraction, faults/splits/migrations/collapses, THP switches,
//! policy decisions) — to stdout and to `results/trace_<cell>.txt`, with
//! the full event stream in `results/trace_<cell>.jsonl`.
//!
//! `--format csv` renders the same per-epoch timeline as CSV (one header
//! plus one row per epoch) to stdout and `results/trace_<cell>.csv` —
//! for spreadsheets and plotting scripts that should not screen-scrape
//! the text table.
//!
//! `--bless` instead recomputes every golden digest and rewrites
//! `tests/golden/*.json` (see DESIGN.md §9 for when blessing is the right
//! response to a golden-trace failure).

use carrefour_bench::golden::{self, GoldenCell, GOLDEN_CELLS};
use carrefour_bench::logx;
use carrefour_bench::runner::Progress;
use engine::trace::{events_to_jsonl, EpochSnap, PolicyDecision, TraceEvent};
use engine::{RunOptions, SimConfig, Simulation, VecSink};
use numa_topology::MachineSpec;
use std::fmt::Write as _;

fn main() {
    carrefour_bench::logx::exit_quietly_on_broken_pipe();
    let bless = std::env::args().any(|a| a == "--bless");
    if bless {
        let dir = golden::golden_dir();
        match golden::bless(&dir) {
            Ok(files) => {
                println!("blessed {} golden digests:", files.len());
                for f in files {
                    println!("  {}", f.display());
                }
            }
            Err(e) => {
                eprintln!("bless failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let format = format_from_args();
    let machine = MachineSpec::machine_a();
    let _ = std::fs::create_dir_all("results");
    let progress = Progress::new("trace", GOLDEN_CELLS.len());
    for &cell in &GOLDEN_CELLS {
        let (events, runtime_ms) = run_traced_cell(&machine, cell);
        let (rendered, ext) = match format {
            Format::Text => (render_timeline(&cell, runtime_ms, &events), "txt"),
            Format::Csv => (render_csv(&events), "csv"),
        };
        print!("{rendered}");
        let path = format!("results/trace_{}.{ext}", cell.stem());
        match std::fs::write(&path, &rendered) {
            Ok(()) => println!("  -> {path} and results/trace_{}.jsonl\n", cell.stem()),
            Err(e) => logx::warn(&format!("could not write {path}: {e}")),
        }
        progress.cell_done(&cell.stem(), 0, None);
    }
    progress.finish();
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Csv,
}

/// Parses `--format text|csv` / `--format=csv` out of the arguments.
fn format_from_args() -> Format {
    let args: Vec<String> = std::env::args().collect();
    let mut value: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--format" {
            value = it.next().cloned();
        } else if let Some(v) = a.strip_prefix("--format=") {
            value = Some(v.to_string());
        }
    }
    match value.as_deref() {
        None | Some("text") => Format::Text,
        Some("csv") => Format::Csv,
        Some(other) => {
            eprintln!("unknown --format {other:?} (want text|csv)");
            std::process::exit(2);
        }
    }
}

/// Runs one cell traced into memory and writes its event stream to
/// `results/trace_<cell>.jsonl`. A failed write warns and the timeline
/// still renders from memory (a read-only checkout).
fn run_traced_cell(machine: &MachineSpec, cell: GoldenCell) -> (Vec<TraceEvent>, f64) {
    let config = SimConfig::for_machine(machine, cell.kind.initial_thp());
    let spec = cell.bench.spec(machine);
    let mut policy = cell.kind.make();
    let mut collect = VecSink::new();
    let opts = RunOptions {
        hook: Some(&mut collect),
        ..RunOptions::default()
    };
    let result = Simulation::run_with(machine, &spec, &config, policy.as_mut(), opts).result();
    let jsonl_path = format!("results/trace_{}.jsonl", cell.stem());
    if let Err(e) = std::fs::write(&jsonl_path, events_to_jsonl(&collect.events)) {
        logx::warn(&format!("could not write {jsonl_path}: {e}"));
    }
    (collect.events, result.runtime_ms)
}

/// One epoch's accumulated row while walking the event stream.
#[derive(Default)]
struct Row {
    faults: u64,
    decisions: Vec<String>,
    snap: Option<EpochSnap>,
}

fn decision_label(d: &PolicyDecision) -> String {
    match d {
        PolicyDecision::EnableThp {
            walk_miss_fraction,
            promote,
            ..
        } => format!(
            "enable-thp(walk-miss {:.1}%{})",
            walk_miss_fraction * 100.0,
            if *promote { ", promote" } else { "" }
        ),
        PolicyDecision::SplitFlag {
            on,
            carrefour_gain_pp,
            split_gain_pp,
        } => format!(
            "split-flag={} (carrefour {carrefour_gain_pp:+.1}pp, split {split_gain_pp:+.1}pp)",
            if *on { "on" } else { "off" }
        ),
        PolicyDecision::SplitShared { base, sharers } => {
            format!("split-shared({base:#x}, {sharers} nodes)")
        }
        PolicyDecision::SplitHot {
            base,
            samples,
            total,
            ..
        } => format!("split-hot({base:#x}, {samples}/{total} samples)"),
    }
}

/// Folds the event stream into per-epoch rows (shared by both formats).
fn build_rows(events: &[TraceEvent]) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    let mut cur = Row::default();
    for ev in events {
        match ev {
            TraceEvent::PageFault { .. } => cur.faults += 1,
            TraceEvent::Decision { decision, .. } => cur.decisions.push(decision_label(decision)),
            TraceEvent::EpochEnd { snap, .. } => {
                cur.snap = Some(snap.clone());
                rows.push(std::mem::take(&mut cur));
            }
            _ => {}
        }
    }
    rows
}

/// Renders the epoch timeline as CSV: one header, one row per epoch, the
/// same columns as the text table plus the raw THP booleans. Decisions
/// are semicolon-joined inside one quoted field.
fn render_csv(events: &[TraceEvent]) -> String {
    let mut out = String::from(
        "epoch,imbalance_pct,lar,walk_miss_pct,faults,splits,migrations,\
         collapses,thp_alloc,thp_promote,failed_actions,decisions\n",
    );
    for (i, row) in build_rows(events).iter().enumerate() {
        let Some(snap) = &row.snap else { continue };
        let decisions = row.decisions.join("; ").replace('"', "\"\"");
        let _ = writeln!(
            out,
            "{},{:.3},{:.4},{:.3},{},{},{},{},{},{},{},\"{}\"",
            i,
            snap.imbalance,
            snap.lar,
            snap.walk_miss_fraction * 100.0,
            row.faults,
            snap.splits,
            snap.migrations,
            snap.collapses,
            snap.thp_alloc,
            snap.thp_promote,
            snap.failed_actions,
            decisions,
        );
    }
    out
}

/// Renders the Figure-2-style text timeline for one traced run.
fn render_timeline(cell: &GoldenCell, runtime_ms: f64, events: &[TraceEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== trace timeline: {} under {} (machine-a), runtime {runtime_ms:.1} ms ==",
        cell.bench.name(),
        cell.kind.label()
    );
    let _ = writeln!(
        out,
        "{:>5} {:>9} {:>6} {:>7} {:>7} {:>6} {:>5} {:>5} {:>4} {:>4}  decisions",
        "epoch", "imbal%", "lar", "walk%", "faults", "split", "migr", "clps", "thp", "fail",
    );
    let rows = build_rows(events);
    for (i, row) in rows.iter().enumerate() {
        let Some(snap) = &row.snap else { continue };
        let _ = writeln!(
            out,
            "{:>5} {:>9.1} {:>6.3} {:>7.2} {:>7} {:>6} {:>5} {:>5} {:>4} {:>4}  {}",
            i,
            snap.imbalance,
            snap.lar,
            snap.walk_miss_fraction * 100.0,
            row.faults,
            snap.splits,
            snap.migrations,
            snap.collapses,
            match (snap.thp_alloc, snap.thp_promote) {
                (true, true) => "a+p",
                (true, false) => "a",
                (false, true) => "p",
                (false, false) => "-",
            },
            snap.failed_actions,
            row.decisions.join("; "),
        );
    }
    out
}
