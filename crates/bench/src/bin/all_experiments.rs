//! Runs every figure/table experiment in one process on the shared runner.
//!
//! All experiments' cells are collected up front, **deduplicated** across
//! experiments (many figures share their Linux-4K baselines; the simulator
//! is deterministic, so one run serves them all), executed on the worker
//! pool (`--jobs N` / `CARREFOUR_JOBS` / host cores), and then rendered in
//! the traditional per-experiment order. Per-cell and total wall-clock go
//! to `results/BENCH_runner.json` — the repo's performance trajectory file
//! (schema in DESIGN.md §10).

use carrefour_bench::json::{json_f64, json_str};
use carrefour_bench::runner::{self, CellOutcome, Progress, TimedCell};
use carrefour_bench::{attrib, experiments, journal, logx};
use std::collections::HashMap;

/// The journal suite name: one journal serves the whole binary, whatever
/// `--only` subset is running (cell keys are globally unique).
const SUITE: &str = "all";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let resume = args.iter().any(|a| a == "--resume");
    let only = only_from_args(&args);
    let compare = compare_from_args();
    let attrib_on = std::env::args().any(|a| a == "--attrib") || carrefour_bench::attrib_enabled();
    if attrib_on {
        // The runner reads this per cell; setting it here lets `--attrib`
        // and `CARREFOUR_ATTRIB=1` behave identically.
        std::env::set_var("CARREFOUR_ATTRIB", "1");
    }
    let jobs = runner::default_jobs();
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut exps = experiments::all();
    if let Some(names) = &only {
        let known: Vec<&str> = exps.iter().map(|e| e.name).collect();
        for n in names {
            assert!(
                known.contains(&n.as_str()),
                "--only: unknown experiment {n:?}; known: {known:?}"
            );
        }
        exps.retain(|e| names.iter().any(|n| n == e.name));
    }

    // Dedup identical cells across experiments: equal keys mean equal
    // simulation inputs, and determinism means equal results.
    let mut unique = Vec::new();
    let mut key_to_slot: HashMap<String, usize> = HashMap::new();
    let mut exp_slots: Vec<Vec<usize>> = Vec::with_capacity(exps.len());
    for e in &exps {
        let mut slots = Vec::with_capacity(e.specs.len());
        for spec in &e.specs {
            let slot = *key_to_slot.entry(spec.key()).or_insert_with(|| {
                unique.push(spec.clone());
                unique.len() - 1
            });
            slots.push(slot);
        }
        exp_slots.push(slots);
    }
    let submitted: usize = exps.iter().map(|e| e.specs.len()).sum();
    logx::info(&format!(
        "[all] {} experiments, {} cells ({} unique), {} jobs on {} cores",
        exps.len(),
        submitted,
        unique.len(),
        jobs,
        host_cores
    ));

    // The crash journal. A fresh run starts it over; `--resume` keeps it
    // and pre-fills every cell the previous (killed or failed) run already
    // completed — determinism makes the spliced results indistinguishable
    // from an uninterrupted run.
    if !resume {
        let _ = std::fs::remove_file(journal::journal_path(SUITE));
    }
    let jnl = match journal::Journal::open_append(SUITE) {
        Ok(j) => Some(j),
        Err(e) => {
            logx::warn(&format!(
                "running without a crash journal: cannot open {}: {e}",
                journal::journal_path(SUITE).display()
            ));
            None
        }
    };
    let keys: Vec<String> = unique.iter().map(|s| s.key()).collect();
    let (mut journaled, stale) = if resume {
        journal::load_counted(SUITE)
    } else {
        (HashMap::new(), 0)
    };
    let mut filled: Vec<Option<TimedCell>> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            journaled.remove(k).map(|j| TimedCell {
                cell: j.cell,
                wall_secs: j.wall_secs,
                // The journal stores results, not scheduler metadata;
                // the estimate is a pure function of the spec, so
                // recomputing it here keeps restored rows honest. Spans
                // are honest zeros: the work happened in a dead process.
                estimated_ops: unique[i].estimated_ops(),
                spans: runner::CellSpans::journal_restored(),
            })
        })
        .collect();
    if resume {
        let restored = filled.iter().filter(|s| s.is_some()).count();
        logx::info(&format!(
            "[all] resume: {restored} of {} cells restored from {}",
            unique.len(),
            journal::journal_path(SUITE).display()
        ));
        if stale > 0 {
            // Later-line-wins fired: an interrupted append or a retried
            // cell left earlier lines for the same key behind.
            logx::info(&format!(
                "[all] resume: skipped {stale} stale duplicate journal line(s) (later line wins)"
            ));
        }
    }

    let todo: Vec<usize> = (0..unique.len()).filter(|&i| filled[i].is_none()).collect();
    let todo_specs: Vec<runner::CellSpec> = todo.iter().map(|&i| unique[i].clone()).collect();
    let progress = Progress::new("all", todo_specs.len());
    let outcomes = runner::run_cells_outcomes(&todo_specs, jobs, &progress, |i, t| {
        if let Some(j) = &jnl {
            j.record_ok(&todo_specs[i].key(), t);
        }
    });
    let total_wall_secs = progress.finish();

    let mut failed: Vec<(String, String)> = Vec::new();
    for (oi, outcome) in outcomes.into_iter().enumerate() {
        let slot = todo[oi];
        match outcome {
            CellOutcome::Ok(t) => filled[slot] = Some(t),
            CellOutcome::TimedOut { secs, result } => {
                logx::warn(&format!(
                    "[all] cell {} finished past the soft deadline ({secs:.1}s)",
                    unique[slot].describe_with_family()
                ));
                filled[slot] = Some(result);
            }
            CellOutcome::Panicked { msg } => {
                if let Some(j) = &jnl {
                    j.record_panicked(&keys[slot], &msg);
                }
                failed.push((unique[slot].describe(), msg));
            }
        }
    }

    for (e, slots) in exps.iter().zip(&exp_slots) {
        println!("################ {} ################", e.name);
        let cells: Option<Vec<_>> = slots
            .iter()
            .map(|&i| filled[i].as_ref().map(|t| t.cell.clone()))
            .collect();
        match cells {
            Some(cells) => (e.render)(&cells),
            None => {
                let n = slots.iter().filter(|&&i| filled[i].is_none()).count();
                println!("SKIPPED: {n} cell(s) failed; see stderr.");
            }
        }
    }

    if !failed.is_empty() {
        logx::warn(&format!("[all] {} cell(s) FAILED:", failed.len()));
        for (what, msg) in &failed {
            logx::warn(&format!("[all]   {what}: {msg}"));
        }
        logx::warn("[all] rerun with --resume to retry only the failed cells");
        std::process::exit(1);
    }

    let timed: Vec<TimedCell> = filled
        .into_iter()
        .map(|s| s.expect("no failures, so every slot is filled"))
        .collect();

    write_bench_runner_json(&exps, &exp_slots, &timed, jobs, host_cores, total_wall_secs);

    if attrib_on {
        // Bucket totals of every unique cell, one attrib-v1 file. The
        // ledger is checked for conservation per cell: a runner that
        // shipped a non-conserving breakdown would poison every
        // downstream diagnosis.
        let cells: Vec<_> = timed.iter().map(|t| t.cell.clone()).collect();
        for c in &cells {
            let ledger = c.result.attribution.as_ref().unwrap_or_else(|| {
                panic!(
                    "--attrib was on but {}/{} has no ledger \
                     (a journal written without --attrib cannot resume an --attrib run)",
                    c.benchmark, c.policy
                )
            });
            assert!(
                ledger.conserves(c.result.runtime_cycles),
                "{}/{}: attribution does not conserve",
                c.benchmark,
                c.policy
            );
        }
        match std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write("results/ATTRIB_all.json", attrib::baseline_json(&cells)))
        {
            Ok(()) => logx::info(&format!(
                "[all] wrote results/ATTRIB_all.json ({} cells)",
                cells.len()
            )),
            Err(e) => logx::warn(&format!("could not write results/ATTRIB_all.json: {e}")),
        }
    }

    if let Some(path) = compare {
        // This suite runs every unique cell from scratch (DESIGN.md §15),
        // so its own reuse count is an honest 0 — the gate still compares
        // it against the baseline's figure.
        compare_against_baseline(&path, &exps, &exp_slots, &timed, total_wall_secs, 0);
    }
}

/// Parses `--only <a,b,c>` / `--only=a,b,c`: the comma-separated list of
/// experiment names to run (used by the CI kill-and-resume smoke test to
/// keep the interrupted suite small).
fn only_from_args(args: &[String]) -> Option<Vec<String>> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = if a == "--only" {
            it.next().cloned()
        } else {
            a.strip_prefix("--only=").map(str::to_string)
        };
        if let Some(v) = v {
            return Some(
                v.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect(),
            );
        }
    }
    None
}

/// Parses `--compare <path>` / `--compare=<path>` out of the arguments.
fn compare_from_args() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--compare" {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix("--compare=") {
            return Some(v.to_string());
        }
    }
    None
}

/// Compares this run's per-experiment wall-clock against a committed
/// baseline (`results/BENCH_baseline.json`, any `bench-runner-v*`
/// schema) and prints a speedup/regression table to stderr.
///
/// Regressions beyond 25 % are reported as warnings (GitHub `::warning::`
/// annotations in CI) but never change the exit code: wall-clock on
/// shared runners is noisy, and a hard gate on it would flake. Only
/// experiments that own cells in *both* runs are compared — a `0.000`
/// baseline (fully deduped experiment) has no meaningful ratio.
fn compare_against_baseline(
    path: &str,
    exps: &[experiments::Experiment],
    exp_slots: &[Vec<usize>],
    timed: &[TimedCell],
    total_wall_secs: f64,
    epochs_reused_now: u64,
) {
    let Ok(base) = std::fs::read_to_string(path) else {
        logx::info(&format!(
            "[all] --compare: cannot read {path}; skipping comparison"
        ));
        return;
    };
    let mut base_exps: HashMap<String, f64> = HashMap::new();
    let mut base_total: Option<f64> = None;
    let mut base_reused: Option<f64> = None;
    let mut in_experiments = false;
    for line in base.lines() {
        if let Some(t) = json_f64(line, "total_wall_secs") {
            base_total = Some(t);
        }
        if let Some(r) = json_f64(line, "epochs_reused") {
            base_reused = Some(r);
        }
        if line.contains("\"experiments\": [") {
            in_experiments = true;
            continue;
        }
        if in_experiments {
            if line.trim_start().starts_with(']') {
                in_experiments = false;
                continue;
            }
            if let (Some(name), Some(secs)) = (json_str(line, "name"), json_f64(line, "wall_secs"))
            {
                base_exps.insert(name, secs);
            }
        }
    }
    let owner = owners(exp_slots, timed.len());
    logx::info(&format!("[all] comparison against {path}:"));
    let mut regressions = 0usize;
    for (i, e) in exps.iter().enumerate() {
        let now = owned_secs(&owner, timed, i);
        let Some(&before) = base_exps.get(e.name) else {
            continue;
        };
        if before <= 0.0 || now <= 0.0 {
            continue; // fully deduped on one side: no meaningful ratio
        }
        let ratio = before / now;
        let note = if now > before * 1.25 {
            regressions += 1;
            "  <-- REGRESSION"
        } else {
            ""
        };
        logx::info(&format!(
            "[all]   {:<12} {:>8.3}s -> {:>8.3}s  ({:.2}x){}",
            e.name, before, now, ratio, note
        ));
    }
    if let Some(bt) = base_total {
        if bt > 0.0 && total_wall_secs > 0.0 {
            logx::info(&format!(
                "[all]   {:<12} {:>8.3}s -> {:>8.3}s  ({:.2}x)",
                "TOTAL",
                bt,
                total_wall_secs,
                bt / total_wall_secs
            ));
            if total_wall_secs > bt * 1.25 {
                regressions += 1;
            }
        }
    }
    if regressions > 0 {
        // Soft failure: annotate, never gate (wall clock is noisy).
        println!(
            "::warning::all_experiments is >25% slower than {path} in {regressions} row(s); \
             see the comparison table in the job log"
        );
    }
    // Epoch-reuse regressions, soft-gated the same way: a baseline that
    // shared prefix epochs while this run shares >25% fewer means the
    // fork-tree stopped helping (a dedup key or family split broke),
    // which wall-clock noise can mask on a fast host.
    if let Some(before) = base_reused {
        let now = epochs_reused_now as f64;
        logx::info(&format!(
            "[all]   {:<12} {:>8.0} -> {:>8.0} epochs reused",
            "REUSE", before, now
        ));
        if before > 0.0 && now < before * 0.75 {
            println!(
                "::warning::all_experiments reused {now:.0} prefix epochs vs {before:.0} in \
                 {path} (>25% drop); fork-tree sharing may have regressed"
            );
        }
    }
}

/// First-submitter attribution: `owner[slot]` is the index of the first
/// experiment that submitted the unique cell in `slot`.
fn owners(exp_slots: &[Vec<usize>], n_cells: usize) -> Vec<usize> {
    let mut owner = vec![usize::MAX; n_cells];
    for (ei, slots) in exp_slots.iter().enumerate() {
        for &s in slots {
            if owner[s] == usize::MAX {
                owner[s] = ei;
            }
        }
    }
    owner
}

/// Wall-clock seconds of the unique cells owned by experiment `i`.
/// Exactly `0.0` (positive zero) when it owns none: f64's empty-sum
/// identity is `-0.0`, which would otherwise print as `-0.000`.
fn owned_secs(owner: &[usize], timed: &[TimedCell], i: usize) -> f64 {
    let s: f64 = owner
        .iter()
        .zip(timed)
        .filter(|(&o, _)| o == i)
        .map(|(_, t)| t.wall_secs)
        .sum();
    if s <= 0.0 {
        0.0
    } else {
        s
    }
}

/// Writes `results/BENCH_runner.json` (best effort, like `save_json`).
/// The schema is documented in DESIGN.md §10 (v1–v4, v6) and §16 (v5: the
/// per-cell span fields and the suite-level `spans` rollup).
fn write_bench_runner_json(
    exps: &[experiments::Experiment],
    exp_slots: &[Vec<usize>],
    timed: &[TimedCell],
    jobs: usize,
    host_cores: usize,
    total_wall_secs: f64,
) {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"bench-runner-v6\",\n");
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(&format!("  \"total_wall_secs\": {total_wall_secs:.3},\n"));
    out.push_str(&format!("  \"unique_cells\": {},\n", timed.len()));
    let submitted: usize = exp_slots.iter().map(Vec::len).sum();
    out.push_str(&format!("  \"submitted_cells\": {submitted},\n"));
    // Prefix-sharing counters (new in v4). The figure suite deliberately
    // runs every unique cell from scratch — per-cell journaling and
    // crash-resume depend on each cell being an independent unit
    // (DESIGN.md §15) — so `epochs_reused` is an honest 0 here and
    // `families` is empty; the sweep's fork-tree reuse is accounted in
    // results/SWEEP_lp.json (schema sweep-v1), where sharing actually
    // runs. The fields exist in both files so trajectory tooling reads
    // one shape.
    let epochs_simulated: u64 = timed
        .iter()
        .map(|t| t.cell.result.epochs.len() as u64)
        .sum();
    out.push_str(&format!("  \"epochs_simulated\": {epochs_simulated},\n"));
    out.push_str("  \"epochs_reused\": 0,\n");
    out.push_str("  \"families\": [],\n");
    // Span rollup (new in v5). Sums cover only cells run by *this*
    // process: journal-restored rows carry zero spans (from_journal),
    // so a resumed suite's rollup stays honest about where its own
    // wall-clock went. Worker count and tail come from the same per-cell
    // samples the report's timeline view draws.
    let live: Vec<&TimedCell> = timed.iter().filter(|t| !t.spans.from_journal).collect();
    let tail = runner::tail_secs(live.iter().map(|t| {
        (
            t.spans.queue_wait_secs,
            t.spans.simulate_secs + t.spans.merge_secs,
        )
    }));
    let simulate: f64 = live.iter().map(|t| t.spans.simulate_secs).sum();
    let merge: f64 = live.iter().map(|t| t.spans.merge_secs).sum();
    let workers_used = live
        .iter()
        .map(|t| t.spans.worker)
        .collect::<std::collections::HashSet<_>>()
        .len();
    out.push_str(&format!(
        "  \"spans\": {{\"live_cells\": {}, \"tail_secs\": {:.3}, \
         \"simulate_total_secs\": {:.3}, \"merge_total_secs\": {:.3}, \
         \"workers_used\": {}}},\n",
        live.len(),
        tail,
        simulate,
        merge,
        workers_used,
    ));
    // Attribute each unique cell's cost to the first experiment that
    // submitted it, so per-experiment seconds sum to the cell total.
    let owner = owners(exp_slots, timed.len());
    out.push_str("  \"experiments\": [\n");
    for (i, (e, slots)) in exps.iter().zip(exp_slots).enumerate() {
        // An experiment whose cells all landed in earlier experiments'
        // slots owns nothing: wall_secs is a positive 0.000 (the naive
        // f64 sum is -0.0, which printed as "-0.000" under schema v1)
        // and reused_cells records how many of its cells were deduped.
        let reused = slots.iter().filter(|&&s| owner[s] != i).count();
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"cells\": {}, \"reused_cells\": {}, \"wall_secs\": {:.3}}}{}\n",
            esc(e.name),
            slots.len(),
            reused,
            owned_secs(&owner, timed, i),
            if i + 1 < exps.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"cells\": [\n");
    for (i, t) in timed.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"machine\": \"{}\", \"benchmark\": \"{}\", \"policy\": \"{}\", \"wall_secs\": {:.3}, \"estimated_ops\": {}, \"actual_ops\": {}, \"queue_wait_secs\": {:.3}, \"merge_secs\": {:.3}, \"worker\": {}, \"from_journal\": {}}}{}\n",
            esc(&t.cell.machine),
            esc(&t.cell.benchmark),
            esc(&t.cell.policy),
            t.wall_secs,
            t.estimated_ops,
            t.cell.result.lifetime.total_ops,
            t.spans.queue_wait_secs,
            t.spans.merge_secs,
            t.spans.worker,
            t.spans.from_journal,
            if i + 1 < timed.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/BENCH_runner.json", &out))
    {
        Ok(()) => logx::info("[all] wrote results/BENCH_runner.json"),
        Err(e) => logx::warn(&format!("could not write results/BENCH_runner.json: {e}")),
    }
}
