//! Carrefour-LP threshold sweep on the checkpoint-forked runner
//! (ROADMAP item 4, DESIGN.md §15).
//!
//! Every candidate configuration differs from the baseline only in
//! [`LpParams`], so a (machine × benchmark) *family* — baseline probe
//! plus all candidates — shares its simulation prefix through
//! [`forktree::run_family`]: candidates whose decision stream matches the
//! probe's cost zero simulated epochs, and candidates that diverge
//! together share one run resumed from the snapshot at the start of
//! their first divergent epoch. The sweep is seeded and deterministic end
//! to end: same grid, same refinement walk, same winner, bit-identical
//! cells on every run.
//!
//! Search: a fixed grid over the three thresholds the paper's sensitivity
//! discussion names (split gain, hot-page cutoff, imbalance trigger),
//! then attribution-guided refinement — each round diagnoses the current
//! winner's worst family with the 9-group cycle ledger
//! ([`attrib::cause_groups`]) and the cause bucket that *grew* picks the
//! next axis to perturb. Scoring is mean speedup over Linux-tuned
//! Carrefour-LP across all families vs. worst-case regression; both land
//! in `results/SWEEP_lp.json` (schema `sweep-v1`) together with the
//! Pareto frontier and the prefix-sharing counters.
//!
//! `--smoke` runs a tiny 3×3 grid plus three forking candidates on the
//! test machine, additionally runs the same cells *without* sharing, and
//! asserts (a) every result and trace digest is bit-identical between the
//! two execution strategies, (b) sharing cut simulated epochs by at least
//! 2×, (c) at least one class head resumed from a snapshot, (d) at
//! least one of them forked off another fork, and (e) every snapshot a
//! head run captured was kept by a class. CI runs this on every
//! push. `--no-share` disables prefix sharing in any mode (the A/B lever
//! the smoke test uses internally).

use carrefour::LpParams;
use carrefour_bench::forktree::{self, FamilyStats};
use carrefour_bench::runner::{self, CellSpec};
use carrefour_bench::{arg_value, attrib, logx, PolicyKind};
use codec::json::esc;
use engine::SimResult;
use numa_topology::MachineSpec;
use std::collections::HashMap;
use workloads::Benchmark;

/// One point in the threshold space, identified by a stable label.
#[derive(Clone)]
struct Candidate {
    id: usize,
    label: String,
    params: LpParams,
}

/// One (machine × benchmark) scenario the sweep scores candidates on.
struct Family {
    machine: MachineSpec,
    bench: Benchmark,
}

/// What the sweep keeps per (family, candidate) cell: enough to score and
/// diagnose without holding every per-epoch record alive.
struct Scored {
    runtime_cycles: u64,
    attribution: Option<engine::AttributionLedger>,
}

/// A candidate's aggregate score across all families.
struct Score {
    mean_speedup: f64,
    worst_regression_pct: f64,
}

fn main() {
    carrefour_bench::logx::exit_quietly_on_broken_pipe();
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let share = !args.iter().any(|a| a == "--no-share");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "results/SWEEP_lp.json".into());
    // Refinement diagnoses with the cycle ledger, and the equivalence
    // claim is strongest with it on (the ledger rides inside SimResult's
    // PartialEq), so the sweep always runs attributed.
    std::env::set_var("CARREFOUR_ATTRIB", "1");
    let jobs = runner::default_jobs();

    if smoke {
        run_smoke(&out_path, share, jobs);
    } else {
        run_full(&out_path, share, jobs);
    }
}

/// The family's cell list: baseline probe first, then every candidate.
/// With `share` off the family tag is withheld, so `run_grouped` runs
/// every cell as a from-scratch singleton — same results, no reuse.
fn family_specs(family: &Family, cands: &[Candidate], share: bool) -> Vec<CellSpec> {
    let mut specs = Vec::with_capacity(cands.len() + 1);
    let mut probe = CellSpec::new(
        family.machine.clone(),
        family.bench,
        PolicyKind::CarrefourLp,
    );
    if share {
        probe.family = Some("sweep".into());
    }
    specs.push(probe.clone());
    for c in cands {
        let mut s = probe.clone();
        s.lp_params = Some(c.params);
        s.label = Some(format!("Carrefour-LP[{}]", c.label));
        specs.push(s);
    }
    specs
}

/// Runs one wave — every family × (probe + candidates) — through the
/// fork tree, in parallel across families. Returns per-family cells
/// (probe first, candidate order preserved) and merged stats.
fn run_wave(
    families: &[Family],
    cands: &[Candidate],
    share: bool,
    traced: bool,
    jobs: usize,
) -> (Vec<Vec<forktree::FamilyCell>>, FamilyStats) {
    let ran = runner::par_map(jobs, families.len(), |i| {
        let specs = family_specs(&families[i], cands, share);
        let (cells, stats) = forktree::run_grouped(&specs, traced);
        (cells, merge(&stats))
    });
    let mut total = FamilyStats::default();
    let mut out = Vec::with_capacity(ran.len());
    for (cells, stats) in ran {
        total.absorb(&stats);
        out.push(cells);
    }
    (out, total)
}

/// Folds `run_grouped`'s per-group counters into one.
fn merge(stats: &[(String, FamilyStats)]) -> FamilyStats {
    let mut total = FamilyStats::default();
    for (_, s) in stats {
        total.absorb(s);
    }
    total
}

/// Mean speedup (arithmetic, over families) and worst regression of one
/// candidate against the per-family baseline runtimes.
fn score(base: &[u64], cand: &[u64]) -> Score {
    let mut sum = 0.0;
    let mut worst = 0.0f64;
    for (&b, &c) in base.iter().zip(cand) {
        sum += b as f64 / c as f64;
        worst = worst.max((c as f64 / b as f64 - 1.0) * 100.0);
    }
    Score {
        mean_speedup: sum / base.len() as f64,
        worst_regression_pct: worst,
    }
}

/// `true` when `a` Pareto-dominates `b` (no worse on both axes, strictly
/// better on one).
fn dominates(a: &Score, b: &Score) -> bool {
    a.mean_speedup >= b.mean_speedup
        && a.worst_regression_pct <= b.worst_regression_pct
        && (a.mean_speedup > b.mean_speedup || a.worst_regression_pct < b.worst_regression_pct)
}

/// The winner: the frontier point with the highest mean speedup among
/// those regressing no family by more than 1 % — the "serve heavy
/// traffic" criterion (never make any scenario meaningfully worse). If
/// every frontier point regresses more, the least-regressing one wins.
fn pick_winner<'a>(frontier: &[&'a (Candidate, Score)]) -> &'a (Candidate, Score) {
    frontier
        .iter()
        .filter(|(_, s)| s.worst_regression_pct <= 1.0)
        .max_by(|(_, a), (_, b)| a.mean_speedup.total_cmp(&b.mean_speedup))
        .or_else(|| {
            frontier
                .iter()
                .min_by(|(_, a), (_, b)| a.worst_regression_pct.total_cmp(&b.worst_regression_pct))
        })
        .expect("frontier is non-empty")
}

// ----------------------------------------------------------------- grid

/// A labeled threshold perturbation of the paper's defaults.
fn cand(id: usize, label: String, f: impl FnOnce(&mut LpParams)) -> Candidate {
    let mut params = LpParams::default();
    f(&mut params);
    Candidate { id, label, params }
}

/// The full sweep's seed grid: 3×3×3 over the split gain (Algorithm 1
/// line 12), the hot-page cutoff (line 19), and Carrefour's imbalance
/// trigger. Includes the paper's own point (5.0, 0.06, 35).
fn full_grid() -> Vec<Candidate> {
    let mut out = Vec::new();
    for &split in &[2.5, 5.0, 7.5] {
        for &hot in &[0.03, 0.06, 0.09] {
            for &imb in &[25.0, 35.0, 45.0] {
                let id = out.len();
                out.push(cand(
                    id,
                    format!("split={split} hot={hot} imb={imb}"),
                    |p| {
                        p.thresholds.split_gain_pp = split;
                        p.thresholds.hot_page_fraction = hot;
                        p.carrefour.imbalance_enable_above = imb;
                    },
                ));
            }
        }
    }
    out
}

/// The smoke grid: 3×3 hugging the defaults so most candidates share
/// most (often all) of the probe's prefix — the reuse the CI gate
/// asserts on — plus a lower imbalance trigger, whose UA.B decisions
/// first differ at epoch 18, so the gate also resumes from a snapshot,
/// and two low walk-miss triggers. On UA.B both part from the probe at
/// epoch 2 the same way and from each other at epoch 4, so the gate also
/// reaches a nested fork; on EP.C both match the probe.
fn smoke_grid() -> Vec<Candidate> {
    let mut out = Vec::new();
    for &split in &[4.0, 5.0, 6.0] {
        for &hot in &[0.05, 0.06, 0.07] {
            let id = out.len();
            out.push(cand(id, format!("split={split} hot={hot}"), |p| {
                p.thresholds.split_gain_pp = split;
                p.thresholds.hot_page_fraction = hot;
            }));
        }
    }
    let id = out.len();
    out.push(cand(id, "imb=20".into(), |p| {
        p.carrefour.imbalance_enable_above = 20.0;
    }));
    for walk in [0.01, 0.02] {
        let id = out.len();
        out.push(cand(id, format!("walk={walk}"), |p| {
            p.thresholds.walk_miss_enable = walk;
        }));
    }
    out
}

// ----------------------------------------------------------- refinement

/// Maps the cause group that grew under the current winner to the next
/// threshold axis to perturb, with the values to try. The mapping follows
/// each knob's mechanism: more page-fault cycles point at the split gate
/// (splitting causes faults), walk cycles at the walk-miss re-enable
/// threshold, queueing at the imbalance trigger, memory-side cycles at
/// the hot-page cutoff, and policy overhead at the migration rate limit.
fn axis_for(group: &str) -> (&'static str, Vec<f64>) {
    match group {
        "page faults" => ("split_gain_pp", vec![1.5, 3.5, 10.0]),
        "TLB lookup + local page walk" | "remote page walks" => {
            ("walk_miss_enable", vec![0.025, 0.075, 0.1])
        }
        "controller queueing" => ("imbalance_enable_above", vec![15.0, 20.0, 30.0]),
        "DRAM service" | "interconnect hops" => ("hot_page_fraction", vec![0.02, 0.045, 0.12]),
        "policy + daemon overhead" => ("max_migrations_per_epoch", vec![1024.0, 2048.0, 8192.0]),
        // compute / cache hits: no threshold steers these; fall back to
        // the fault-time re-enable gate, the one axis the grid never
        // touched.
        _ => ("fault_time_enable", vec![0.025, 0.075, 0.1]),
    }
}

/// Applies one refinement axis value to a copy of `base`.
fn apply_axis(base: &LpParams, axis: &str, v: f64) -> LpParams {
    let mut p = *base;
    match axis {
        "split_gain_pp" => p.thresholds.split_gain_pp = v,
        "walk_miss_enable" => p.thresholds.walk_miss_enable = v,
        "imbalance_enable_above" => p.carrefour.imbalance_enable_above = v,
        "hot_page_fraction" => p.thresholds.hot_page_fraction = v,
        "max_migrations_per_epoch" => p.carrefour.max_migrations_per_epoch = v as usize,
        "fault_time_enable" => p.thresholds.fault_time_enable = v,
        _ => unreachable!("unknown axis {axis}"),
    }
    p
}

/// One refinement round's record for the JSON report.
struct Refinement {
    round: usize,
    diagnosed_family: String,
    grew: &'static str,
    axis: &'static str,
}

/// Diagnoses the winner's worst family: which cause group grew the most
/// vs. the baseline there. Falls back to the group with the largest
/// (least negative) delta when nothing grew.
fn diagnose<'a>(base: &'a Scored, cand: &'a Scored) -> &'static str {
    let (Some(b), Some(c)) = (&base.attribution, &cand.attribution) else {
        return "compute"; // attribution off: take the fallback axis
    };
    let groups = attrib::cause_groups(&b.total, &c.total);
    groups
        .iter()
        .max_by_key(|g| g.delta())
        .map(|g| g.name)
        .unwrap_or("compute")
}

// ----------------------------------------------------------------- full

fn run_full(out_path: &str, share: bool, jobs: usize) {
    let families: Vec<Family> = carrefour_bench::machines()
        .into_iter()
        .flat_map(|m| {
            Benchmark::numa_affected().iter().map(move |&b| Family {
                machine: m.clone(),
                bench: b,
            })
        })
        .collect();
    let mut candidates = full_grid();
    logx::info(&format!(
        "[sweep] full: {} families x (1 probe + {} grid candidates), {} jobs, share={}",
        families.len(),
        candidates.len(),
        jobs,
        share
    ));

    // runtimes[cand_id][family_idx]; the probe's own runtimes separately.
    let mut base: Vec<Scored> = Vec::new();
    let mut scored: HashMap<usize, Vec<Scored>> = HashMap::new();
    let mut stats = FamilyStats::default();
    let started = std::time::Instant::now();

    let mut wave = candidates.clone();
    let mut refinements: Vec<Refinement> = Vec::new();
    let mut round = 0usize;
    loop {
        let (cells, wave_stats) = run_wave(&families, &wave, share, false, jobs);
        stats.absorb(&wave_stats);
        for (fi, fam_cells) in cells.into_iter().enumerate() {
            let mut it = fam_cells.into_iter();
            let probe = it.next().expect("probe cell");
            if base.len() == fi {
                base.push(keep(&probe.result));
            }
            for (c, cell) in wave.iter().zip(it) {
                scored.entry(c.id).or_default().push(keep(&cell.result));
            }
        }
        logx::info(&format!(
            "[sweep] round {round}: {} candidates scored, {} epochs simulated / {} reused so far",
            scored.len(),
            stats.epochs_simulated,
            stats.epochs_reused
        ));

        round += 1;
        if round > 2 {
            break; // grid + two refinement rounds
        }

        // Refine: diagnose the current winner's worst family and extend
        // the candidate set along the axis its grown cause bucket names.
        let scores = score_all(&candidates, &base, &scored);
        let frontier = frontier_of(&scores);
        let (best, _) = pick_winner(&frontier);
        let (worst_fi, _) = worst_family(&base, &scored[&best.id]);
        let grew = diagnose(&base[worst_fi], &scored[&best.id][worst_fi]);
        let (axis, values) = axis_for(grew);
        let fam = &families[worst_fi];
        logx::info(&format!(
            "[sweep] round {round}: winner `{}`; {} on {}/{} grew -> perturbing {axis}",
            best.label,
            grew,
            fam.bench.name(),
            fam.machine.name()
        ));
        refinements.push(Refinement {
            round,
            diagnosed_family: format!("{}/{}", fam.bench.name(), fam.machine.name()),
            grew,
            axis,
        });
        let already: Vec<String> = candidates
            .iter()
            .map(|c| format!("{:?}", c.params))
            .collect();
        let base_params = best.params;
        let base_label = best.label.clone();
        wave = Vec::new();
        for v in values {
            let params = apply_axis(&base_params, axis, v);
            if already.contains(&format!("{params:?}")) {
                continue;
            }
            let c = Candidate {
                id: candidates.len() + wave.len(),
                label: format!("{base_label} {axis}={v}"),
                params,
            };
            wave.push(c);
        }
        if wave.is_empty() {
            break; // every perturbation already tried
        }
        candidates.extend(wave.iter().cloned());
    }

    let scores = score_all(&candidates, &base, &scored);
    let frontier = frontier_of(&scores);
    let (winner, winner_score) = pick_winner(&frontier);
    let total_cells = stats.cells;
    let wall = started.elapsed().as_secs_f64();
    logx::info(&format!(
        "[sweep] {} candidates over {} families ({} cells) in {:.1}s",
        candidates.len(),
        families.len(),
        total_cells,
        wall
    ));
    print_share_report(&stats);
    println!("== Threshold sweep: Pareto frontier (mean speedup vs worst regression) ==");
    for (c, s) in &frontier {
        println!(
            "{:<44} {:>7.3}x mean   {:>6.2}% worst regression",
            c.label, s.mean_speedup, s.worst_regression_pct
        );
    }
    println!(
        "winner: {} ({:.3}x mean, {:.2}% worst) -> LpParams::tuned()",
        winner.label, winner_score.mean_speedup, winner_score.worst_regression_pct
    );
    println!("{:#?}", winner.params);

    write_json(
        out_path,
        "full",
        share,
        families.len(),
        &stats,
        &scores,
        &frontier,
        winner,
        &refinements,
        None,
    );
}

/// Strips a result down to what scoring and diagnosis need.
fn keep(r: &SimResult) -> Scored {
    Scored {
        runtime_cycles: r.runtime_cycles,
        attribution: r.attribution.clone(),
    }
}

/// Scores every candidate that has a full score vector.
fn score_all(
    candidates: &[Candidate],
    base: &[Scored],
    scored: &HashMap<usize, Vec<Scored>>,
) -> Vec<(Candidate, Score)> {
    let base_rt: Vec<u64> = base.iter().map(|s| s.runtime_cycles).collect();
    candidates
        .iter()
        .filter_map(|c| {
            let rows = scored.get(&c.id)?;
            if rows.len() != base_rt.len() {
                return None;
            }
            let rt: Vec<u64> = rows.iter().map(|s| s.runtime_cycles).collect();
            Some((c.clone(), score(&base_rt, &rt)))
        })
        .collect()
}

/// The non-dominated subset, in candidate order.
fn frontier_of(scores: &[(Candidate, Score)]) -> Vec<&(Candidate, Score)> {
    scores
        .iter()
        .filter(|(_, s)| !scores.iter().any(|(_, o)| dominates(o, s)))
        .collect()
}

/// The family where the candidate regresses (or gains least) vs. base.
fn worst_family(base: &[Scored], cand: &[Scored]) -> (usize, f64) {
    base.iter()
        .zip(cand)
        .map(|(b, c)| c.runtime_cycles as f64 / b.runtime_cycles as f64)
        .enumerate()
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .expect("at least one family")
}

fn print_share_report(stats: &FamilyStats) {
    let total = stats.epochs_simulated + stats.epochs_reused;
    let factor = total as f64 / stats.epochs_simulated.max(1) as f64;
    println!(
        "prefix sharing: {} epochs simulated, {} reused ({:.2}x reduction; \
         {} full matches, {} forks ({} nested), {} scratch)",
        stats.epochs_simulated,
        stats.epochs_reused,
        factor,
        stats.full_matches,
        stats.forks,
        stats.nested_forks,
        stats.scratch
    );
    println!(
        "snapshots: {} captured, {} kept, {:.1} MiB peak kept in one family",
        stats.snapshots_captured,
        stats.snapshots_kept,
        stats.peak_kept_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "replays: {} member on_epoch calls on recorded boundaries",
        stats.replays
    );
}

// ---------------------------------------------------------------- smoke

/// The CI gate: a tiny grid on the test machine, run twice — shared and
/// from scratch — asserting bit-identity, a ≥2× cut in simulated epochs,
/// at least one fork and no snapshot captured for nothing. Honors `--no-share` by skipping the shared
/// leg's assertions (the JSON then records the scratch counters).
fn run_smoke(out_path: &str, share: bool, jobs: usize) {
    std::env::set_var("CARREFOUR_QUIET", "1");
    let families = vec![
        Family {
            machine: MachineSpec::test_machine(),
            bench: Benchmark::EpC,
        },
        Family {
            machine: MachineSpec::test_machine(),
            bench: Benchmark::UaB,
        },
    ];
    let candidates = smoke_grid();
    logx::info(&format!(
        "[sweep] smoke: {} families x (1 probe + {} candidates), share={}",
        families.len(),
        candidates.len(),
        share
    ));
    let (shared_cells, stats) = run_wave(&families, &candidates, share, true, jobs);
    let (scratch_cells, scratch_stats) = run_wave(&families, &candidates, false, true, jobs);

    // Bit-identity: every shared cell equals its from-scratch twin,
    // result and trace digest both.
    for (fam_s, fam_n) in shared_cells.iter().zip(&scratch_cells) {
        for (s, n) in fam_s.iter().zip(fam_n) {
            assert_eq!(
                s.result, n.result,
                "sweep smoke: shared result diverged from scratch"
            );
            let (sd, nd) = (
                s.digest.as_ref().expect("traced"),
                n.digest.as_ref().expect("traced"),
            );
            if let Some(diff) = nd.diff(sd) {
                panic!("sweep smoke: shared trace digest diverged: {diff}");
            }
        }
    }
    println!(
        "smoke: all {} cells bit-identical shared vs scratch",
        stats.cells
    );
    print_share_report(&stats);

    let total = stats.epochs_simulated + stats.epochs_reused;
    let factor = total as f64 / stats.epochs_simulated.max(1) as f64;
    if share {
        assert!(
            stats.epochs_reused > 0,
            "sweep smoke: prefix sharing reused no epochs"
        );
        assert!(
            factor >= 2.0,
            "sweep smoke: expected >=2x fewer simulated epochs, got {factor:.2}x \
             ({} simulated vs {} total)",
            stats.epochs_simulated,
            total
        );
        assert!(
            stats.forks >= 1,
            "sweep smoke: no sibling resumed from a snapshot"
        );
        assert!(
            stats.nested_forks >= 1,
            "sweep smoke: no class forked off another fork"
        );
        // No family keeps more than it captured, so equal totals mean
        // every family captured only snapshots it kept.
        assert_eq!(
            stats.snapshots_captured, stats.snapshots_kept,
            "sweep smoke: a head run captured a snapshot no class kept"
        );
        assert_eq!(
            scratch_stats.epochs_simulated, total,
            "scratch leg must simulate every epoch"
        );
    }

    // Score the smoke grid too, so the JSON is structurally identical in
    // both modes (CI parses one schema).
    let mut base = Vec::new();
    let mut scored: HashMap<usize, Vec<Scored>> = HashMap::new();
    for fam_cells in &shared_cells {
        base.push(keep(&fam_cells[0].result));
        for (c, cell) in candidates.iter().zip(&fam_cells[1..]) {
            scored.entry(c.id).or_default().push(keep(&cell.result));
        }
    }
    let scores = score_all(&candidates, &base, &scored);
    let frontier = frontier_of(&scores);
    let (winner, _) = pick_winner(&frontier);
    write_json(
        out_path,
        "smoke",
        share,
        families.len(),
        &stats,
        &scores,
        &frontier,
        winner,
        &[],
        Some(&scratch_stats),
    );
}

// ----------------------------------------------------------------- json

fn params_json(p: &LpParams, indent: &str) -> String {
    format!(
        "{{\n{indent}  \"walk_miss_enable\": {}, \"fault_time_enable\": {}, \"carrefour_gain_pp\": {}, \"split_gain_pp\": {}, \"hot_page_fraction\": {},\n\
         {indent}  \"min_samples_per_page\": {}, \"lar_enable_below\": {}, \"imbalance_enable_above\": {}, \"intensity_min_dram_per_op\": {}, \"max_migrations_per_epoch\": {}\n{indent}}}",
        p.thresholds.walk_miss_enable,
        p.thresholds.fault_time_enable,
        p.thresholds.carrefour_gain_pp,
        p.thresholds.split_gain_pp,
        p.thresholds.hot_page_fraction,
        p.carrefour.min_samples_per_page,
        p.carrefour.lar_enable_below,
        p.carrefour.imbalance_enable_above,
        p.carrefour.intensity_min_dram_per_op,
        p.carrefour.max_migrations_per_epoch,
    )
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    mode: &str,
    share: bool,
    families: usize,
    stats: &FamilyStats,
    scores: &[(Candidate, Score)],
    frontier: &[&(Candidate, Score)],
    winner: &Candidate,
    refinements: &[Refinement],
    scratch: Option<&FamilyStats>,
) {
    let total = stats.epochs_simulated + stats.epochs_reused;
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"sweep-v1\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"share\": {share},\n"));
    out.push_str(&format!("  \"families\": {families},\n"));
    out.push_str(&format!("  \"cells\": {},\n", stats.cells));
    out.push_str(&format!(
        "  \"epochs_simulated\": {},\n",
        stats.epochs_simulated
    ));
    out.push_str(&format!("  \"epochs_reused\": {},\n", stats.epochs_reused));
    out.push_str(&format!("  \"epochs_total\": {total},\n"));
    out.push_str(&format!(
        "  \"share_factor\": {:.3},\n",
        total as f64 / stats.epochs_simulated.max(1) as f64
    ));
    out.push_str(&format!("  \"full_matches\": {},\n", stats.full_matches));
    out.push_str(&format!("  \"forks\": {},\n", stats.forks));
    out.push_str(&format!("  \"nested_forks\": {},\n", stats.nested_forks));
    out.push_str(&format!("  \"scratch\": {},\n", stats.scratch));
    // Reuse-latency spans (bench-runner-v5 era): where the fork tree's
    // host seconds went — probing, replay verification, forked tails,
    // result cloning, and scratch fallbacks (DESIGN.md §16).
    out.push_str(&format!("  \"probe_secs\": {:.3},\n", stats.probe_secs));
    out.push_str(&format!("  \"replay_secs\": {:.3},\n", stats.replay_secs));
    out.push_str(&format!("  \"replays\": {},\n", stats.replays));
    out.push_str(&format!("  \"resume_secs\": {:.3},\n", stats.resume_secs));
    out.push_str(&format!("  \"clone_secs\": {:.3},\n", stats.clone_secs));
    out.push_str(&format!("  \"scratch_secs\": {:.3},\n", stats.scratch_secs));
    if let Some(s) = scratch {
        out.push_str(&format!(
            "  \"noshare_epochs_simulated\": {},\n",
            s.epochs_simulated
        ));
    }
    out.push_str("  \"refinements\": [\n");
    for (i, r) in refinements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"round\": {}, \"family\": \"{}\", \"grew\": \"{}\", \"axis\": \"{}\"}}{}\n",
            r.round,
            esc(&r.diagnosed_family),
            esc(r.grew),
            esc(r.axis),
            if i + 1 < refinements.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let on_frontier = |id: usize| frontier.iter().any(|(c, _)| c.id == id);
    out.push_str("  \"candidates\": [\n");
    for (i, (c, s)) in scores.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"label\": \"{}\", \"mean_speedup\": {:.4}, \"worst_regression_pct\": {:.3}, \"frontier\": {}, \"params\": {}}}{}\n",
            c.id,
            esc(&c.label),
            s.mean_speedup,
            s.worst_regression_pct,
            on_frontier(c.id),
            params_json(&c.params, "    "),
            if i + 1 < scores.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"winner\": {{\"id\": {}, \"label\": \"{}\", \"params\": {}}}\n",
        winner.id,
        esc(&winner.label),
        params_json(&winner.params, "  ")
    ));
    out.push_str("}\n");
    match std::fs::create_dir_all(
        std::path::Path::new(path)
            .parent()
            .unwrap_or(std::path::Path::new(".")),
    )
    .and_then(|()| std::fs::write(path, &out))
    {
        Ok(()) => logx::info(&format!("[sweep] wrote {path}")),
        Err(e) => logx::warn(&format!("could not write {path}: {e}")),
    }
}
