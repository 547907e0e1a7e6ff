//! `simbench`: the carrefour-lp simulator's benchmark.
//!
//! A run executes one workload's fixed job list on the bench runner for a
//! given number of seconds, checks every result against pinned outputs,
//! and reports host-side end-to-end metrics. A traced run adds one pass in
//! which every job also records spans around the benchmark's calls into
//! each layer, and reports per-layer metrics. See `README.md`.

pub mod cells;
pub mod check;
pub mod host;
pub mod layers;
pub mod pass;

use check::{Digests, Expected};
use host::HostStamp;
use layers::{Span, Totals, Tracer};
use pass::Pass;
use std::time::Instant;

/// A metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

/// End-to-end metrics, all host-side and measured with tracing off.
pub const END_TO_END: [Metric; 7] = [
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    Metric {
        name: "wall_s",
        unit: "s",
        better: "lower",
    },
    Metric {
        name: "maccess_per_s",
        unit: "M/s",
        better: "higher",
    },
    Metric {
        name: "cell_s_p50",
        unit: "s",
        better: "lower",
    },
    Metric {
        name: "cpu_s",
        unit: "s",
        better: "lower",
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
    },
    Metric {
        name: "ok_frac",
        unit: "frac",
        better: "higher",
    },
];

/// A per-layer metric and the end-to-end metrics, per workload, that a
/// change to its layer should move.
#[derive(Clone, Copy, Debug)]
pub struct LayerMetric {
    /// Name, unit and direction.
    pub metric: Metric,
    /// `(end-to-end metric, workload)` pairs it should move.
    pub moves: &'static [(&'static str, &'static str)],
}

const ALL_WALL: &[(&str, &str)] = &[
    ("wall_s", "pagewalk-4k"),
    ("wall_s", "thp-carrefour"),
    ("wall_s", "lp-sweep-fork"),
];
const ALL_THROUGHPUT: &[(&str, &str)] = &[
    ("maccess_per_s", "pagewalk-4k"),
    ("maccess_per_s", "thp-carrefour"),
    ("maccess_per_s", "lp-sweep-fork"),
];
const VMEM: &[(&str, &str)] = &[("wall_s", "pagewalk-4k"), ("maccess_per_s", "pagewalk-4k")];
const MEMSYS: &[(&str, &str)] = &[
    ("maccess_per_s", "thp-carrefour"),
    ("maccess_per_s", "pagewalk-4k"),
];
const PROFILING: &[(&str, &str)] = &[("wall_s", "thp-carrefour")];
const CORE: &[(&str, &str)] = &[("wall_s", "thp-carrefour"), ("wall_s", "lp-sweep-fork")];
const FORK: &[(&str, &str)] = &[
    ("wall_s", "lp-sweep-fork"),
    ("peak_rss_mb", "lp-sweep-fork"),
];
const RUNNER: &[(&str, &str)] = &[("wall_s", "pagewalk-4k"), ("cpu_s", "pagewalk-4k")];

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> LayerMetric {
    LayerMetric {
        metric: Metric { name, unit, better },
        moves,
    }
}

/// Per-layer metrics, from the traced run, grouped by crate.
pub const PER_LAYER: &[LayerMetric] = &[
    lm("workloads.gen_ns_per_op", "ns", "lower", ALL_THROUGHPUT),
    lm("vmem.tlb_ns_per_lookup", "ns", "lower", VMEM),
    lm("vmem.tlb_miss_frac", "frac", "lower", VMEM),
    lm("vmem.walk_ns_per_walk", "ns", "lower", VMEM),
    lm("vmem.walks_per_kop", "count", "lower", VMEM),
    lm("vmem.walk_cache_hit_frac", "frac", "higher", VMEM),
    lm("vmem.fault_ns_per_fault", "ns", "lower", VMEM),
    lm("memsys.access_ns_per_access", "ns", "lower", MEMSYS),
    lm("memsys.l1_hit_frac", "frac", "higher", MEMSYS),
    lm("memsys.dram_frac", "frac", "lower", MEMSYS),
    lm("memsys.dram_remote_frac", "frac", "lower", MEMSYS),
    lm("memsys.queue_cycles_per_dram", "cycles", "lower", MEMSYS),
    lm("profiling.ibs_ns_per_op", "ns", "lower", PROFILING),
    lm("profiling.ibs_samples", "count", "lower", PROFILING),
    lm("profiling.pagestats_ns_per_op", "ns", "lower", PROFILING),
    lm("core.on_epoch_us_p50", "us", "lower", CORE),
    lm("core.on_epoch_us_max", "us", "lower", CORE),
    lm("core.on_epoch_s_total", "s", "lower", CORE),
    lm("core.actions_per_epoch", "count", "lower", CORE),
    lm("core.action_fail_frac", "frac", "lower", CORE),
    lm("engine.run_s", "s", "lower", ALL_WALL),
    lm("engine.self_s", "s", "lower", ALL_WALL),
    lm("engine.ns_per_access", "ns", "lower", ALL_WALL),
    lm(
        "engine.checkpoint_s",
        "s",
        "lower",
        &[("wall_s", "lp-sweep-fork")],
    ),
    lm(
        "engine.resume_s",
        "s",
        "lower",
        &[("wall_s", "lp-sweep-fork")],
    ),
    lm("codec.ckpt_bytes", "bytes", "lower", FORK),
    lm("codec.ckpt_encode_ns_per_byte", "ns", "lower", FORK),
    lm("codec.ckpt_decode_ns_per_byte", "ns", "lower", FORK),
    lm("runner.busy_frac", "frac", "higher", RUNNER),
    lm("runner.tail_s", "s", "lower", RUNNER),
    lm("runner.cell_s_max", "s", "lower", RUNNER),
    lm("forktree.reuse_frac", "frac", "higher", FORK),
    lm("forktree.probe_s", "s", "lower", FORK),
    lm("forktree.replay_s", "s", "lower", FORK),
    lm("forktree.resume_s", "s", "lower", FORK),
    lm("forktree.scratch_s", "s", "lower", FORK),
    lm("forktree.forks", "count", "higher", FORK),
    lm("forktree.full_matches", "count", "higher", FORK),
    lm("layers.coverage_frac", "frac", "higher", ALL_WALL),
    lm("trace.overhead_frac", "frac", "lower", ALL_WALL),
];

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name (see [`cells::jobs`]).
    pub workload: String,
    /// Simulator seed of every cell.
    pub seed: u64,
    /// Seconds of untraced passes to measure.
    pub seconds: f64,
    /// Add a traced pass and report per-layer metrics.
    pub trace: bool,
}

/// The outcome of a run.
pub struct Report {
    /// Every result passed the output check.
    pub correct: bool,
    /// Cells attempted, over all passes.
    pub attempted: u64,
    /// Cells that panicked, timed out or failed the check.
    pub failed: u64,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<(Metric, f64)>,
    /// Per-layer metrics, in [`PER_LAYER`] order (traced runs only).
    pub per_layer: Vec<(Metric, f64)>,
    /// Check failures, one line each.
    pub errors: Vec<String>,
    /// Human-readable context (sample counts, pass counts).
    pub notes: Vec<String>,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
    /// The host the run was measured on.
    pub host: HostStamp,
}

/// Everything a run needs before its first job: the job list and the
/// pinned outputs.
pub struct Setup {
    /// The workload's jobs.
    pub jobs: Vec<cells::Job>,
    /// Pinned outputs.
    pub expected: Expected,
}

/// Path of the pinned-outputs file.
pub fn expected_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.txt")
}

impl Setup {
    /// Builds the job list and loads the pins.
    pub fn load(workload: &str, seed: u64) -> Result<Setup, String> {
        let jobs =
            cells::jobs(workload, seed).ok_or_else(|| format!("unknown workload {workload}"))?;
        // The runner orders jobs by their estimates; computing them here
        // builds every cell's workload spec once.
        std::hint::black_box(jobs.iter().map(cells::Job::estimated_ops).sum::<u64>());
        let path = expected_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(Setup {
            jobs,
            expected: Expected::parse(&text)?,
        })
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Checks every result of `pass`; returns (cells attempted, cells failed).
pub fn check_pass(
    pass: &Pass,
    jobs: &[cells::Job],
    workload: &str,
    seed: u64,
    expected: &Expected,
    digests: &mut Digests,
    errors: &mut Vec<String>,
) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for (job, outcome) in jobs.iter().zip(&pass.jobs) {
        let n = job.specs().len() as u64;
        attempted += n;
        let err = match outcome {
            carrefour_bench::runner::CellOutcome::Ok(run) => run
                .cells
                .iter()
                .filter_map(|(label, r)| {
                    expected
                        .check(workload, seed, label, r)
                        .and_then(|()| digests.check(label, r))
                        .err()
                })
                .collect::<Vec<_>>(),
            carrefour_bench::runner::CellOutcome::TimedOut { secs, .. } => {
                vec![format!(
                    "{}: timed out after {secs:.1} s",
                    cells::label(job.lead())
                )]
            }
            carrefour_bench::runner::CellOutcome::Panicked { msg } => {
                vec![format!("{}: panicked: {msg}", cells::label(job.lead()))]
            }
        };
        if !err.is_empty() {
            failed += n;
            errors.extend(err);
        }
    }
    (attempted, failed)
}

/// Runs the benchmark: set-up (repeated, the median reported), untraced
/// passes until `seconds` have elapsed, and with `trace` one traced pass.
pub fn run(opts: &Options) -> Result<Report, String> {
    const SETUP_REPEATS: usize = 31;
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let s = Setup::load(&opts.workload, opts.seed)?;
        setup_secs.push(t.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let Setup { jobs, expected } = setup.expect("set-up ran");
    let host = HostStamp::current();

    let mut digests = Digests::default();
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        let p = pass::run_pass(&jobs, host.nproc, None);
        let (a, f) = check_pass(
            &p,
            &jobs,
            &opts.workload,
            opts.seed,
            &expected,
            &mut digests,
            &mut errors,
        );
        attempted += a;
        failed += f;
        passes.push(p);
        // Start another pass while it would end, at the median pass length
        // so far, no more than half a pass past the measuring window.
        let typical = median(&passes.iter().map(|p| p.wall).collect::<Vec<_>>());
        if opts.trace || start.elapsed().as_secs_f64() + typical / 2.0 > opts.seconds {
            break;
        }
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let job_secs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.completed().map(|j| j.secs))
        .collect();
    let throughput: Vec<f64> = passes
        .iter()
        .map(|p| ratio(p.total_ops() as f64, p.wall) / 1e6)
        .collect();
    let cpu: Vec<f64> = passes.iter().map(|p| p.cpu).collect();

    let mut notes = vec![
        format!(
            "{} untraced pass(es) of {} job(s) on {} worker(s); medians over passes; pass walls {:.3?} s",
            passes.len(),
            jobs.len(),
            host.nproc,
            walls
        ),
        format!(
            "cell_s_p50 over {} job samples; setup_s median of {SETUP_REPEATS}",
            job_secs.len()
        ),
    ];

    let fam = passes[0].family_stats();
    if fam.cells > 0 {
        notes.push(format!(
            "fork tree, first pass: {} cells, {} epochs simulated, {} reused, {} forks, {} full matches, {} scratch",
            fam.cells, fam.epochs_simulated, fam.epochs_reused, fam.forks, fam.full_matches, fam.scratch
        ));
    }

    let mut per_layer = Vec::new();
    let mut spans = Vec::new();
    if opts.trace {
        let tracer = Tracer::new();
        let traced = pass::run_pass(&jobs, host.nproc, Some(&tracer));
        let (a, f) = check_pass(
            &traced,
            &jobs,
            &opts.workload,
            opts.seed,
            &expected,
            &mut digests,
            &mut errors,
        );
        attempted += a;
        failed += f;
        let base = passes.last().expect("one untraced pass ran");
        let totals = tracer.totals();
        per_layer = layer_metrics(&totals, base, &traced);
        notes.push(format!(
            "replay TLB miss frac {:.6} vs the traced runs' own {:.6} (they differ where policies remap pages)",
            ratio(totals.tlb_misses as f64, totals.ops as f64),
            ratio(totals.run_tlb_misses, totals.run_ops as f64)
        ));
        spans = tracer.spans();
        notes.push(format!(
            "traced pass: {:.3} s against {:.3} s untraced, {} spans",
            traced.wall,
            base.wall,
            spans.len()
        ));
    }

    let ok_frac = 1.0 - ratio(failed as f64, attempted as f64);
    let values = [
        median(&setup_secs),
        median(&walls),
        median(&throughput),
        median(&job_secs),
        median(&cpu),
        host::peak_rss_mb(),
        ok_frac,
    ];
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        end_to_end: END_TO_END.iter().copied().zip(values).collect(),
        per_layer,
        errors,
        notes,
        spans,
        host,
    })
}

/// Per-layer metrics from the traced pass's totals, the untraced pass
/// `base` (runner and fork-tree counters) and the traced pass itself.
fn layer_metrics(t: &Totals, base: &Pass, traced: &Pass) -> Vec<(Metric, f64)> {
    let ops = t.ops as f64;
    let s = |ns: u64| ns as f64 / 1e9;
    let mut on_epoch: Vec<f64> = t.on_epoch_ns.iter().map(|&n| n as f64 / 1e3).collect();
    on_epoch.sort_by(f64::total_cmp);
    let fam = base.family_stats();
    let reuse = fam.epochs_reused as f64;
    let values = [
        ratio(t.gen_ns as f64, ops),
        ratio(t.tlb_ns as f64, ops),
        ratio(t.tlb_misses as f64, ops),
        ratio(t.walk_ns as f64, t.tlb_misses as f64),
        ratio(1e3 * t.tlb_misses as f64, ops),
        ratio(t.walk_hits as f64, (t.walk_hits + t.walk_misses) as f64),
        ratio(t.fault_ns as f64, t.faults as f64),
        ratio(t.mem_ns as f64, t.mem_accesses as f64),
        ratio(t.l1_hits as f64, t.data_accesses as f64),
        ratio(t.dram as f64, t.mem_accesses as f64),
        ratio(t.dram_remote as f64, t.dram as f64),
        ratio(t.queue_cycles as f64, t.dram as f64),
        ratio(t.ibs_ns as f64, ops),
        t.ibs_samples as f64,
        ratio(t.pagestats_ns as f64, ops),
        median(&on_epoch),
        on_epoch.last().copied().unwrap_or(0.0),
        s(t.on_epoch_ns.iter().sum()),
        ratio(t.actions as f64, on_epoch.len() as f64),
        ratio(t.failed_actions as f64, t.actions as f64),
        s(t.run_ns),
        s(t.engine_self_ns()),
        ratio(t.run_ns as f64, t.run_ops as f64),
        s(t.checkpoint_ns),
        s(t.resume_ns),
        ratio(t.ckpt_bytes as f64, t.ckpts as f64),
        ratio(t.encode_ns as f64, t.ckpt_bytes as f64),
        ratio(t.decode_ns as f64, t.ckpt_bytes as f64),
        base.busy_frac(),
        base.tail_secs(),
        base.completed().map(|j| j.secs).fold(0.0, f64::max),
        ratio(reuse, reuse + fam.epochs_simulated as f64),
        fam.probe_secs,
        fam.replay_secs,
        fam.resume_secs,
        fam.scratch_secs,
        fam.forks as f64,
        fam.full_matches as f64,
        ratio(t.replay_ns() as f64, t.engine_self_ns() as f64),
        ratio(traced.wall, base.wall) - 1.0,
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    PER_LAYER.iter().map(|m| m.metric).zip(values).collect()
}

/// Formats a metric value for JSON, keeping every digit.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result file: host stamp, outcome and every metric, one per line.
pub fn result_json(opts: &Options, r: &Report) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"simbench-result-v1\",\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"trace\": {},\n  \"host\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n",
        host::esc(&opts.workload),
        opts.seed,
        opts.trace,
        r.host.to_json(),
        r.correct,
        r.attempted,
        r.failed
    );
    let all: Vec<_> = r.end_to_end.iter().chain(&r.per_layer).collect();
    for (i, (m, v)) in all.iter().enumerate() {
        let comma = if i + 1 < all.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}{comma}\n",
            m.name,
            json_num(*v),
            m.unit
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// The span file: one span per line.
pub fn spans_json(opts: &Options, r: &Report) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"simbench-spans-v1\",\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"host\": {},\n  \"spans\": [\n",
        host::esc(&opts.workload),
        opts.seed,
        r.host.to_json()
    );
    for (i, s) in r.spans.iter().enumerate() {
        let comma = if i + 1 < r.spans.len() { "," } else { "" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "    {{\"id\": {}, \"parent\": {parent}, \"cell\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{comma}\n",
            s.id, s.cell, s.name, s.start_ns, s.end_ns
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a result file written by [`result_json`]: its host line and
/// `(metric, value)` pairs.
pub fn parse_result(text: &str) -> Result<(String, Vec<(String, f64)>), String> {
    let host = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"host\": "))
        .map(|h| h.trim_end_matches(',').to_string())
        .ok_or("no host stamp")?;
    let mut metrics = Vec::new();
    for line in text.lines() {
        let l = line.trim();
        let Some((name, rest)) = l
            .strip_prefix('"')
            .and_then(|l| l.split_once("\": {\"value\": "))
        else {
            continue;
        };
        let v = rest
            .split(',')
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad value of {name}"))?;
        metrics.push((name.to_string(), v));
    }
    Ok((host, metrics))
}
