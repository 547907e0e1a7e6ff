//! The self-contained HTML suite report (`report` binary).
//!
//! Assembles everything the flight recorder and the runner leave behind —
//! per-epoch metric time-series from [`engine::recorder`], span profiling
//! from `results/BENCH_runner.json` (bench-runner-v8), the attribution
//! file, the crash journal, and the committed baseline — into **one**
//! HTML file with no external assets: styles are inline, charts are
//! hand-rolled inline SVG (the build is dependency-free, DESIGN.md §16).
//!
//! The report's time-series come from a fresh recorded run of the eleven
//! golden cells ([`crate::golden::GOLDEN_CELLS`]): the simulator is
//! deterministic, so re-running them here costs seconds and guarantees
//! the charts describe exactly the commit being reported on, not a stale
//! results file. Each cell's full series is also written out as
//! `results/metrics_<stem>.jsonl` (schema `metrics-v3`) for ad-hoc
//! grep/jq analysis next to the golden trace digests.
//!
//! The span section carries a self-check: per worker, busy (simulate +
//! merge) plus idle must re-compose the suite wall-clock to within 5 % —
//! the acceptance bound for the runner's span accounting. A failing
//! check renders loudly in the report and warns on stderr.

use crate::golden::GOLDEN_CELLS;
use codec::json::{self, JsonError, Value};
use engine::{MetricsSample, RunOptions, SimConfig, Simulation, VecRecorder};
use numa_topology::MachineSpec;
use std::path::Path;

/// One golden cell's recorded time-series.
pub struct CellSeries {
    /// Filename stem (`ua_b__carrefour_lp`), shared with the goldens.
    pub stem: String,
    /// Human title ("ua.B / carrefour-lp").
    pub title: String,
    /// One sample per epoch boundary, in epoch order.
    pub samples: Vec<MetricsSample>,
    /// The run's total wall cycles (the paper's runtime axis).
    pub runtime_cycles: u64,
}

/// Runs every golden cell with the metrics recorder on (attribution
/// enabled so the per-epoch ledger deltas are populated) and writes each
/// series to `<dir>/metrics_<stem>.jsonl`. Returns the in-memory series
/// in [`GOLDEN_CELLS`] order. A failed write warns, naming the path, and
/// keeps going: the HTML report can still be built from memory.
pub fn record_golden_cells(dir: &Path) -> Vec<CellSeries> {
    if let Err(e) = std::fs::create_dir_all(dir) {
        crate::logx::warn(&format!("could not create {}: {e}", dir.display()));
    }
    let machine = MachineSpec::machine_a();
    let jobs = crate::runner::resolve_jobs(None);
    crate::runner::par_map(jobs, GOLDEN_CELLS.len(), |i| {
        let cell = GOLDEN_CELLS[i];
        let mut config = SimConfig::for_machine(&machine, cell.kind.initial_thp());
        // Attribution is purely observational (DESIGN.md §11), so turning
        // it on here cannot change the run the charts describe.
        config.attribution = true;
        let spec = cell.bench.spec(&machine);
        let mut policy = cell.kind.make();
        let mut rec = VecRecorder::new();
        let opts = RunOptions {
            hook: Some(&mut rec),
            ..RunOptions::default()
        };
        let result = Simulation::run_with(&machine, &spec, &config, policy.as_mut(), opts).result();
        let stem = cell.stem();
        let path = dir.join(format!("metrics_{stem}.jsonl"));
        if let Err(e) = std::fs::write(&path, rec.to_jsonl()) {
            crate::logx::warn(&format!("could not write {}: {e}", path.display()));
        }
        CellSeries {
            stem,
            title: format!("{} / {}", cell.bench.name(), cell.kind.label()),
            samples: rec.samples,
            runtime_cycles: result.runtime_cycles,
        }
    })
}

/// One per-cell row of a `BENCH_runner.json` file. Span fields are zero
/// when absent (a pre-v5 baseline parses with empty spans).
#[derive(Clone, Debug, Default)]
pub struct RunnerCellRow {
    /// Machine name.
    pub machine: String,
    /// Benchmark label.
    pub benchmark: String,
    /// Policy label.
    pub policy: String,
    /// Simulate seconds (the span's simulate phase).
    pub wall_secs: f64,
    /// Seconds between suite start and worker pickup.
    pub pickup_secs: f64,
    /// Seconds in the post-simulate merge/journal/progress step.
    pub merge_secs: f64,
    /// Worker lane (first-pickup numbering).
    pub worker: usize,
    /// True when the row was restored from the crash journal.
    pub from_journal: bool,
}

/// The slice of a `BENCH_runner.json` file the report reads.
#[derive(Clone, Debug, Default)]
pub struct RunnerReport {
    /// Schema tag (`bench-runner-v8`; older tags parse too).
    pub schema: String,
    /// Suite wall-clock seconds.
    pub total_wall_secs: f64,
    /// Per-experiment `(name, owned wall seconds)`.
    pub experiments: Vec<(String, f64)>,
    /// Per-cell rows.
    pub cells: Vec<RunnerCellRow>,
}

/// Parses a `BENCH_runner.json` (any `bench-runner-v*` schema; span
/// fields default to zero when missing). Malformed JSON, or a document
/// without `schema`, `total_wall_secs`, `experiments` or `cells` — a
/// truncated or foreign file — is a typed [`JsonError`].
pub fn parse_runner_json(text: &str) -> Result<RunnerReport, JsonError> {
    let v = json::parse(text)?;
    let f64_or_zero = |row: &Value, key: &str| row.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let experiments = v
        .array_field("experiments")?
        .iter()
        .map(|e| Ok((e.str_field("name")?.to_string(), e.f64_field("wall_secs")?)))
        .collect::<Result<_, JsonError>>()?;
    let cells = v
        .array_field("cells")?
        .iter()
        .map(|c| {
            Ok(RunnerCellRow {
                machine: c.str_field("machine")?.to_string(),
                benchmark: c.str_field("benchmark")?.to_string(),
                policy: c.str_field("policy")?.to_string(),
                wall_secs: f64_or_zero(c, "wall_secs"),
                // Schemas before bench-runner-v7 call it `queue_wait_secs`.
                pickup_secs: c
                    .get("pickup_secs")
                    .or_else(|| c.get("queue_wait_secs"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0),
                merge_secs: f64_or_zero(c, "merge_secs"),
                worker: c.get("worker").and_then(Value::as_u64).unwrap_or(0) as usize,
                from_journal: c.get("from_journal") == Some(&Value::Bool(true)),
            })
        })
        .collect::<Result<_, JsonError>>()?;
    Ok(RunnerReport {
        schema: v.str_field("schema")?.to_string(),
        total_wall_secs: v.f64_field("total_wall_secs")?,
        experiments,
        cells,
    })
}

/// The per-experiment rows of the soft regression gate that
/// `all_experiments --compare` and the report share, in `now` order, as
/// `(name, baseline secs, now secs)`: only experiments that own cells in
/// both runs (a fully deduped `0.000` has no meaningful ratio).
pub fn baseline_deltas<'a>(
    base: &RunnerReport,
    now: &'a [(String, f64)],
) -> Vec<(&'a str, f64, f64)> {
    now.iter()
        .filter_map(|(name, now_secs)| {
            let (_, base_secs) = base.experiments.iter().find(|(n, _)| n == name)?;
            (*base_secs > 0.0 && *now_secs > 0.0).then_some((name.as_str(), *base_secs, *now_secs))
        })
        .collect()
}

/// The soft gate itself: `now` seconds are more than 25 % slower than
/// `base`. Wall-clock on shared runners is noisy, so it warns, never
/// fails.
pub fn regressed(base_secs: f64, now_secs: f64) -> bool {
    now_secs > base_secs * 1.25
}

/// One worker lane's share of the suite wall-clock.
#[derive(Clone, Debug)]
pub struct WorkerLane {
    /// Worker id (first-pickup numbering).
    pub worker: usize,
    /// Seconds spent simulating + merging on this lane.
    pub busy_secs: f64,
    /// `total - busy`, clamped at zero.
    pub idle_secs: f64,
    /// Indices into [`RunnerReport::cells`] run on this lane.
    pub cells: Vec<usize>,
}

/// The runner span decomposition: every worker lane's busy + idle split
/// of the suite wall-clock, journal-restored rows excluded (their work
/// happened in a dead process).
#[derive(Clone, Debug, Default)]
pub struct SpanBreakdown {
    /// Suite wall-clock seconds.
    pub total_wall_secs: f64,
    /// One lane per worker that picked up at least one cell.
    pub lanes: Vec<WorkerLane>,
    /// Last live-cell pickup to last live-cell completion
    /// ([`crate::runner::tail_secs`]).
    pub tail_secs: f64,
}

impl SpanBreakdown {
    /// Builds the decomposition from a parsed runner file.
    pub fn from_runner(r: &RunnerReport) -> SpanBreakdown {
        let mut lanes: Vec<WorkerLane> = Vec::new();
        for (i, c) in r.cells.iter().enumerate() {
            if c.from_journal {
                continue;
            }
            let lane = match lanes.iter_mut().find(|l| l.worker == c.worker) {
                Some(l) => l,
                None => {
                    lanes.push(WorkerLane {
                        worker: c.worker,
                        busy_secs: 0.0,
                        idle_secs: 0.0,
                        cells: Vec::new(),
                    });
                    lanes.last_mut().expect("just pushed")
                }
            };
            lane.busy_secs += c.wall_secs + c.merge_secs;
            lane.cells.push(i);
        }
        lanes.sort_by_key(|l| l.worker);
        for l in &mut lanes {
            l.idle_secs = (r.total_wall_secs - l.busy_secs).max(0.0);
        }
        let live = r.cells.iter().filter(|c| !c.from_journal);
        SpanBreakdown {
            total_wall_secs: r.total_wall_secs,
            lanes,
            tail_secs: crate::runner::tail_secs(
                live.map(|c| (c.pickup_secs, c.wall_secs + c.merge_secs)),
            ),
        }
    }

    /// The worst lane's relative error when its busy + idle split is
    /// summed back against the suite wall-clock. Zero by construction
    /// unless a lane's busy time *exceeds* the suite wall — which is
    /// exactly the accounting bug the 5 % acceptance bound exists to
    /// catch (spans double-counted, or anchored to the wrong clock).
    pub fn worst_error_fraction(&self) -> f64 {
        if self.total_wall_secs <= 0.0 {
            return if self.lanes.iter().any(|l| l.busy_secs > 0.0) {
                1.0
            } else {
                0.0
            };
        }
        self.lanes
            .iter()
            .map(|l| ((l.busy_secs + l.idle_secs) - self.total_wall_secs).abs())
            .fold(0.0_f64, f64::max)
            / self.total_wall_secs
    }

    /// Whether the decomposition re-composes the wall-clock within 5 %.
    pub fn within_bound(&self) -> bool {
        self.worst_error_fraction() <= 0.05
    }
}

/// Escapes text for HTML body and attribute positions.
fn hesc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// An inline SVG sparkline of `values` in sample order. Non-finite
/// values are dropped; an empty or constant series draws a flat midline
/// rather than dividing by zero.
pub fn sparkline(values: &[f64], w: u32, h: u32, stroke: &str) -> String {
    let vals: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (w_f, h_f) = (w as f64, h as f64);
    let pad = 2.0;
    let points = if vals.len() < 2 {
        format!(
            "{pad:.1},{:.1} {:.1},{:.1}",
            h_f / 2.0,
            w_f - pad,
            h_f / 2.0
        )
    } else {
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = if max > min { max - min } else { 1.0 };
        let dx = (w_f - 2.0 * pad) / (vals.len() - 1) as f64;
        vals.iter()
            .enumerate()
            .map(|(i, v)| {
                let x = pad + dx * i as f64;
                let y = if max > min {
                    pad + (h_f - 2.0 * pad) * (1.0 - (v - min) / span)
                } else {
                    h_f / 2.0
                };
                format!("{x:.1},{y:.1}")
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "<svg class=\"spark\" width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" \
         xmlns=\"http://www.w3.org/2000/svg\"><polyline points=\"{points}\" fill=\"none\" \
         stroke=\"{stroke}\" stroke-width=\"1.2\"/></svg>"
    )
}

/// Deterministic fill color for a benchmark label (timeline rects).
fn color_for(label: &str) -> &'static str {
    const PALETTE: [&str; 8] = [
        "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2", "#edc948", "#b07aa1", "#9c755f",
    ];
    let h: usize = label
        .bytes()
        .fold(0usize, |a, b| a.wrapping_mul(31) + b as usize);
    PALETTE[h % PALETTE.len()]
}

/// An inline SVG timeline: one horizontal lane per worker, one rect per
/// live cell from its pickup time (`pickup_secs`) for its simulate +
/// merge duration, colored by benchmark, with a hover `<title>`.
pub fn worker_timeline(bd: &SpanBreakdown, cells: &[RunnerCellRow], w: u32) -> String {
    let row_h = 16;
    let h = (bd.lanes.len() as u32) * row_h + 4;
    let total = if bd.total_wall_secs > 0.0 {
        bd.total_wall_secs
    } else {
        1.0
    };
    let mut rects = String::new();
    for (li, lane) in bd.lanes.iter().enumerate() {
        let y = li as u32 * row_h + 2;
        for &ci in &lane.cells {
            let c = &cells[ci];
            let x = c.pickup_secs / total * (w as f64 - 40.0) + 38.0;
            let width = ((c.wall_secs + c.merge_secs) / total * (w as f64 - 40.0)).max(1.0);
            rects.push_str(&format!(
                "<rect x=\"{x:.1}\" y=\"{y}\" width=\"{width:.1}\" height=\"{}\" fill=\"{}\">\
                 <title>{} / {} — pickup {:.3}s, sim {:.3}s, merge {:.3}s</title></rect>",
                row_h - 4,
                color_for(&c.benchmark),
                hesc(&c.benchmark),
                hesc(&c.policy),
                c.pickup_secs,
                c.wall_secs,
                c.merge_secs,
            ));
        }
        rects.push_str(&format!(
            "<text x=\"2\" y=\"{}\" font-size=\"10\" fill=\"#555\">w{}</text>",
            y + row_h - 7,
            lane.worker
        ));
    }
    format!(
        "<svg width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" \
         xmlns=\"http://www.w3.org/2000/svg\">{rects}</svg>"
    )
}

/// Formats the metric block of one series: label, min→max range, last
/// value, and the sparkline.
fn metric_block(label: &str, values: &[f64], stroke: &str) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (min, max, last) = if finite.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (
            finite.iter().copied().fold(f64::INFINITY, f64::min),
            finite.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            *finite.last().expect("non-empty"),
        )
    };
    format!(
        "<div class=\"metric\"><span class=\"mname\">{}</span>{}\
         <span class=\"mrange\">{min:.3} … {max:.3} (last {last:.3})</span></div>",
        hesc(label),
        sparkline(values, 220, 36, stroke),
    )
}

/// Assembles the full self-contained HTML document.
///
/// `journal` is `(ok_lines, panicked_lines)` from the suite's crash
/// journal when one exists; `attrib_present` notes whether
/// `results/ATTRIB_all.json` was found.
pub fn html_report(
    series: &[CellSeries],
    runner: Option<&RunnerReport>,
    baseline: Option<&RunnerReport>,
    attrib_present: bool,
    journal: Option<(usize, usize)>,
) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>Carrefour-LP flight recorder report</title><style>\
         body{font-family:system-ui,sans-serif;margin:2em auto;max-width:72em;color:#222}\
         h1,h2,h3{color:#123}table{border-collapse:collapse;margin:.5em 0}\
         td,th{border:1px solid #ccc;padding:.2em .6em;font-size:.9em;text-align:right}\
         th{background:#f2f5f8}td.l,th.l{text-align:left}\
         .metric{display:inline-block;margin:.3em 1em .3em 0;vertical-align:top}\
         .mname{display:block;font-size:.8em;color:#555}\
         .mrange{display:block;font-size:.7em;color:#888}\
         .spark{background:#fafcfe;border:1px solid #e5e9ee}\
         .pass{color:#186218;font-weight:bold}.fail{color:#a11;font-weight:bold}\
         .cell{border-top:1px solid #ddd;padding:.6em 0}\
         .note{color:#666;font-size:.85em}\
         </style></head><body>\n<h1>Carrefour-LP flight recorder report</h1>\n",
    );
    out.push_str(&format!(
        "<p class=\"note\">Recorded {} golden cells (schema metrics-v3); runner file: {}; \
         baseline: {}; attribution file: {}.</p>\n",
        series.len(),
        runner.map_or("absent".into(), |r| hesc(&r.schema)),
        baseline.map_or("absent".into(), |r| hesc(&r.schema)),
        if attrib_present { "present" } else { "absent" },
    ));
    if let Some((ok, bad)) = journal {
        out.push_str(&format!(
            "<p class=\"note\">Crash journal: {ok} ok line(s), {bad} failure line(s).</p>\n"
        ));
    }

    // §1 Paper metrics summary — the figures' end-state numbers per cell.
    out.push_str(
        "<h2>Paper metrics (end of run)</h2>\n<table><tr>\
         <th class=\"l\">cell</th><th>runtime (Gcycles)</th><th>final LAR</th>\
         <th>mean imbalance %</th><th>migrations</th><th>splits</th>\
         <th>PAMUP %</th><th>hot pages</th><th>PSP %</th></tr>\n",
    );
    for s in series {
        let mean_imb = if s.samples.is_empty() {
            0.0
        } else {
            s.samples.iter().map(|r| r.imbalance).sum::<f64>() / s.samples.len() as f64
        };
        let migr: u64 = s.samples.iter().map(|r| r.migrations).sum();
        let splits: u64 = s.samples.iter().map(|r| r.splits).sum();
        let last = s.samples.last();
        let pages = last.and_then(|r| r.pages);
        out.push_str(&format!(
            "<tr><td class=\"l\">{}</td><td>{:.3}</td><td>{:.3}</td><td>{:.1}</td>\
             <td>{migr}</td><td>{splits}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            hesc(&s.title),
            s.runtime_cycles as f64 / 1e9,
            last.map_or(0.0, |r| r.lar),
            mean_imb,
            pages.map_or("—".into(), |p| format!("{:.1}", p.pamup)),
            pages.map_or("—".into(), |p| p.nhp.to_string()),
            pages.map_or("—".into(), |p| format!("{:.1}", p.psp)),
        ));
    }
    out.push_str("</table>\n");

    // §2 Per-cell time-series.
    out.push_str("<h2>Per-epoch time-series (golden cells)</h2>\n");
    for s in series {
        out.push_str(&format!(
            "<div class=\"cell\"><h3>{}</h3>\n",
            hesc(&s.title)
        ));
        let f = |g: fn(&MetricsSample) -> f64| s.samples.iter().map(g).collect::<Vec<f64>>();
        out.push_str(&metric_block("imbalance %", &f(|r| r.imbalance), "#e15759"));
        out.push_str(&metric_block("LAR", &f(|r| r.lar), "#4e79a7"));
        out.push_str(&metric_block(
            "TLB hit rate",
            &f(MetricsSample::tlb_hit_rate),
            "#59a14f",
        ));
        out.push_str(&metric_block(
            "walk-cache hit rate",
            &f(MetricsSample::walk_cache_hit_rate),
            "#76b7b2",
        ));
        out.push_str(&metric_block(
            "epoch cycles",
            &f(|r| r.epoch_cycles as f64),
            "#b07aa1",
        ));
        out.push_str(&metric_block(
            "walk-miss fraction",
            &f(|r| r.walk_miss_fraction),
            "#f28e2b",
        ));
        if s.samples.iter().any(|r| r.pages.is_some()) {
            let g = |h: fn(&engine::PageSnapshot) -> f64| {
                s.samples
                    .iter()
                    .map(|r| r.pages.as_ref().map_or(f64::NAN, h))
                    .collect::<Vec<f64>>()
            };
            out.push_str(&metric_block("PAMUP %", &g(|p| p.pamup), "#edc948"));
            out.push_str(&metric_block("PSP %", &g(|p| p.psp), "#9c755f"));
        }
        if s.samples.iter().any(|r| r.attrib.is_some()) {
            let policy_cycles: Vec<f64> = s
                .samples
                .iter()
                .map(|r| {
                    r.attrib.as_ref().map_or(f64::NAN, |b| {
                        (b.policy_migration + b.policy_split + b.policy_replication) as f64
                    })
                })
                .collect();
            out.push_str(&metric_block("policy cycles/epoch", &policy_cycles, "#555"));
        }
        out.push_str("</div>\n");
    }

    // §3 Runner span breakdown.
    out.push_str("<h2>Runner span breakdown</h2>\n");
    match runner {
        None => out.push_str(
            "<p class=\"note\">No results/BENCH_runner.json found — run \
             <code>all_experiments</code> first for the span section.</p>\n",
        ),
        Some(r) => {
            let bd = SpanBreakdown::from_runner(r);
            let busy: f64 = bd.lanes.iter().map(|l| l.busy_secs).sum();
            out.push_str(&format!(
                "<p>Suite wall-clock <b>{:.3}s</b> across {} worker lane(s); busy \
                 {busy:.3}s, tail {:.3}s.</p>\n",
                bd.total_wall_secs,
                bd.lanes.len(),
                bd.tail_secs,
            ));
            out.push_str(&worker_timeline(&bd, &r.cells, 900));
            out.push_str(
                "<table><tr><th>worker</th><th>busy s</th><th>idle s</th>\
                 <th>cells</th><th>busy+idle vs wall</th></tr>\n",
            );
            for l in &bd.lanes {
                let err = if bd.total_wall_secs > 0.0 {
                    ((l.busy_secs + l.idle_secs) - bd.total_wall_secs).abs() / bd.total_wall_secs
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "<tr><td>w{}</td><td>{:.3}</td><td>{:.3}</td><td>{}</td>\
                     <td>{:.1}%</td></tr>\n",
                    l.worker,
                    l.busy_secs,
                    l.idle_secs,
                    l.cells.len(),
                    err * 100.0
                ));
            }
            out.push_str("</table>\n");
            let (class, verdict) = if bd.within_bound() {
                ("pass", "PASS")
            } else {
                ("fail", "FAIL")
            };
            out.push_str(&format!(
                "<p>Span self-check (every lane re-composes the wall-clock within 5%): \
                 <span class=\"{class}\">{verdict}</span> — worst lane error {:.2}%.</p>\n",
                bd.worst_error_fraction() * 100.0
            ));
        }
    }

    // §4 Regression deltas vs the committed baseline.
    out.push_str("<h2>Regression deltas vs baseline</h2>\n");
    match (runner, baseline) {
        (Some(now), Some(base)) => {
            out.push_str(
                "<table><tr><th class=\"l\">experiment</th><th>baseline s</th>\
                 <th>now s</th><th>ratio</th><th class=\"l\"></th></tr>\n",
            );
            for (name, base_secs, now_secs) in baseline_deltas(base, &now.experiments) {
                let flag = if regressed(base_secs, now_secs) {
                    "<span class=\"fail\">REGRESSION</span>"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "<tr><td class=\"l\">{}</td><td>{base_secs:.3}</td>\
                     <td>{now_secs:.3}</td><td>{:.2}x</td><td class=\"l\">{flag}</td></tr>\n",
                    hesc(name),
                    base_secs / now_secs,
                ));
            }
            out.push_str("</table>\n");
            out.push_str(&format!(
                "<p class=\"note\">Totals: baseline {:.3}s → now {:.3}s. Wall-clock \
                 comparisons on shared runners are noisy — these are the same soft gates \
                 <code>--compare</code> prints.</p>\n",
                base.total_wall_secs, now.total_wall_secs,
            ));
        }
        _ => out.push_str(
            "<p class=\"note\">Baseline comparison needs both results/BENCH_runner.json \
             and results/BENCH_baseline.json.</p>\n",
        ),
    }

    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_handles_degenerate_series() {
        for vals in [&[][..], &[1.0][..], &[2.0, 2.0, 2.0][..], &[f64::NAN][..]] {
            let svg = sparkline(vals, 100, 20, "#000");
            assert!(svg.starts_with("<svg"), "{svg}");
            assert!(!svg.contains("NaN"), "{svg}");
        }
        let svg = sparkline(&[0.0, 1.0, 0.5], 100, 20, "#000");
        assert!(svg.contains("polyline"));
    }

    fn synthetic_v5() -> String {
        concat!(
            "{\n",
            "  \"schema\": \"bench-runner-v5\",\n",
            "  \"total_wall_secs\": 10.000,\n",
            "  \"epochs_reused\": 7,\n",
            "  \"experiments\": [\n",
            "    {\"name\": \"fig2\", \"cells\": 4, \"reused_cells\": 0, \"wall_secs\": 6.000},\n",
            "    {\"name\": \"fig3\", \"cells\": 2, \"reused_cells\": 2, \"wall_secs\": 0.000}\n",
            "  ],\n",
            "  \"cells\": [\n",
            "    {\"machine\": \"machine-a\", \"benchmark\": \"ua.B\", \"policy\": \"linux-4k\", \"wall_secs\": 6.000, \"estimated_ops\": 5, \"actual_ops\": 5, \"queue_wait_secs\": 0.100, \"merge_secs\": 0.010, \"worker\": 0, \"lanes_free_start\": 2, \"from_journal\": false},\n",
            "    {\"machine\": \"machine-a\", \"benchmark\": \"cg.D\", \"policy\": \"carrefour-lp\", \"wall_secs\": 3.000, \"estimated_ops\": 5, \"actual_ops\": 5, \"queue_wait_secs\": 0.200, \"merge_secs\": 0.020, \"worker\": 1, \"lanes_free_start\": 2, \"from_journal\": false},\n",
            "    {\"machine\": \"machine-a\", \"benchmark\": \"cg.D\", \"policy\": \"linux-thp\", \"wall_secs\": 9.000, \"estimated_ops\": 5, \"actual_ops\": 5, \"queue_wait_secs\": 0.000, \"merge_secs\": 0.000, \"worker\": 0, \"lanes_free_start\": 0, \"from_journal\": true}\n",
            "  ]\n}\n"
        )
        .to_string()
    }

    #[test]
    fn runner_json_round_trips() {
        let r = parse_runner_json(&synthetic_v5()).expect("parses");
        assert_eq!(r.schema, "bench-runner-v5");
        assert_eq!(r.total_wall_secs, 10.0);
        assert_eq!(r.experiments.len(), 2);
        assert_eq!(r.experiments[0], ("fig2".to_string(), 6.0));
        assert_eq!(r.cells.len(), 3);
        assert_eq!(r.cells[1].worker, 1);
        assert_eq!(r.cells[1].pickup_secs, 0.2, "v5 names it queue_wait_secs");
        assert!(r.cells[2].from_journal);
        let e = parse_runner_json("not json at all").unwrap_err();
        assert_eq!(e.offset, 1, "{e}");
        let e = parse_runner_json("{\"schema\": \"bench-runner-v8\"}").unwrap_err();
        assert_eq!(e, JsonError::missing("experiments"));
        let v8 = synthetic_v5()
            .replace("bench-runner-v5", "bench-runner-v8")
            .replace("queue_wait_secs", "pickup_secs");
        let r8 = parse_runner_json(&v8).expect("parses");
        assert_eq!(r8.cells[1].pickup_secs, 0.2);
    }

    #[test]
    fn span_breakdown_excludes_journal_rows_and_passes_bound() {
        let r = parse_runner_json(&synthetic_v5()).expect("parses");
        let bd = SpanBreakdown::from_runner(&r);
        // The journal-restored 9s cell on worker 0 must not count.
        assert_eq!(bd.lanes.len(), 2);
        assert!((bd.lanes[0].busy_secs - 6.01).abs() < 1e-9);
        assert!((bd.lanes[1].busy_secs - 3.02).abs() < 1e-9);
        // Last pickup at 0.2 s; the worker-0 cell ends last, at 6.11 s.
        assert!((bd.tail_secs - 5.91).abs() < 1e-9, "tail {}", bd.tail_secs);
        assert!(bd.within_bound(), "err {}", bd.worst_error_fraction());
        // A lane busier than the suite wall must fail the bound.
        let mut broken = r.clone();
        broken.total_wall_secs = 5.0;
        let bd = SpanBreakdown::from_runner(&broken);
        assert!(!bd.within_bound());
    }

    #[test]
    fn checked_in_v5_baseline_still_parses() {
        let text = include_str!("../../../results/BENCH_baseline.json");
        let r = parse_runner_json(text).expect("parses");
        assert_eq!(r.schema, "bench-runner-v5");
        assert!(r.total_wall_secs > 0.0);
        assert!(!r.experiments.is_empty() && !r.cells.is_empty());
        let bd = SpanBreakdown::from_runner(&r);
        assert!(bd.tail_secs > 0.0 && bd.tail_secs <= r.total_wall_secs);
    }

    #[test]
    fn html_report_is_standalone_and_escaped() {
        let series = vec![CellSeries {
            stem: "x".into(),
            title: "ua.B / <tag> & \"quote\"".into(),
            samples: Vec::new(),
            runtime_cycles: 1_000_000,
        }];
        let r = parse_runner_json(&synthetic_v5()).expect("parses");
        let html = html_report(&series, Some(&r), Some(&r), true, Some((3, 1)));
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("&lt;tag&gt; &amp; &quot;quote&quot;"));
        assert!(!html.contains("<tag>"));
        assert!(html.contains("<svg"), "at least the timeline renders");
        assert!(html.contains("PASS"));
        assert!(!html.contains("href="), "no external assets");
        assert!(!html.contains("src="), "no external assets");
    }
}
