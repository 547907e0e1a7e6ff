//! One pass: the workload's whole job list on the bench runner, in a
//! closed loop — each worker picks up its next job only after finishing
//! the current one.

use crate::cells::{label, Job};
use crate::layers::Tracer;
use carrefour_bench::forktree::{self, FamilyStats};
use carrefour_bench::runner::{self, CellOutcome};
use engine::SimResult;
use std::time::Instant;

/// A job that takes longer than this many host seconds counts as failed.
pub const JOB_DEADLINE_SECS: f64 = 120.0;

/// What one job produced and where its time went.
pub struct JobRun {
    /// Labelled results; a label repeats when the job produced the same
    /// cell more than once (traced runs), and repeats must agree.
    pub cells: Vec<(String, SimResult)>,
    /// Fork-tree counters of a family job.
    pub family: Option<FamilyStats>,
    /// Seconds from the pass start to this job's pickup.
    pub pickup: f64,
    /// Host seconds the job ran.
    pub secs: f64,
}

/// One pass over the job list.
pub struct Pass {
    /// Host seconds, submission to the last job's end.
    pub wall: f64,
    /// Process CPU seconds (user + system) spent in the pass.
    pub cpu: f64,
    /// Workers the runner was given.
    pub workers: usize,
    /// One outcome per job, in job order.
    pub jobs: Vec<CellOutcome<JobRun>>,
}

impl Pass {
    /// Simulated operations of every cell result the pass produced once
    /// (repeats from traced work are not counted twice).
    pub fn total_ops(&self) -> u64 {
        self.completed()
            .flat_map(|j| {
                let mut seen = std::collections::BTreeSet::new();
                j.cells
                    .iter()
                    .filter(move |(l, _)| seen.insert(l.clone()))
                    .map(|(_, r)| r.lifetime.total_ops)
                    .collect::<Vec<_>>()
            })
            .sum()
    }

    /// The jobs that returned a result.
    pub fn completed(&self) -> impl Iterator<Item = &JobRun> {
        self.jobs.iter().filter_map(CellOutcome::result)
    }

    /// Share of worker time spent running jobs.
    pub fn busy_frac(&self) -> f64 {
        let busy: f64 = self.completed().map(|j| j.secs).sum();
        busy / (self.workers as f64 * self.wall).max(f64::MIN_POSITIVE)
    }

    /// Seconds from the last pickup to the end of the pass.
    pub fn tail_secs(&self) -> f64 {
        let last = self.completed().map(|j| j.pickup).fold(0.0, f64::max);
        self.wall - last
    }

    /// Fork-tree counters of every family in the pass.
    pub fn family_stats(&self) -> FamilyStats {
        let mut total = FamilyStats::default();
        for s in self.completed().filter_map(|j| j.family.as_ref()) {
            total.absorb(s);
        }
        total
    }
}

/// Runs `jobs` on `workers` runner workers, longest estimate first. With
/// a tracer, each job runs its traced variant.
pub fn run_pass(jobs: &[Job], workers: usize, tracer: Option<&Tracer>) -> Pass {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    let est: Vec<u64> = jobs.iter().map(Job::estimated_ops).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(est[i]));
    let cpu0 = crate::host::cpu_seconds();
    let start = Instant::now();
    // The runner's watchdog thread wakes every 100 ms and the pass waits
    // for it, which would round every pass wall up to that tick. The
    // deadline is applied here instead, when each job completes, exactly
    // as the runner flags `TimedOut`.
    let outcomes = runner::par_map_outcomes_scheduled(
        workers,
        jobs.len(),
        0.0,
        Some(order),
        |i| label(jobs[i].lead()),
        |i| {
            let pickup = start.elapsed().as_secs_f64();
            let t = Instant::now();
            let (cells, family) = match tracer {
                Some(tr) => tr.run_job(i, &jobs[i]),
                None => run_job(&jobs[i]),
            };
            JobRun {
                cells,
                family,
                pickup,
                secs: t.elapsed().as_secs_f64(),
            }
        },
    );
    let wall = start.elapsed().as_secs_f64();
    let jobs = outcomes
        .into_iter()
        .map(|o| match o {
            CellOutcome::Ok(run) if run.secs > JOB_DEADLINE_SECS => CellOutcome::TimedOut {
                secs: run.secs,
                result: run,
            },
            o => o,
        })
        .collect();
    Pass {
        wall,
        cpu: crate::host::cpu_seconds() - cpu0,
        workers,
        jobs,
    }
}

/// The untraced job: the cell through `runner::run_spec`, or the family
/// through `forktree::run_family`.
pub(crate) fn run_job(job: &Job) -> (Vec<(String, SimResult)>, Option<FamilyStats>) {
    match job {
        Job::Cell(spec) => (vec![(label(spec), runner::run_spec(spec))], None),
        Job::Family(specs) => {
            let (ran, stats) = forktree::run_family(specs, false);
            let cells = specs
                .iter()
                .zip(ran)
                .map(|(s, c)| (label(s), c.result))
                .collect();
            (cells, Some(stats))
        }
    }
}
