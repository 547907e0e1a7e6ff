//! The work-distributing experiment runner.
//!
//! Every figure/table binary used to fan its (workload × policy × machine)
//! cells out with ad-hoc `thread::scope` blocks — one unbounded thread per
//! cell, no progress reporting, no way to cap parallelism. This module
//! replaces those with one shared pool:
//!
//! * [`CellSpec`] names one simulation cell completely — workload, policy,
//!   machine, optional seed override, optional fault plan — so every
//!   experiment submits work in the same currency;
//! * [`par_map`] executes `n` independent jobs on a scoped worker pool
//!   (`std::thread::scope`, no external dependencies — the build is
//!   offline) and returns results in **submission order**, whatever order
//!   the workers finished in;
//! * [`Progress`] prints live `done/total` lines to stderr as cells
//!   complete, shared by the figure bins, `chaos`, and `trace`;
//! * [`resolve_jobs`] implements the worker-count override chain:
//!   `--jobs N` on the command line, then the `CARREFOUR_JOBS` environment
//!   variable, then [`std::thread::available_parallelism`].
//!
//! # Determinism
//!
//! The simulator is fully deterministic in `(spec, config)`: each cell owns
//! its RNG (seeded from the config), its address space, and its policy
//! object, and shares nothing mutable with its siblings. Worker threads
//! only choose *which* cell runs where and when — they never touch what a
//! cell computes — and results land in a slot indexed by submission
//! position. A run at `--jobs 1` and a run at `--jobs 64` therefore return
//! bit-identical `Vec<Cell>`s (enforced by the equivalence proptest in
//! `tests/runner_equivalence.rs` and by the golden digests).

use crate::{run_cell, Cell, PolicyKind};
use carrefour::{CarrefourLp, LpParams};
use engine::{FaultConfig, NumaPolicy, SimConfig, SimResult, Simulation};
use numa_topology::MachineSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use workloads::{Benchmark, WorkloadSpec};

/// The workload half of a cell: a named suite benchmark (its spec is
/// derived per machine) or a fully explicit spec (tests, chaos probes).
#[derive(Clone, Debug)]
pub enum Workload {
    /// One of the paper's suite benchmarks.
    Bench(Benchmark),
    /// An explicit workload spec, used as-is on any machine.
    Custom(WorkloadSpec),
}

impl Workload {
    /// Display name (what the `benchmark` column of a [`Cell`] shows).
    pub fn name(&self) -> String {
        match self {
            Workload::Bench(b) => b.name().to_string(),
            Workload::Custom(s) => s.name.clone(),
        }
    }

    /// The concrete spec to simulate on `machine`.
    pub fn spec(&self, machine: &MachineSpec) -> WorkloadSpec {
        match self {
            Workload::Bench(b) => b.spec(machine),
            Workload::Custom(s) => s.clone(),
        }
    }
}

/// One fully described simulation cell. Two equal `CellSpec`s always
/// produce equal [`SimResult`]s (the simulator is deterministic), which is
/// what makes cross-experiment dedup in `all_experiments` sound.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// The machine model.
    pub machine: MachineSpec,
    /// The workload.
    pub workload: Workload,
    /// The policy under test.
    pub kind: PolicyKind,
    /// Override of `SimConfig::seed` (`None` = the standard seed).
    pub seed: Option<u64>,
    /// Fault plan (`None` = fault-free).
    pub faults: Option<FaultConfig>,
    /// Override of the result's policy label (`None` = `kind.label()`).
    /// `chaos` uses this to tag cells with their fault rate.
    pub label: Option<String>,
    /// Override of the policy's tunables: when set, the cell runs
    /// `CarrefourLp::with_params` instead of `kind.make()` (`kind` still
    /// supplies the initial THP state and the default label). This is the
    /// sweep's axis — everything *else* about such cells is shared.
    pub lp_params: Option<LpParams>,
    /// Opt-in tag for prefix-sharing: cells carrying the same family tag
    /// (and, necessarily, the same [`CellSpec::family_key`]) are simulated
    /// as one fork tree — a probe runs in full, siblings resume from the
    /// deepest checkpoint before their first divergent policy decision.
    /// `None` (everywhere outside the sweep) keeps the plain per-cell path.
    pub family: Option<String>,
}

impl CellSpec {
    /// A plain (machine, benchmark, policy) cell — the common case.
    pub fn new(machine: MachineSpec, bench: Benchmark, kind: PolicyKind) -> Self {
        CellSpec {
            machine,
            workload: Workload::Bench(bench),
            kind,
            seed: None,
            faults: None,
            label: None,
            lp_params: None,
            family: None,
        }
    }

    /// The policy label this cell's results carry.
    pub fn policy_label(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| self.kind.label().to_string())
    }

    /// Short human-readable tag for progress lines.
    pub fn describe(&self) -> String {
        format!(
            "{}/{} on {}",
            self.workload.name(),
            self.policy_label(),
            self.machine.name()
        )
    }

    /// [`CellSpec::describe`] plus the family tag when present — the
    /// runner's panic and watchdog lines use this so fork-tree failures
    /// can be grepped by family.
    pub fn describe_with_family(&self) -> String {
        match &self.family {
            Some(f) => format!("{} [family {f}]", self.describe()),
            None => self.describe(),
        }
    }

    /// Dedup key: two cells with equal keys are guaranteed (by
    /// determinism) to produce equal results. `Debug` formatting covers
    /// every field that feeds the simulation.
    pub fn key(&self) -> String {
        let mut k = format!(
            "{}|{:?}|{:?}|{:?}|{:?}",
            self.machine.name(),
            self.workload,
            self.kind,
            self.seed,
            self.faults
        );
        // Appended only when present so every pre-existing cell keeps its
        // exact historical key (journals from older suite runs stay
        // resumable). `family` is deliberately absent: it groups execution,
        // it never changes what a cell computes.
        if let Some(p) = &self.lp_params {
            k.push_str(&format!("|{p:?}"));
        }
        k
    }

    /// The sharing-compatibility key: everything that must agree for two
    /// cells to be simulated as one fork-tree family — machine, workload,
    /// seed, fault plan, and initial THP state (different THP switches mean
    /// different `SimConfig`s, hence different checkpoint fingerprints).
    /// Policy identity and parameters are deliberately excluded: they are
    /// the axis the family sweeps. `None` unless the cell opted in via
    /// [`CellSpec::family`].
    pub fn family_key(&self) -> Option<String> {
        self.family.as_ref().map(|f| {
            format!(
                "{f}|{}|{:?}|{:?}|{:?}|{:?}",
                self.machine.name(),
                self.workload,
                self.seed,
                self.faults,
                self.kind.initial_thp()
            )
        })
    }

    /// The policy instance this cell runs: the parameterized Carrefour-LP
    /// when [`CellSpec::lp_params`] is set, `kind.make()` otherwise.
    pub fn make_policy(&self) -> Box<dyn NumaPolicy> {
        match self.lp_params {
            Some(p) => Box::new(CarrefourLp::with_params(p)),
            None => self.kind.make(),
        }
    }

    /// The `SimConfig` this cell runs under: the per-machine config for
    /// `kind`'s initial THP state, with the suite's attribution switch and
    /// this cell's seed/fault overrides applied.
    pub fn sim_config(&self) -> SimConfig {
        let mut config = SimConfig::for_machine(&self.machine, self.kind.initial_thp());
        config.attribution = crate::attrib_enabled();
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        if let Some(faults) = self.faults {
            config.faults = faults;
        }
        config
    }

    /// Estimated simulated memory operations this cell will execute:
    /// allocation-phase ops (one per 4 KiB page of the footprint) plus
    /// compute ops (`ops_per_round × threads × rounds`). Drives the
    /// longest-first schedule and the estimate-vs-actual columns of
    /// `BENCH_runner.json`; purely observational — scheduling never
    /// changes what a cell computes.
    pub fn estimated_ops(&self) -> u64 {
        let spec = self.workload.spec(&self.machine);
        spec.footprint_pages()
            + spec.ops_per_round * spec.threads as u64 * u64::from(spec.total_compute_rounds())
    }
}

/// Runs one cell spec. Identical to [`run_cell`] for plain cells; seed
/// and fault overrides are applied to the per-machine config first.
pub fn run_spec(spec: &CellSpec) -> SimResult {
    if spec.seed.is_none() && spec.faults.is_none() && spec.lp_params.is_none() {
        if let Workload::Bench(b) = spec.workload {
            let mut r = run_cell(&spec.machine, b, spec.kind);
            r.policy = spec.policy_label();
            return r;
        }
    }
    let config = spec.sim_config();
    let wspec = spec.workload.spec(&spec.machine);
    let mut policy = spec.make_policy();
    let mut r = Simulation::run(&spec.machine, &wspec, &config, policy.as_mut());
    r.policy = spec.policy_label();
    r
}

/// Parses `--jobs N` / `--jobs=N` out of the process arguments.
pub fn jobs_from_args() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            return it.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = a.strip_prefix("--jobs=") {
            return v.parse().ok();
        }
    }
    None
}

/// Resolves the worker count: explicit CLI value, then `CARREFOUR_JOBS`,
/// then the host's available parallelism. Always at least 1. An
/// unparseable `CARREFOUR_JOBS` warns on stderr and falls back to auto
/// (via [`engine::env_override_u32`]) rather than silently serializing.
pub fn resolve_jobs(cli: Option<usize>) -> usize {
    cli.or_else(|| engine::env_override_u32("CARREFOUR_JOBS").map(|v| v as usize))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .max(1)
}

/// The default worker count for a binary: `--jobs` from its arguments,
/// then the environment, then all host cores.
pub fn default_jobs() -> usize {
    resolve_jobs(jobs_from_args())
}

/// How one isolated job ended.
///
/// The pool wraps every job in `catch_unwind`, so a panicking cell is a
/// *report*, not a suite abort: the remaining cells still run, and the
/// caller decides what a failure costs (the figure binaries re-raise, the
/// suite runner lists failures and exits nonzero).
#[derive(Debug)]
pub enum CellOutcome<T> {
    /// The job completed within the soft deadline.
    Ok(T),
    /// The job panicked; `msg` is the panic payload (the default panic
    /// hook has already printed location and backtrace to stderr).
    Panicked {
        /// The panic payload, when it was a string (they all are, here).
        msg: String,
    },
    /// The job completed but blew past the soft deadline — the result is
    /// still valid (the watchdog never kills work), the overrun is flagged.
    TimedOut {
        /// Host seconds the job actually took.
        secs: f64,
        /// The completed result.
        result: T,
    },
}

impl<T> CellOutcome<T> {
    /// The completed result, if any (`TimedOut` results are valid).
    pub fn into_result(self) -> Option<T> {
        match self {
            CellOutcome::Ok(v) | CellOutcome::TimedOut { result: v, .. } => Some(v),
            CellOutcome::Panicked { .. } => None,
        }
    }

    /// Borrowing variant of [`CellOutcome::into_result`].
    pub fn result(&self) -> Option<&T> {
        match self {
            CellOutcome::Ok(v) | CellOutcome::TimedOut { result: v, .. } => Some(v),
            CellOutcome::Panicked { .. } => None,
        }
    }

    /// Whether the job panicked.
    pub fn is_panicked(&self) -> bool {
        matches!(self, CellOutcome::Panicked { .. })
    }
}

/// Renders a caught panic payload (panics in this codebase are always
/// `&str` or `String` — `panic!` with a format string).
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The soft per-cell deadline in host seconds (`CARREFOUR_CELL_DEADLINE_SECS`,
/// default 300). `0` disables the watchdog entirely.
pub fn cell_deadline_secs() -> f64 {
    std::env::var("CARREFOUR_CELL_DEADLINE_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300.0)
}

/// Panic-isolating variant of [`par_map`]: executes `f(0..n)` on up to
/// `jobs` scoped workers and returns one [`CellOutcome`] per index, **in
/// index order**. A panicking job is caught and reported in its slot while
/// the rest of the queue drains normally. A soft watchdog thread warns on
/// stderr when a running job exceeds `deadline_secs` (never killing it);
/// jobs that finish past the deadline come back as
/// [`CellOutcome::TimedOut`]. `describe(i)` labels job `i` in warnings.
pub fn par_map_outcomes<T, F, D>(
    jobs: usize,
    n: usize,
    deadline_secs: f64,
    describe: D,
    f: F,
) -> Vec<CellOutcome<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    D: Fn(usize) -> String + Sync,
{
    par_map_outcomes_scheduled(jobs, n, deadline_secs, None, describe, f)
}

/// [`par_map_outcomes`] with an explicit execution order: workers pull
/// indices from `schedule` (a permutation of `0..n`) front to back
/// instead of `0, 1, 2, …`. Results still land **in index order** —
/// scheduling only decides where and when each index runs, never what it
/// computes, so any schedule returns bit-identical results (the
/// longest-first proptest in `tests/runner_equivalence.rs` enforces
/// this).
pub fn par_map_outcomes_scheduled<T, F, D>(
    jobs: usize,
    n: usize,
    deadline_secs: f64,
    schedule: Option<Vec<usize>>,
    describe: D,
    f: F,
) -> Vec<CellOutcome<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    D: Fn(usize) -> String + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    if let Some(order) = &schedule {
        debug_assert_eq!(order.len(), n, "schedule must cover every index");
    }

    // Start timestamps of in-flight jobs, for the watchdog.
    let started: Vec<Mutex<Option<Instant>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let all_done = AtomicBool::new(false);
    let run_one = |i: usize| -> CellOutcome<T> {
        let t = Instant::now();
        *started[i].lock().unwrap() = Some(t);
        let caught = catch_unwind(AssertUnwindSafe(|| f(i)));
        *started[i].lock().unwrap() = None;
        match caught {
            Ok(v) => {
                let secs = t.elapsed().as_secs_f64();
                if deadline_secs > 0.0 && secs > deadline_secs {
                    CellOutcome::TimedOut { secs, result: v }
                } else {
                    CellOutcome::Ok(v)
                }
            }
            Err(p) => {
                let msg = panic_message(p.as_ref());
                crate::logx::warn(&format!("[runner] cell {} panicked: {msg}", describe(i)));
                CellOutcome::Panicked { msg }
            }
        }
    };

    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            let i = schedule.as_ref().map_or(k, |o| o[k]);
            out.push((i, run_one(i)));
        }
        out.sort_by_key(|(i, _)| *i);
        return out.into_iter().map(|(_, o)| o).collect();
    }
    let next = AtomicUsize::new(0);
    let mut chunks: Vec<Vec<(usize, CellOutcome<T>)>> = std::thread::scope(|s| {
        if deadline_secs > 0.0 {
            // The soft watchdog: warn (once per cell) when a running cell
            // blows past the deadline. It flags, it never kills — the cell
            // keeps running and reports `TimedOut` when it completes.
            let started = &started;
            let all_done = &all_done;
            let describe = &describe;
            s.spawn(move || {
                let mut warned = vec![false; n];
                while !all_done.load(Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    for (i, w) in warned.iter_mut().enumerate() {
                        if *w {
                            continue;
                        }
                        let overdue = started[i]
                            .lock()
                            .unwrap()
                            .is_some_and(|t0| t0.elapsed().as_secs_f64() > deadline_secs);
                        if overdue {
                            *w = true;
                            crate::logx::warn(&format!(
                                "[runner] watchdog: cell {} still running after {deadline_secs:.0}s",
                                describe(i)
                            ));
                        }
                    }
                }
            });
        }
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let run_one = &run_one;
                let schedule = &schedule;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            return out;
                        }
                        let i = schedule.as_ref().map_or(k, |o| o[k]);
                        out.push((i, run_one(i)));
                    }
                })
            })
            .collect();
        let chunks = handles
            .into_iter()
            .map(|h| h.join().expect("runner worker panicked"))
            .collect();
        all_done.store(true, Ordering::Relaxed);
        chunks
    });
    // Reassemble in submission order: scheduling decided only *where* each
    // index ran, never what it computed.
    let mut slots: Vec<Option<CellOutcome<T>>> = (0..n).map(|_| None).collect();
    for chunk in &mut chunks {
        for (i, v) in chunk.drain(..) {
            debug_assert!(slots[i].is_none(), "index {i} computed twice");
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("runner lost a job"))
        .collect()
}

/// Executes `f(0..n)` on up to `jobs` scoped worker threads and returns
/// the results **in index order**. Workers pull indices from a shared
/// atomic counter (dynamic load balancing: a slow cell never blocks the
/// queue). A panicking job no longer aborts its siblings: the remaining
/// jobs run to completion first, then the first panic is re-raised with
/// its slot index. With `jobs <= 1` the closure runs inline on the
/// caller's thread — the strictly sequential path CI keeps covered.
pub fn par_map<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let outcomes = par_map_outcomes(jobs, n, 0.0, |i| format!("#{i}"), f);
    let mut out = Vec::with_capacity(n);
    let mut first_panic: Option<(usize, String)> = None;
    for (i, o) in outcomes.into_iter().enumerate() {
        match o {
            CellOutcome::Ok(v) | CellOutcome::TimedOut { result: v, .. } => out.push(v),
            CellOutcome::Panicked { msg } => {
                if first_panic.is_none() {
                    first_panic = Some((i, msg));
                }
            }
        }
    }
    if let Some((i, msg)) = first_panic {
        panic!("runner job {i} panicked (remaining jobs were allowed to finish): {msg}");
    }
    out
}

/// Live progress reporting shared by every experiment binary. Thread-safe;
/// one stderr line per completed cell plus a summary from [`finish`].
///
/// [`finish`]: Progress::finish
pub struct Progress {
    label: String,
    total: usize,
    done: AtomicUsize,
    /// Simulated ops completed so far (for the throughput column; cells
    /// report their op count via [`Progress::cell_done_ops`]).
    ops: std::sync::atomic::AtomicU64,
    /// Estimated ops of the whole suite ([`Progress::expect_ops`]); `0`
    /// means no estimates were registered and the ETA falls back to
    /// whole-cell extrapolation.
    est_total: std::sync::atomic::AtomicU64,
    /// Estimated ops of completed cells (credited on completion, at the
    /// cell's *estimate*, so the remaining-work arithmetic stays in one
    /// currency).
    est_done: std::sync::atomic::AtomicU64,
    /// In-flight cells: `(start, estimated_ops)`, slot-indexed by the
    /// ticket [`Progress::cell_started`] returned. Slots are `None` once
    /// the cell completes.
    inflight: std::sync::Mutex<Vec<Option<(Instant, u64)>>>,
    start: Instant,
    quiet: bool,
}

/// Work-remaining ETA in host seconds. `est_total`/`est_done` are suite
/// estimates in ops; `inflight` holds `(elapsed_secs, est_ops)` of the
/// cells currently running. Each in-flight cell is credited with the
/// progress it would have made at the observed aggregate rate split
/// evenly across the in-flight cells, capped below its own estimate (a
/// cell is never credited as finished before it reports done) — so a
/// suite whose tail is a few long cells stops reading as "N whole cells
/// to go".
fn eta_from_ops(est_total: u64, est_done: u64, secs: f64, inflight: &[(f64, u64)]) -> Option<f64> {
    if est_total == 0 || est_done == 0 || secs <= 0.0 {
        return None;
    }
    let rate = est_done as f64 / secs;
    let k = inflight.len().max(1) as f64;
    let credit: f64 = inflight
        .iter()
        .map(|&(elapsed, est)| (rate / k * elapsed).min(est as f64 * 0.95))
        .sum();
    let remaining = (est_total.saturating_sub(est_done)) as f64 - credit;
    Some((remaining.max(0.0) / rate).max(0.0))
}

impl Progress {
    /// A reporter for `total` cells under the given experiment label.
    /// Honors `CARREFOUR_QUIET=1` (used by tests to keep output clean).
    pub fn new(label: &str, total: usize) -> Self {
        Progress {
            label: label.to_string(),
            total,
            done: AtomicUsize::new(0),
            ops: std::sync::atomic::AtomicU64::new(0),
            est_total: std::sync::atomic::AtomicU64::new(0),
            est_done: std::sync::atomic::AtomicU64::new(0),
            inflight: std::sync::Mutex::new(Vec::new()),
            start: Instant::now(),
            quiet: std::env::var_os("CARREFOUR_QUIET").is_some_and(|v| v == "1"),
        }
    }

    /// Registers estimated ops of upcoming work (accumulating across
    /// calls — one reporter often spans several experiment batches),
    /// switching the ETA from whole-cell extrapolation to work-remaining
    /// accounting.
    pub fn expect_ops(&self, est_ops: u64) {
        self.est_total.fetch_add(est_ops, Ordering::Relaxed);
    }

    /// Marks one cell as started (`est_ops` is its cost estimate) and
    /// returns a ticket for [`Progress::cell_done_ticket`]. In-flight
    /// cells earn partial ETA credit as they run.
    pub fn cell_started(&self, est_ops: u64) -> usize {
        let mut v = self.inflight.lock().unwrap();
        v.push(Some((Instant::now(), est_ops)));
        v.len() - 1
    }

    /// Records one finished cell and prints a progress line.
    pub fn cell_done(&self, what: &str) {
        self.cell_done_ops(what, 0);
    }

    /// [`Progress::cell_done_ops`] for a cell registered with
    /// [`Progress::cell_started`]: retires its in-flight slot and credits
    /// its estimate as completed work.
    pub fn cell_done_ticket(&self, what: &str, ops: u64, ticket: usize) {
        let est = {
            let mut v = self.inflight.lock().unwrap();
            v[ticket].take().map_or(0, |(_, e)| e)
        };
        self.est_done.fetch_add(est, Ordering::Relaxed);
        self.cell_done_ops(what, ops);
    }

    /// Records one finished cell that simulated `ops` memory operations.
    /// The progress line carries cumulative throughput (simulated ops per
    /// host second, when op counts are reported) and an ETA — from
    /// work-remaining accounting when estimates were registered
    /// ([`eta_from_ops`]: in-flight cells earn partial credit), from
    /// mean whole-cell cost otherwise. Output is explicitly flushed so
    /// piped logs (CI, `tee`) stay live.
    pub fn cell_done_ops(&self, what: &str, ops: u64) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let total_ops = self.ops.fetch_add(ops, Ordering::Relaxed) + ops;
        if !self.quiet {
            use std::io::Write;
            let secs = self.start.elapsed().as_secs_f64();
            let mut line = format!("[{}] {}/{} {:.1}s", self.label, done, self.total, secs);
            if total_ops > 0 && secs > 0.0 {
                line.push_str(&format!("  {:.2} Mops/s", total_ops as f64 / secs / 1e6));
            }
            if done < self.total && secs > 0.0 {
                let inflight: Vec<(f64, u64)> = self
                    .inflight
                    .lock()
                    .unwrap()
                    .iter()
                    .flatten()
                    .map(|&(t0, est)| (t0.elapsed().as_secs_f64(), est))
                    .collect();
                let eta = eta_from_ops(
                    self.est_total.load(Ordering::Relaxed),
                    self.est_done.load(Ordering::Relaxed),
                    secs,
                    &inflight,
                )
                .unwrap_or_else(|| secs / done as f64 * (self.total - done) as f64);
                line.push_str(&format!("  eta {eta:.0}s"));
            }
            line.push_str("  ");
            line.push_str(what);
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "{line}");
            let _ = err.flush();
        }
    }

    /// Prints the closing summary and returns total elapsed seconds.
    pub fn finish(&self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        if !self.quiet {
            eprintln!(
                "[{}] {} cells in {:.1}s",
                self.label,
                self.done.load(Ordering::Relaxed),
                secs
            );
        }
        secs
    }

    /// Seconds since the reporter was created.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Span-level profile of one cell's trip through the runner (the flight
/// recorder's runner layer, DESIGN.md §16). All host-side wall clock,
/// purely observational. For cells restored from the crash journal (which
/// stores results, not scheduler metadata) every span is an honest zero
/// and [`CellSpans::from_journal`] is set.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellSpans {
    /// Seconds the cell waited in the queue: suite submission → the
    /// moment a worker picked it up.
    pub queue_wait_secs: f64,
    /// Seconds inside the simulation proper (`run_spec`).
    pub simulate_secs: f64,
    /// Seconds merging the result back into the suite (progress tick and
    /// row assembly; the crash-journal append runs after the row exists
    /// and is not included).
    pub merge_secs: f64,
    /// Which worker thread ran the cell (0-based, in order of first
    /// pickup — stable within a run, not across runs).
    pub worker: usize,
    /// True when the row was restored from the crash journal (spans are
    /// zeros: the work happened in an earlier process).
    pub from_journal: bool,
}

impl CellSpans {
    /// The spans of a journal-restored row: honest zeros plus the flag.
    pub fn journal_restored() -> Self {
        CellSpans {
            from_journal: true,
            ..CellSpans::default()
        }
    }
}

/// Seconds from the last cell pickup to the last cell completion: the
/// suite's tail, when no queued cell is left for an idle worker. Takes
/// each live cell's `(pickup offset from suite start, busy seconds)`;
/// `0.0` for an empty suite.
pub fn tail_secs(cells: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let (last_pickup, end) = cells
        .into_iter()
        .fold((0.0_f64, 0.0_f64), |(p, e), (pickup, busy)| {
            (p.max(pickup), e.max(pickup + busy))
        });
    (end - last_pickup).max(0.0)
}

/// One executed cell plus its host wall-clock cost (the wall clock is
/// observability only — it never feeds back into simulated results).
pub struct TimedCell {
    /// The result row.
    pub cell: Cell,
    /// Host seconds this cell took.
    pub wall_secs: f64,
    /// The scheduler's a-priori cost estimate ([`CellSpec::estimated_ops`]),
    /// recorded so `BENCH_runner.json` can report estimate-vs-actual per
    /// cell.
    pub estimated_ops: u64,
    /// Where those seconds went (queue wait, simulate, merge) and where
    /// the cell ran.
    pub spans: CellSpans,
}

/// Longest-first execution order over `specs`, by
/// [`CellSpec::estimated_ops`]. Ties keep submission order (stable sort),
/// so equal-cost suites behave exactly as before the scheduler existed.
/// Returns `(schedule, per-cell estimates)`.
pub fn longest_first_schedule(specs: &[CellSpec]) -> (Vec<usize>, Vec<u64>) {
    let est: Vec<u64> = specs.iter().map(CellSpec::estimated_ops).collect();
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(est[i]));
    (order, est)
}

/// Runs every spec on the pool and returns result rows in submission
/// order, with per-cell wall-clock. `progress` ticks as cells finish.
/// Cells are *scheduled* longest-estimate-first so a big cell never
/// starts last and stalls the suite on one worker — results are
/// bit-identical for any schedule.
pub fn run_cells_timed(specs: &[CellSpec], jobs: usize, progress: &Progress) -> Vec<TimedCell> {
    run_cells_outcomes(specs, jobs, progress, |_, _| {})
        .into_iter()
        .enumerate()
        .map(|(i, o)| match o {
            CellOutcome::Ok(v) | CellOutcome::TimedOut { result: v, .. } => v,
            CellOutcome::Panicked { msg } => {
                panic!("runner cell {i} panicked (remaining cells were allowed to finish): {msg}")
            }
        })
        .collect()
}

/// Panic-isolating variant of [`run_cells_timed`]: returns one
/// [`CellOutcome`] per spec, in submission order, instead of aborting the
/// suite on the first panicking cell. The soft per-cell watchdog deadline
/// comes from [`cell_deadline_secs`]. `on_done(i, cell)` fires on the
/// worker thread the moment cell `i` completes — the suite runner hooks
/// the crash journal there, so a later `SIGKILL` loses at most the cells
/// still in flight.
pub fn run_cells_outcomes<H>(
    specs: &[CellSpec],
    jobs: usize,
    progress: &Progress,
    on_done: H,
) -> Vec<CellOutcome<TimedCell>>
where
    H: Fn(usize, &TimedCell) + Sync,
{
    let (schedule, est) = longest_first_schedule(specs);
    progress.expect_ops(est.iter().sum());
    // Span profiling state. `suite_start` anchors queue-wait; workers are
    // numbered in order of first pickup via their thread id (the pool's
    // threads are anonymous, the map names them). Purely observational.
    let suite_start = Instant::now();
    let worker_of: std::sync::Mutex<std::collections::HashMap<std::thread::ThreadId, usize>> =
        std::sync::Mutex::new(std::collections::HashMap::new());
    par_map_outcomes_scheduled(
        jobs,
        specs.len(),
        cell_deadline_secs(),
        Some(schedule),
        // Panic and watchdog lines carry the family tag (when present)
        // so fork-tree failures grep by family.
        |i| specs[i].describe_with_family(),
        |i| {
            let spec = &specs[i];
            let queue_wait_secs = suite_start.elapsed().as_secs_f64();
            let worker = {
                let id = std::thread::current().id();
                let mut m = worker_of.lock().unwrap();
                let n = m.len();
                *m.entry(id).or_insert(n)
            };
            let ticket = progress.cell_started(est[i]);
            let t = Instant::now();
            let result = run_spec(spec);
            let wall_secs = t.elapsed().as_secs_f64();
            let merge_t = Instant::now();
            progress.cell_done_ticket(&spec.describe(), result.lifetime.total_ops, ticket);
            let timed = TimedCell {
                cell: Cell {
                    machine: spec.machine.name().to_string(),
                    benchmark: spec.workload.name(),
                    policy: spec.policy_label(),
                    result,
                },
                wall_secs,
                estimated_ops: est[i],
                spans: CellSpans {
                    queue_wait_secs,
                    simulate_secs: wall_secs,
                    merge_secs: merge_t.elapsed().as_secs_f64(),
                    worker,
                    from_journal: false,
                },
            };
            on_done(i, &timed);
            timed
        },
    )
}

/// [`run_cells_timed`] without the timing wrapper.
pub fn run_cells(specs: &[CellSpec], jobs: usize, progress: &Progress) -> Vec<Cell> {
    run_cells_timed(specs, jobs, progress)
        .into_iter()
        .map(|t| t.cell)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_returns_submission_order() {
        for jobs in [1, 2, 3, 8] {
            let out = par_map(jobs, 17, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>(), "{jobs}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert!(par_map(4, 0, |i| i).is_empty());
        assert_eq!(par_map(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn panicking_job_does_not_abort_siblings() {
        for jobs in [1, 4] {
            let outcomes = par_map_outcomes(
                jobs,
                9,
                0.0,
                |i| format!("#{i}"),
                |i| {
                    if i == 3 {
                        panic!("injected failure in cell {i}");
                    }
                    i * 10
                },
            );
            assert_eq!(outcomes.len(), 9, "jobs={jobs}");
            for (i, o) in outcomes.iter().enumerate() {
                if i == 3 {
                    match o {
                        CellOutcome::Panicked { msg } => {
                            assert!(msg.contains("injected failure in cell 3"), "{msg}");
                        }
                        other => panic!("expected a captured panic, got {other:?}"),
                    }
                } else {
                    assert_eq!(o.result(), Some(&(i * 10)), "jobs={jobs} i={i}");
                }
            }
        }
    }

    #[test]
    fn par_map_reraises_after_all_jobs_finish() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let completed = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(2, 6, |i| {
                if i == 0 {
                    panic!("first job dies");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        assert!(caught.is_err(), "the panic must still propagate");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            5,
            "remaining jobs ran to completion before the re-raise"
        );
    }

    #[test]
    fn scheduled_par_map_returns_submission_order_for_any_schedule() {
        let schedules: Vec<Vec<usize>> = vec![
            (0..9).collect(),
            (0..9).rev().collect(),
            vec![4, 0, 8, 2, 6, 1, 7, 3, 5],
        ];
        for schedule in schedules {
            for jobs in [1, 3, 8] {
                let out = par_map_outcomes_scheduled(
                    jobs,
                    9,
                    0.0,
                    Some(schedule.clone()),
                    |i| format!("#{i}"),
                    |i| i * 11,
                );
                let got: Vec<_> = out.iter().map(|o| *o.result().unwrap()).collect();
                assert_eq!(
                    got,
                    (0..9).map(|i| i * 11).collect::<Vec<_>>(),
                    "jobs={jobs} schedule={schedule:?}"
                );
            }
        }
    }

    #[test]
    fn eta_without_inflight_matches_plain_rate_math() {
        // 100k of 400k estimated ops done in 10s → 30s remaining.
        let eta = eta_from_ops(400_000, 100_000, 10.0, &[]).unwrap();
        assert!((eta - 30.0).abs() < 1e-9, "{eta}");
        // No estimates, or nothing finished yet → no ops-based ETA.
        assert!(eta_from_ops(0, 0, 10.0, &[]).is_none());
        assert!(eta_from_ops(400_000, 0, 10.0, &[]).is_none());
    }

    #[test]
    fn inflight_cells_earn_partial_eta_credit() {
        // Rate = 10k ops/s. One in-flight cell of 200k est, running 5s:
        // credited 50k, so remaining = 300k - 50k → 25s instead of 30s.
        let plain = eta_from_ops(400_000, 100_000, 10.0, &[]).unwrap();
        let credited = eta_from_ops(400_000, 100_000, 10.0, &[(5.0, 200_000)]).unwrap();
        assert!((plain - 30.0).abs() < 1e-9);
        assert!((credited - 25.0).abs() < 1e-9, "{credited}");
        // Two in-flight cells split the rate (25k each, 50k total — same
        // aggregate as one cell at the full rate), but a small cell's
        // credit caps at 95% of its own estimate: 25k + 9.5k → 26.55s.
        let split =
            eta_from_ops(400_000, 100_000, 10.0, &[(5.0, 200_000), (5.0, 200_000)]).unwrap();
        assert!((split - 25.0).abs() < 1e-9, "{split}");
        let capped =
            eta_from_ops(400_000, 100_000, 10.0, &[(5.0, 200_000), (5.0, 10_000)]).unwrap();
        assert!((capped - 26.55).abs() < 1e-9, "{capped}");
    }

    #[test]
    fn inflight_credit_is_capped_below_the_cell_estimate() {
        // A cell "running" absurdly long never counts as more than 95%
        // done until it reports completion, and the ETA never goes
        // negative.
        let eta = eta_from_ops(200_000, 100_000, 10.0, &[(1e9, 100_000)]).unwrap();
        let floor = (100_000.0 - 95_000.0) / 10_000.0;
        assert!((eta - floor).abs() < 1e-9, "{eta}");
        let eta = eta_from_ops(110_000, 100_000, 10.0, &[(1e9, 100_000)]).unwrap();
        assert!((eta - 0.0).abs() < 1e-9, "clamped at zero, got {eta}");
    }

    #[test]
    fn zero_estimate_inflight_cells_earn_no_credit() {
        // A cell whose estimator came back 0 (custom workloads can) sits in
        // the in-flight list without poisoning the ETA: its 95% cap is 0,
        // so its credit is 0 — but it still takes a share of the rate.
        let plain = eta_from_ops(400_000, 100_000, 10.0, &[]).unwrap();
        let with_zero = eta_from_ops(400_000, 100_000, 10.0, &[(5.0, 0)]).unwrap();
        assert!((plain - 30.0).abs() < 1e-9);
        assert!(
            (with_zero - 30.0).abs() < 1e-9,
            "zero-estimate cell credited nothing, got {with_zero}"
        );
        // Paired with a real cell it still only dilutes the shared rate:
        // the 200k cell gets rate/2 * 5s = 25k credit, the zero cell 0.
        let mixed = eta_from_ops(400_000, 100_000, 10.0, &[(5.0, 0), (5.0, 200_000)]).unwrap();
        assert!((mixed - 27.5).abs() < 1e-9, "{mixed}");
    }

    #[test]
    fn all_cells_inflight_with_nothing_done_gives_no_eta() {
        // Suite start: every cell is in flight, none has finished, so
        // est_done == 0 and there is no observed rate to extrapolate from.
        assert!(eta_from_ops(400_000, 0, 10.0, &[(5.0, 200_000), (5.0, 200_000)]).is_none());
        // Degenerate wall clock never divides by zero either.
        assert!(eta_from_ops(400_000, 100_000, 0.0, &[(5.0, 200_000)]).is_none());
    }

    #[test]
    fn every_remaining_cell_inflight_converges_to_the_cap_floor() {
        // All remaining work is in flight and every cell is near done: the
        // credit caps keep 5% of each estimate outstanding, so the ETA
        // stays positive until completions actually land.
        let eta = eta_from_ops(300_000, 100_000, 10.0, &[(1e9, 100_000), (1e9, 100_000)]).unwrap();
        let floor = (200_000.0 - 2.0 * 95_000.0) / 10_000.0;
        assert!((eta - floor).abs() < 1e-9, "{eta} vs floor {floor}");
        assert!(eta > 0.0);
    }

    #[test]
    fn longest_first_schedule_sorts_by_estimate_with_stable_ties() {
        use crate::PolicyKind;
        use numa_topology::MachineSpec;
        use workloads::Benchmark;
        let machine = MachineSpec::test_machine();
        let mk = |bench: Benchmark| CellSpec {
            machine: machine.clone(),
            workload: Workload::Bench(bench),
            kind: PolicyKind::Linux4k,
            seed: None,
            faults: None,
            label: None,
            lp_params: None,
            family: None,
        };
        // IS.D is the suite's largest footprint; EP.C is tiny.
        let specs = vec![mk(Benchmark::EpC), mk(Benchmark::IsD), mk(Benchmark::EpC)];
        let (order, est) = longest_first_schedule(&specs);
        assert_eq!(est.len(), 3);
        assert_eq!(est[0], est[2], "same cell shape, same estimate");
        assert!(est[1] > est[0], "IS.D should out-estimate EP.C");
        assert_eq!(
            order,
            vec![1, 0, 2],
            "longest first, ties in submission order"
        );
    }

    #[test]
    fn slow_jobs_are_flagged_not_killed() {
        let outcomes = par_map_outcomes(
            2,
            2,
            0.01,
            |i| format!("#{i}"),
            |i| {
                if i == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                i
            },
        );
        assert_eq!(outcomes[0].result(), Some(&0));
        match &outcomes[1] {
            CellOutcome::TimedOut { secs, result } => {
                assert!(*secs >= 0.01);
                assert_eq!(*result, 1, "the overdue job still completed");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn resolve_jobs_prefers_cli() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn cell_keys_separate_distinct_cells() {
        let a = CellSpec::new(
            MachineSpec::machine_a(),
            Benchmark::UaB,
            PolicyKind::Linux4k,
        );
        let mut b = a.clone();
        b.kind = PolicyKind::LinuxThp;
        let mut c = a.clone();
        c.seed = Some(7);
        let mut d = a.clone();
        d.faults = Some(FaultConfig::uniform(1, 0.1));
        let keys: std::collections::BTreeSet<String> =
            [&a, &b, &c, &d].iter().map(|s| s.key()).collect();
        assert_eq!(keys.len(), 4);
        // The label is presentation only: it must NOT split the dedup key.
        let mut e = a.clone();
        e.label = Some("renamed".into());
        assert_eq!(a.key(), e.key());
    }
}
