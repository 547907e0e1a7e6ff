//! `explain` — attribution-based diagnosis of a policy delta.
//!
//! Runs a pair of cells (same benchmark and machine, two policies) with
//! the cycle-attribution ledger on, writes the `attrib-v1` report to
//! `results/ATTRIB_<bench>_<base>_vs_<cand>.json`, and prints the
//! human-readable narrative: which architectural cause the runtime delta
//! decomposes into ("THP saves N walk cycles but adds M queueing cycles
//! on node 2"). Conservation makes the decomposition exact — the listed
//! causes sum to the runtime delta.
//!
//! ```text
//! explain                          # the two paper diagnosis cases (below)
//! explain CG.D Linux THP           # any pair, machine A
//! explain UA.B Linux THP --machine b
//! explain --golden                 # attributed golden cells
//! #                                #   -> results/BENCH_attrib_baseline.json
//! explain --what-if                # causal intervention (below):
//! #                                #   CG.D / Carrefour-LP at the midpoint
//! explain --what-if CG.D Carrefour-LP --epoch 7
//! ```
//!
//! `--what-if` turns the post-hoc diagnosis into a causal intervention:
//! it snapshots the cell at an epoch boundary (`--epoch`, default the
//! midpoint) as a `ckpt-v3` checkpoint, then resumes the tail **twice**
//! from that same fork point — once untouched, once with the first policy
//! decision queued after the fork vetoed — and attributes the runtime
//! delta between the two tails. Determinism makes the comparison exact:
//! the two tails share every bit of history up to the fork, so the
//! printed delta is *caused by that one decision*, not correlated with
//! it.
//!
//! With no arguments, `explain` reproduces the paper's headline diagnoses
//! on machine A: the CG.D THP regression (Table 1: imbalance explodes —
//! the ledger shows queueing delay growing on the hottest controller),
//! the UA.B THP regression (Table 1: locality collapses — the ledger
//! shows interconnect-hop time growing), and the SSCA.20 THP win
//! (Table 1: page-walk misses vanish under huge pages — the ledger shows
//! the win is walk-cycle reduction).

use carrefour_bench::runner::{default_jobs, par_map};
use carrefour_bench::{attrib, golden, Cell, PolicyKind};
use engine::{EpochCtx, NumaPolicy, PolicyAction, SimConfig, Simulation};
use numa_topology::MachineSpec;
use std::path::Path;
use workloads::Benchmark;

/// Reports a usage error on stderr and exits 2 (CLI misuse is not a bug:
/// no panic, no backtrace).
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Runs one cell with attribution on (directly, not via the environment)
/// and panics if the ledger does not conserve — an `explain` report built
/// from a non-conserving ledger would narrate cycles that don't exist.
fn run_attributed(machine: &MachineSpec, bench: Benchmark, kind: PolicyKind) -> Cell {
    let mut config = SimConfig::for_machine(machine, kind.initial_thp());
    config.attribution = true;
    let spec = bench.spec(machine);
    let mut policy = kind.make();
    let mut result = Simulation::run(machine, &spec, &config, policy.as_mut());
    result.policy = kind.label().to_string();
    let ledger = result.attribution.as_ref().unwrap_or_else(|| {
        panic!(
            "{}/{}: attribution was enabled but the result carries no ledger",
            bench.name(),
            kind.label()
        )
    });
    assert!(
        ledger.conserves(result.runtime_cycles),
        "{}/{}: ledger does not conserve ({} != {})",
        bench.name(),
        kind.label(),
        ledger.total.total(),
        result.runtime_cycles
    );
    Cell {
        machine: machine.name().to_string(),
        benchmark: bench.name().to_string(),
        policy: kind.label().to_string(),
        result,
    }
}

/// Runs one (bench, base, cand) pair in parallel, writes the report, and
/// prints the narrative.
fn explain_pair(machine: &MachineSpec, bench: Benchmark, base: PolicyKind, cand: PolicyKind) {
    let kinds = [base, cand];
    let mut cells = par_map(default_jobs().min(2), 2, |i| {
        run_attributed(machine, bench, kinds[i])
    });
    let cand_cell = cells.pop().expect("par_map(2) returned both cells");
    let base_cell = cells.pop().expect("par_map(2) returned both cells");
    print!("{}", attrib::narrative(&base_cell, &cand_cell));
    match attrib::write_report(Path::new("results"), &base_cell, &cand_cell) {
        Ok(path) => println!("  report: {}\n", path.display()),
        Err(e) => println!("  (report not written: {e})\n"),
    }
}

/// Runs the 11 golden cells attributed and seeds
/// `results/BENCH_attrib_baseline.json` — the checked-in reference of the
/// golden configurations' cycle composition.
fn golden_baseline() {
    let machine = MachineSpec::machine_a();
    let cells = par_map(default_jobs(), golden::GOLDEN_CELLS.len(), |i| {
        let c = golden::GOLDEN_CELLS[i];
        run_attributed(&machine, c.bench, c.kind)
    });
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        die(&format!("could not create {}: {e}", dir.display()));
    }
    let path = dir.join("BENCH_attrib_baseline.json");
    if let Err(e) = std::fs::write(&path, attrib::baseline_json(&cells)) {
        die(&format!("could not write {}: {e}", path.display()));
    }
    println!(
        "wrote {} ({} attributed cells)",
        path.display(),
        cells.len()
    );
}

/// A policy wrapper that vetoes the first action its inner policy queues
/// after the fork point — the minimal causal intervention ("what if the
/// policy had not made that one decision?"). Epochs that queue nothing
/// pass through untouched; the veto arms on the first non-empty action
/// list and fires exactly once. Checkpoint state round-trips straight
/// through to the inner policy, so a resumed wrapper continues the inner
/// policy bit-identically up to the veto.
struct WhatIfPolicy {
    inner: Box<dyn NumaPolicy>,
    label: String,
    vetoed: Option<String>,
}

/// Queues `a` again through the request method that built it.
fn requeue(ctx: &mut EpochCtx<'_>, a: PolicyAction) {
    match a {
        PolicyAction::Migrate(v, node) => ctx.migrate(v, node),
        PolicyAction::Split(v) => ctx.split(v),
        PolicyAction::SplitScatter(v) => ctx.split_scatter(v),
        PolicyAction::SetThpAlloc(on) => ctx.set_thp_alloc(on),
        PolicyAction::SetThpPromote(on) => ctx.set_thp_promote(on),
        PolicyAction::ReplicateTables => ctx.replicate_tables(),
        PolicyAction::MigrateTables(v, node) => ctx.migrate_tables(v, node),
    }
}

impl NumaPolicy for WhatIfPolicy {
    fn name(&self) -> &str {
        &self.label
    }

    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
        self.inner.on_epoch(ctx);
        if self.vetoed.is_none() {
            let mut actions = ctx.take_actions();
            if !actions.is_empty() {
                self.vetoed = Some(format!("{:?}", actions.remove(0)));
                for a in actions {
                    requeue(ctx, a);
                }
            }
        }
    }

    fn consumes_samples(&self) -> bool {
        self.inner.consumes_samples()
    }

    fn save_state(&self) -> Vec<u8> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        self.inner.restore_state(bytes);
    }
}

/// Wraps a policy to remember the last boundary at which it queued an
/// action.
struct LastAction {
    inner: Box<dyn NumaPolicy>,
    epoch: Option<u32>,
}

impl NumaPolicy for LastAction {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
        self.inner.on_epoch(ctx);
        if !ctx.queued().is_empty() {
            self.epoch = Some(ctx.epoch_index);
        }
    }

    fn consumes_samples(&self) -> bool {
        self.inner.consumes_samples()
    }

    fn save_state(&self) -> Vec<u8> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        self.inner.restore_state(bytes);
    }
}

/// The `--what-if` mode: checkpoint `bench`/`kind` at `fork_epoch`
/// (default the midpoint), resume the tail twice from the same snapshot —
/// factual and with the first post-fork decision vetoed — and attribute
/// the delta.
fn what_if(machine: &MachineSpec, bench: Benchmark, kind: PolicyKind, fork_epoch: Option<u32>) {
    let mut config = SimConfig::for_machine(machine, kind.initial_thp());
    config.attribution = true;
    let spec = bench.spec(machine);

    // Factual run, end to end, to learn the epoch count and anchor the
    // comparison.
    let factual = run_attributed(machine, bench, kind);
    let n = factual.result.epochs.len() as u32;
    let fork = fork_epoch.unwrap_or(n / 2).min(n.saturating_sub(1));
    if fork == 0 || n < 2 {
        die(&format!(
            "{} has only {n} epoch(s); nothing to fork (--epoch must be in 1..{n})",
            bench.name()
        ));
    }

    // Fork: one ckpt-v3 snapshot, two resumed tails. The prefix run also
    // notes where the policy last acted, for the no-action error below.
    let mut prefix = LastAction {
        inner: kind.make(),
        epoch: None,
    };
    let ckpt = Simulation::checkpoint_at(machine, &spec, &config, &mut prefix, fork)
        .unwrap_or_else(|| {
            die(&format!(
                "checkpoint at epoch {fork} failed (run too short)"
            ))
        });
    let mut wrapped = WhatIfPolicy {
        inner: kind.make(),
        label: format!("{}[what-if]", kind.label()),
        vetoed: None,
    };
    let mut counter = Simulation::resume(machine, &spec, &config, &mut wrapped, &ckpt);
    let Some(vetoed) = wrapped.vetoed else {
        // Suggest an earlier fork only where there is a decision to veto.
        let hint = match prefix.epoch {
            Some(0) => " (it acted only at epoch 0, which no fork can veto)".to_string(),
            Some(e) => format!(" (it last acted at epoch {e}: try --epoch {e})"),
            None => " (it queued none before it either)".to_string(),
        };
        die(&format!(
            "{}/{} queued no policy action after epoch {fork}; nothing to veto{hint}",
            bench.name(),
            kind.label()
        ));
    };
    counter.policy = wrapped.label.clone();

    println!(
        "================ what-if: {} / {} ================",
        bench.name(),
        kind.label()
    );
    println!(
        "  fork epoch:  {fork} of {n} (ckpt-v3, {} bytes)",
        ckpt.to_bytes().len()
    );
    println!("  vetoed:      {vetoed}");
    let base_cycles = factual.result.runtime_cycles;
    let cf_cycles = counter.runtime_cycles;
    let pct = (cf_cycles as f64 - base_cycles as f64) / base_cycles as f64 * 100.0;
    println!(
        "  runtime:     {base_cycles} -> {cf_cycles} cycles ({pct:+.2}% from this one decision)"
    );
    let counter_cell = Cell {
        machine: machine.name().to_string(),
        benchmark: bench.name().to_string(),
        policy: counter.policy.clone(),
        result: counter,
    };
    print!("{}", attrib::narrative(&factual, &counter_cell));
    match attrib::write_report(Path::new("results"), &factual, &counter_cell) {
        Ok(path) => println!("  report: {}\n", path.display()),
        Err(e) => println!("  (report not written: {e})\n"),
    }
}

fn parse_bench(name: &str) -> Benchmark {
    Benchmark::all()
        .iter()
        .copied()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            let known: Vec<&str> = Benchmark::all().iter().map(|b| b.name()).collect();
            die(&format!(
                "unknown benchmark {name:?}; known: {}",
                known.join(", ")
            ))
        })
}

fn parse_policy(label: &str) -> PolicyKind {
    PolicyKind::parse(label).unwrap_or_else(|| {
        let known: Vec<&str> = PolicyKind::all().iter().map(|k| k.label()).collect();
        die(&format!(
            "unknown policy {label:?}; known: {}",
            known.join(", ")
        ))
    })
}

fn main() {
    carrefour_bench::logx::exit_quietly_on_broken_pipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--golden") {
        golden_baseline();
        return;
    }
    let mut machine = MachineSpec::machine_a();
    let mut what_if_mode = false;
    let mut fork_epoch: Option<u32> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--machine" => {
                let Some(v) = it.next() else {
                    die("--machine needs a value (a|b)");
                };
                machine = match v.as_str() {
                    "a" | "machine-a" => MachineSpec::machine_a(),
                    "b" | "machine-b" => MachineSpec::machine_b(),
                    other => die(&format!("unknown machine {other:?} (want a|b)")),
                };
            }
            "--what-if" => what_if_mode = true,
            "--epoch" => {
                let Some(v) = it.next() else {
                    die("--epoch needs a boundary number");
                };
                fork_epoch = Some(
                    v.parse()
                        .unwrap_or_else(|_| die(&format!("--epoch {v:?} is not a number"))),
                );
            }
            // Read by `default_jobs`; the value is skipped here so it is
            // not taken as a positional argument.
            "--jobs" => {
                let _ = it.next();
            }
            a if a.starts_with("--jobs=") => {}
            _ => positional.push(a),
        }
    }
    if what_if_mode {
        match positional.as_slice() {
            [] => what_if(
                &machine,
                Benchmark::CgD,
                PolicyKind::CarrefourLp,
                fork_epoch,
            ),
            [bench, policy] => what_if(
                &machine,
                parse_bench(bench),
                parse_policy(policy),
                fork_epoch,
            ),
            other => die(&format!(
                "usage: explain --what-if [<bench> <policy>] [--epoch N] [--machine a|b] \
                 (got {} positional args)",
                other.len()
            )),
        }
        return;
    }
    match positional.as_slice() {
        [] => {
            // The paper's headline diagnoses (Table 1), machine A.
            for bench in [Benchmark::CgD, Benchmark::UaB, Benchmark::Ssca] {
                explain_pair(&machine, bench, PolicyKind::Linux4k, PolicyKind::LinuxThp);
            }
        }
        [bench, base, cand] => {
            explain_pair(
                &machine,
                parse_bench(bench),
                parse_policy(base),
                parse_policy(cand),
            );
        }
        other => die(&format!(
            "usage: explain [<bench> <base-policy> <cand-policy>] [--machine a|b] | --golden \
             (got {} positional args)",
            other.len()
        )),
    }
}
