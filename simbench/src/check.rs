//! The output check: every cell's result against its pinned outputs.
//!
//! `expected.txt` pins, for the default simulator seed and a second seed,
//! each cell's `runtime_cycles`, `lifetime.total_ops` and the FNV-1a
//! of its `engine::checkpoint::encode_result` bytes. A seed without pins
//! is still checked: its operation count must equal the pinned count of
//! the same cell (the access stream's length does not depend on the
//! seed), and every repeat of a cell within one process must produce the
//! same digest (see `Digests`).

use engine::SimResult;
use std::collections::BTreeMap;

/// The simulator's standard seed (`SimConfig::standard().seed`).
pub const DEFAULT_SEED: u64 = 42;
/// A second pinned seed, so the exact check covers more than the default.
pub const HELD_OUT_SEED: u64 = 7;

/// What one cell must produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    /// Simulated runtime.
    pub runtime_cycles: u64,
    /// Simulated memory operations.
    pub total_ops: u64,
    /// FNV-1a of the encoded result.
    pub digest: u64,
}

impl Pin {
    /// The pin a result would produce.
    pub fn of(r: &SimResult) -> Pin {
        Pin {
            runtime_cycles: r.runtime_cycles,
            total_ops: r.lifetime.total_ops,
            digest: codec::fnv1a(&engine::checkpoint::encode_result(r)),
        }
    }
}

/// Pins keyed by (workload, seed, cell label).
#[derive(Clone, Debug, Default)]
pub struct Expected {
    pins: BTreeMap<(String, u64, String), Pin>,
}

impl Expected {
    /// Parses `expected.txt`: one `workload seed runtime_cycles total_ops
    /// digest_hex label` line per cell; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut pins = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("expected.txt line {}: malformed pin", n + 1);
            let mut f = line.splitn(6, ' ');
            let mut next = || f.next().ok_or_else(bad);
            let workload = next()?.to_string();
            let seed = next()?.parse().map_err(|_| bad())?;
            let runtime_cycles = next()?.parse().map_err(|_| bad())?;
            let total_ops = next()?.parse().map_err(|_| bad())?;
            let digest = u64::from_str_radix(next()?, 16).map_err(|_| bad())?;
            let label = next()?.to_string();
            let pin = Pin {
                runtime_cycles,
                total_ops,
                digest,
            };
            pins.insert((workload, seed, label), pin);
        }
        Ok(Expected { pins })
    }

    /// Renders pins in the `expected.txt` format.
    pub fn render(&self) -> String {
        let mut out =
            String::from("# workload seed runtime_cycles total_ops fnv1a(encode_result) cell\n");
        for ((w, s, l), p) in &self.pins {
            out.push_str(&format!(
                "{w} {s} {} {} {:016x} {l}\n",
                p.runtime_cycles, p.total_ops, p.digest
            ));
        }
        out
    }

    /// Adds or replaces one pin.
    pub fn insert(&mut self, workload: &str, seed: u64, label: &str, pin: Pin) {
        self.pins
            .insert((workload.to_string(), seed, label.to_string()), pin);
    }

    /// Drops every pin of `workload`.
    pub fn clear_workload(&mut self, workload: &str) {
        self.pins.retain(|(w, _, _), _| w != workload);
    }

    /// Checks one cell's result. Seeds with pins must match exactly; other
    /// seeds must match the operation count pinned for the default seed.
    pub fn check(
        &self,
        workload: &str,
        seed: u64,
        label: &str,
        r: &SimResult,
    ) -> Result<(), String> {
        let got = Pin::of(r);
        let key = |s: u64| (workload.to_string(), s, label.to_string());
        if let Some(want) = self.pins.get(&key(seed)) {
            return if *want == got {
                Ok(())
            } else {
                Err(format!("{label}: got {got:?}, pinned {want:?}"))
            };
        }
        match self.pins.get(&key(DEFAULT_SEED)) {
            Some(want) if want.total_ops == got.total_ops && got.runtime_cycles > 0 => Ok(()),
            Some(want) => Err(format!(
                "{label}: {} ops in {} cycles, pinned {} ops",
                got.total_ops, got.runtime_cycles, want.total_ops
            )),
            None => Err(format!(
                "{label}: no pinned outputs for workload {workload}"
            )),
        }
    }
}

/// First-seen digest of each cell in one process: every later result of
/// the same cell (another pass, the traced run, a checkpoint resume) must
/// be bit-identical to it.
#[derive(Default)]
pub struct Digests(BTreeMap<String, u64>);

impl Digests {
    /// Records `r` as `label`'s result, or compares it with the first.
    pub fn check(&mut self, label: &str, r: &SimResult) -> Result<(), String> {
        let d = Pin::of(r).digest;
        match self.0.get(label) {
            None => {
                self.0.insert(label.to_string(), d);
                Ok(())
            }
            Some(&first) if first == d => Ok(()),
            Some(&first) => Err(format!(
                "{label}: digest {d:016x} differs from this process's first result {first:016x}"
            )),
        }
    }
}
