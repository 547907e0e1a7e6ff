//! The benchmark's workloads: fixed cell lists, parameterised only by the
//! simulator seed.

use carrefour::LpParams;
use carrefour_bench::runner::CellSpec;
use carrefour_bench::PolicyKind;
use numa_topology::MachineSpec;
use workloads::Benchmark;

/// One unit of work handed to a runner worker: a single cell, or a
/// fork-tree family that `forktree::run_family` simulates as a whole.
#[derive(Clone, Debug)]
pub enum Job {
    /// A plain cell, simulated from scratch.
    Cell(Box<CellSpec>),
    /// Cells sharing a prefix; the first is the probe.
    Family(Vec<CellSpec>),
}

impl Job {
    /// The cells this job produces, in result order.
    pub fn specs(&self) -> &[CellSpec] {
        match self {
            Job::Cell(s) => std::slice::from_ref(s.as_ref()),
            Job::Family(f) => f,
        }
    }

    /// The cell that is simulated in full: the cell itself, or the probe.
    pub fn lead(&self) -> &CellSpec {
        &self.specs()[0]
    }

    /// Scheduler estimate in simulated operations (every cell counted, as
    /// if none shared a prefix).
    pub fn estimated_ops(&self) -> u64 {
        self.specs().iter().map(CellSpec::estimated_ops).sum()
    }
}

/// Stable label of one cell, the key of its pinned outputs.
pub fn label(spec: &CellSpec) -> String {
    format!(
        "{}/{}/{}",
        spec.machine.name(),
        spec.workload.name(),
        spec.policy_label()
    )
}

/// The workloads `BENCHMARK.json` names. [`jobs`] also knows `smoke`, the
/// two-cell list the benchmark's own tests run.
pub const WORKLOADS: [&str; 3] = ["pagewalk-4k", "thp-carrefour", "lp-sweep-fork"];

/// The Carrefour-LP threshold grid of `lp-sweep-fork`: split gain (pp) ×
/// hot-page fraction, 16 variants. The paper's defaults (5.0, 0.06) are
/// on it.
const SPLIT_GAIN_PP: [f64; 4] = [2.5, 5.0, 7.5, 10.0];
const HOT_PAGE_FRACTION: [f64; 4] = [0.03, 0.06, 0.09, 0.12];

/// The job list of `workload` under simulator seed `seed`; `None` for an
/// unknown workload name.
pub fn jobs(workload: &str, seed: u64) -> Option<Vec<Job>> {
    let a = MachineSpec::machine_a();
    let b = MachineSpec::machine_b();
    let cell = |machine: &MachineSpec, bench, kind| {
        let mut s = CellSpec::new(machine.clone(), bench, kind);
        s.seed = Some(seed);
        Job::Cell(Box::new(s))
    };
    let matrix = |machine: &MachineSpec, benches: &[Benchmark], kinds: &[PolicyKind]| {
        benches
            .iter()
            .flat_map(|&bench| kinds.iter().map(move |&kind| (bench, kind)))
            .map(|(bench, kind)| cell(machine, bench, kind))
            .collect::<Vec<_>>()
    };
    let jobs = match workload {
        "pagewalk-4k" => matrix(
            &a,
            &[Benchmark::Ssca, Benchmark::SpecJbb],
            &[
                PolicyKind::Linux4k,
                PolicyKind::Mitosis,
                PolicyKind::NumaPte,
            ],
        ),
        "thp-carrefour" => matrix(
            &b,
            &[
                Benchmark::Ssca,
                Benchmark::SpecJbb,
                Benchmark::CgD,
                Benchmark::UaC,
            ],
            &[
                PolicyKind::LinuxThp,
                PolicyKind::Carrefour2m,
                PolicyKind::CarrefourLp,
            ],
        ),
        "lp-sweep-fork" => [Benchmark::CgD, Benchmark::Ssca, Benchmark::UaC]
            .into_iter()
            .map(|bench| Job::Family(lp_family(&b, bench, seed)))
            .collect(),
        "smoke" => matrix(
            &MachineSpec::test_machine(),
            &[Benchmark::EpC],
            &[PolicyKind::Linux4k, PolicyKind::LinuxThp],
        ),
        _ => return None,
    };
    Some(jobs)
}

/// One fork-tree family: every grid point of Carrefour-LP on `bench`.
fn lp_family(machine: &MachineSpec, bench: Benchmark, seed: u64) -> Vec<CellSpec> {
    let mut out = Vec::with_capacity(SPLIT_GAIN_PP.len() * HOT_PAGE_FRACTION.len());
    for split in SPLIT_GAIN_PP {
        for hot in HOT_PAGE_FRACTION {
            let mut params = LpParams::default();
            params.thresholds.split_gain_pp = split;
            params.thresholds.hot_page_fraction = hot;
            let mut s = CellSpec::new(machine.clone(), bench, PolicyKind::CarrefourLp);
            s.seed = Some(seed);
            s.lp_params = Some(params);
            s.label = Some(format!("Carrefour-LP[split={split} hot={hot}]"));
            s.family = Some("lp-sweep".into());
            out.push(s);
        }
    }
    out
}
