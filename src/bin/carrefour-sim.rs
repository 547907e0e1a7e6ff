//! `carrefour-sim` — run any (machine, benchmark, policy) combination
//! from the command line.
//!
//! ```text
//! carrefour-sim --machine b --bench WC --policy carrefour-lp [--json]
//! carrefour-sim --list
//! ```
//!
//! Misuse (unknown machine/bench/policy, missing value) prints usage and
//! exits 2. Same
//! arguments → byte-identical output, including `--json`.

use carrefour::{Carrefour, CarrefourLp, LpParams, Mitosis, NumaPte};
use codec::json::esc;
use engine::{NullPolicy, NumaPolicy, SimConfig, SimResult, Simulation};
use numa_topology::MachineSpec;
use std::process::ExitCode;
use vmem::ThpControls;
use workloads::Benchmark;

const POLICIES: &[&str] = &[
    "linux-4k",
    "linux-thp",
    "carrefour-4k",
    "carrefour-2m",
    "conservative",
    "reactive",
    "carrefour-lp",
    "carrefour-lp-tuned",
    "mitosis",
    "numapte",
    "linux-1g",
    "carrefour-lp-1g",
];

fn usage() {
    eprintln!(
        "usage: carrefour-sim --bench <name> [--machine a|b] [--policy <name>]\n\
         \x20                    [--seed <u64>] [--json] [--list]\n\
         \n\
         \x20 --machine     a (4 nodes / 24 cores, default) or b (8 nodes / 64 cores)\n\
         \x20 --bench       benchmark name as the paper prints it (e.g. CG.D, WC, SSCA.20)\n\
         \x20 --policy      one of: {}\n\
         \x20 --seed        workload RNG seed (default 42)\n\
         \x20 --json        print the result as one JSON object instead of a table\n\
         \x20 --list        enumerate machines, benchmarks, and policies, then exit",
        POLICIES.join(", ")
    );
}

fn parse_machine(s: &str) -> Option<MachineSpec> {
    match s {
        "a" | "A" | "machine-a" => Some(MachineSpec::machine_a()),
        "b" | "B" | "machine-b" => Some(MachineSpec::machine_b()),
        _ => None,
    }
}

fn parse_bench(s: &str) -> Option<Benchmark> {
    Benchmark::all()
        .iter()
        .copied()
        .find(|b| b.name().eq_ignore_ascii_case(s))
}

fn make_policy(name: &str) -> Option<(Box<dyn NumaPolicy>, ThpControls)> {
    let p: (Box<dyn NumaPolicy>, ThpControls) = match name {
        "linux-4k" | "linux" => (Box::new(NullPolicy), ThpControls::small_only()),
        "linux-thp" | "thp" => (Box::new(NullPolicy), ThpControls::thp()),
        "carrefour-4k" => (Box::new(Carrefour::new()), ThpControls::small_only()),
        "carrefour-2m" => (Box::new(Carrefour::new()), ThpControls::thp()),
        "conservative" => (
            Box::new(CarrefourLp::conservative_only()),
            ThpControls::small_only(),
        ),
        "reactive" => (Box::new(CarrefourLp::reactive_only()), ThpControls::thp()),
        "carrefour-lp" => (Box::new(CarrefourLp::new()), ThpControls::thp()),
        "carrefour-lp-tuned" => (
            Box::new(CarrefourLp::with_params(LpParams::tuned()).named("carrefour-lp-tuned")),
            ThpControls::thp(),
        ),
        "mitosis" => (Box::new(Mitosis::new()), ThpControls::small_only()),
        "numapte" => (Box::new(NumaPte::new()), ThpControls::small_only()),
        "linux-1g" => (Box::new(NullPolicy), ThpControls::giant()),
        "carrefour-lp-1g" => (Box::new(CarrefourLp::new()), ThpControls::giant()),
        _ => return None,
    };
    Some(p)
}

fn list() {
    println!("machines:");
    println!("  a  machine-a (4 nodes / 24 cores)");
    println!("  b  machine-b (8 nodes / 64 cores)");
    println!("benchmarks:");
    for b in Benchmark::all() {
        println!("  {}", b.name());
    }
    println!("policies:");
    for p in POLICIES {
        println!("  {p}");
    }
}

fn print_json(r: &SimResult) {
    let rb = &r.robustness;
    println!(
        "{{\"machine\":\"{}\",\"benchmark\":\"{}\",\"policy\":\"{}\",\
         \"runtime_cycles\":{},\"runtime_ms\":{:.6},\"lar\":{:.6},\
         \"imbalance\":{:.6},\"walk_miss_fraction\":{:.6},\
         \"fault_cycles\":{},\"splits\":{},\"migrations_4k\":{},\
         \"table_replications\":{},\"table_migrations\":{},\
         \"robustness\":{{\"failed_migrations\":{},\"failed_splits\":{}}}}}",
        esc(&r.machine),
        esc(&r.workload),
        esc(&r.policy),
        r.runtime_cycles,
        r.runtime_ms,
        r.lifetime.lar,
        r.lifetime.imbalance,
        r.lifetime.walk_miss_fraction,
        r.lifetime.total_fault_cycles,
        r.lifetime.vmem.splits,
        r.lifetime.vmem.migrations_4k,
        r.lifetime.vmem.table_replications,
        r.lifetime.vmem.table_migrations,
        rb.failed_migrations,
        rb.failed_splits,
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut machine = "a".to_string();
    let mut bench = None;
    let mut policy = "carrefour-lp".to_string();
    let mut seed = None;
    let mut json = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, ()> {
            it.next().map(|v| v.to_string()).ok_or_else(|| {
                eprintln!("carrefour-sim: {flag} needs a value");
            })
        };
        match arg.as_str() {
            "--list" => {
                list();
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            "--json" => json = true,
            "--machine" => match value("--machine") {
                Ok(v) => machine = v,
                Err(()) => {
                    usage();
                    return ExitCode::from(2);
                }
            },
            "--bench" => match value("--bench") {
                Ok(v) => bench = Some(v),
                Err(()) => {
                    usage();
                    return ExitCode::from(2);
                }
            },
            "--policy" => match value("--policy") {
                Ok(v) => policy = v,
                Err(()) => {
                    usage();
                    return ExitCode::from(2);
                }
            },
            "--seed" => {
                let Ok(v) = value("--seed") else {
                    usage();
                    return ExitCode::from(2);
                };
                let Ok(s) = v.parse() else {
                    eprintln!("carrefour-sim: bad value {v:?} for --seed");
                    usage();
                    return ExitCode::from(2);
                };
                seed = Some(s);
            }
            other => {
                eprintln!("carrefour-sim: unknown argument {other:?}");
                usage();
                return ExitCode::from(2);
            }
        }
    }

    let Some(machine) = parse_machine(&machine) else {
        eprintln!("carrefour-sim: unknown machine (use a or b)");
        usage();
        return ExitCode::from(2);
    };
    let Some(bench) = bench else {
        eprintln!("carrefour-sim: --bench is required");
        usage();
        return ExitCode::from(2);
    };
    let Some(bench) = parse_bench(&bench) else {
        eprintln!("carrefour-sim: unknown benchmark {bench:?} (see --list)");
        usage();
        return ExitCode::from(2);
    };
    let Some((mut policy_obj, thp)) = make_policy(&policy) else {
        eprintln!("carrefour-sim: unknown policy {policy:?} (see --list)");
        usage();
        return ExitCode::from(2);
    };

    let spec = bench.spec(&machine);
    let mut config = SimConfig::for_machine(&machine, thp);
    if let Some(s) = seed {
        config.seed = s;
    }
    let mut result = Simulation::run(&machine, &spec, &config, policy_obj.as_mut());
    result.policy = policy.clone();

    if json {
        print_json(&result);
    } else {
        println!(
            "{} on {}: {} threads, policy {}",
            bench.name(),
            machine.name(),
            spec.threads,
            policy
        );
        println!(
            "  runtime {:.2} ms ({} cycles)   LAR {:.0}%   imbalance {:.1}%",
            result.runtime_ms,
            result.runtime_cycles,
            result.lifetime.lar * 100.0,
            result.lifetime.imbalance
        );
        println!(
            "  splits {}   migrations(4K) {}   walk-miss {:.1}%   fault time {:.2} ms",
            result.lifetime.vmem.splits,
            result.lifetime.vmem.migrations_4k,
            result.lifetime.walk_miss_fraction * 100.0,
            machine.cycles_to_ms(result.lifetime.total_fault_cycles),
        );
        let rb = &result.robustness;
        if rb != &Default::default() {
            println!(
                "  robustness: {} failed actions ({} migrations, {} splits)",
                rb.failed_actions(),
                rb.failed_migrations,
                rb.failed_splits,
            );
        }
    }
    ExitCode::SUCCESS
}
