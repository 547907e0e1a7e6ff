//! Command line of the simulator benchmark.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! simbench --bless <workload>            re-pin expected.txt for the pinned seeds
//! simbench --compare <a.json> <b.json>   compare two result files
//! ```
//!
//! A run prints every metric by name and unit, writes its result file (and
//! with `--trace 1` its span file) under `out/` next to this package, and
//! ends stdout with one JSON line. It exits 1 when any output check fails.

use simbench::check::{Expected, Pin, DEFAULT_SEED, HELD_OUT_SEED};
use simbench::{cells, json_num, Options};
use std::process::ExitCode;

const USAGE: &str = "usage: simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       simbench --bless <workload>\n       simbench --compare <a.json> <b.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--bless") if args.len() == 2 => bless(&args[1]),
        Some("--compare") if args.len() == 3 => compare(&args[1], &args[2]),
        _ => match parse(&args) {
            Some(opts) => run(&opts),
            None => {
                eprintln!("{USAGE}\nworkloads: {}", cells::WORKLOADS.join(", "));
                return ExitCode::from(2);
            }
        },
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Option<Options> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next()?;
        match flag.as_str() {
            "--workload" => opts.workload = v.clone(),
            "--seed" => opts.seed = v.parse().ok()?,
            "--seconds" => opts.seconds = v.parse().ok().filter(|s: &f64| *s >= 0.0)?,
            "--trace" => opts.trace = v.parse::<u8>().ok().filter(|t| *t <= 1)? == 1,
            _ => return None,
        }
    }
    cells::jobs(&opts.workload, opts.seed).map(|_| opts)
}

fn out_dir() -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(opts: &Options) -> Result<ExitCode, String> {
    let r = simbench::run(opts)?;
    println!(
        "workload {} seed {} on {}",
        opts.workload,
        opts.seed,
        r.host.to_json()
    );
    for note in &r.notes {
        println!("  {note}");
    }
    for (m, v) in r.end_to_end.iter().chain(&r.per_layer) {
        println!("  {:<32} {:>16.6} {}", m.name, v, m.unit);
    }
    for e in &r.errors {
        println!("  CHECK FAILED {e}");
    }
    let dir = out_dir()?;
    let stem = format!(
        "{}-seed{}{}",
        opts.workload,
        opts.seed,
        if opts.trace { "-trace" } else { "" }
    );
    let write = |name: String, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), simbench::result_json(opts, &r))?;
    if opts.trace {
        write(format!("{stem}-spans.json"), simbench::spans_json(opts, &r))?;
    }
    let metrics = if opts.trace {
        &r.per_layer
    } else {
        &r.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(*v),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        body.join(", ")
    );
    Ok(if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs `workload` once for each pinned seed and rewrites its pins.
fn bless(workload: &str) -> Result<ExitCode, String> {
    let path = simbench::expected_path();
    let mut expected = match std::fs::read_to_string(&path) {
        Ok(text) => Expected::parse(&text)?,
        Err(_) => Expected::default(),
    };
    expected.clear_workload(workload);
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let jobs =
            cells::jobs(workload, seed).ok_or_else(|| format!("unknown workload {workload}"))?;
        let pass = simbench::pass::run_pass(&jobs, workers, None);
        for (job, outcome) in jobs.iter().zip(&pass.jobs) {
            let run = outcome
                .result()
                .ok_or_else(|| format!("{} did not complete", cells::label(job.lead())))?;
            for (label, r) in &run.cells {
                expected.insert(workload, seed, label, Pin::of(r));
            }
        }
        eprintln!("pinned {workload} seed {seed} in {:.1} s", pass.wall);
    }
    std::fs::write(&path, expected.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(ExitCode::SUCCESS)
}

/// Prints each metric of `b` against `a`; refuses results from different
/// hosts, whose times are not comparable.
fn compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|t| simbench::parse_result(&t))
    };
    let (host_a, ma) = read(a)?;
    let (host_b, mb) = read(b)?;
    if host_a != host_b {
        eprintln!(
            "simbench: refusing to compare results from different hosts:\n  {host_a}\n  {host_b}"
        );
        return Ok(ExitCode::from(3));
    }
    for (name, vb) in &mb {
        if let Some((_, va)) = ma.iter().find(|(n, _)| n == name) {
            let change = if *va == 0.0 {
                0.0
            } else {
                (vb / va - 1.0) * 100.0
            };
            println!("{name:<32} {va:>16.6} {vb:>16.6} {change:>+8.2}%");
        }
    }
    Ok(ExitCode::SUCCESS)
}
