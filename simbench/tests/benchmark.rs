//! The benchmark's own checks: metric and workload names, the per-layer
//! declarations, agreement with `BENCHMARK.json`, and a smoke run of a
//! two-cell list through the output check, untraced and traced.

use simbench::check::{Digests, Expected, DEFAULT_SEED, HELD_OUT_SEED};
use simbench::layers::Tracer;
use simbench::{cells, check_pass, pass, END_TO_END, PER_LAYER};

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_and_workload_names_are_plain() {
    let names = END_TO_END
        .iter()
        .chain(PER_LAYER.iter().map(|m| &m.metric))
        .map(|m| m.name)
        .chain(cells::WORKLOADS);
    let mut seen = std::collections::BTreeSet::new();
    for n in names {
        assert!(valid_name(n), "{n} is not [A-Za-z0-9_.-]+");
        assert!(seen.insert(n), "{n} is used twice");
    }
    for m in END_TO_END.iter().chain(PER_LAYER.iter().map(|m| &m.metric)) {
        assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
    }
}

#[test]
fn every_layer_metric_declares_what_it_should_move() {
    for m in PER_LAYER {
        assert!(!m.moves.is_empty(), "{} declares nothing", m.metric.name);
        for (e2e, workload) in m.moves {
            assert!(
                END_TO_END.iter().any(|e| e.name == *e2e),
                "{} moves unknown metric {e2e}",
                m.metric.name
            );
            assert!(
                cells::WORKLOADS.contains(workload),
                "{} names unknown workload {workload}",
                m.metric.name
            );
        }
    }
}

/// `"name": "<value>"` fields of `text`, in order.
fn names(text: &str) -> Vec<String> {
    text.split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_these_names() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| {
        let start = text.find(&format!("\"{key}\"")).expect(key);
        let end = text[start..].find(']').expect("section end") + start;
        names(&text[start..end])
    };
    let expect_workloads: Vec<String> = cells::WORKLOADS.iter().map(|s| s.to_string()).collect();
    assert_eq!(section("workloads"), expect_workloads);
    let e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(section("end_to_end"), e2e);
    let layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| m.metric.name.to_string())
        .collect();
    assert_eq!(section("per_layer"), layer);
}

fn expected() -> Expected {
    let text = std::fs::read_to_string(simbench::expected_path()).expect("expected.txt");
    Expected::parse(&text).expect("pins parse")
}

#[test]
fn smoke_run_passes_the_output_check() {
    let expected = expected();
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let jobs = cells::jobs("smoke", seed).expect("smoke workload");
        assert_eq!(jobs.len(), 2);
        let mut digests = Digests::default();
        let mut errors = Vec::new();
        let p = pass::run_pass(&jobs, 2, None);
        let (attempted, failed) = check_pass(
            &p,
            &jobs,
            "smoke",
            seed,
            &expected,
            &mut digests,
            &mut errors,
        );
        assert_eq!((attempted, failed), (2, 0), "{errors:?}");

        // The traced pass reruns every cell under the timing wrapper and
        // through a checkpoint round trip: all of it must match the pins.
        let tracer = Tracer::new();
        let traced = pass::run_pass(&jobs, 2, Some(&tracer));
        let (_, failed) = check_pass(
            &traced,
            &jobs,
            "smoke",
            seed,
            &expected,
            &mut digests,
            &mut errors,
        );
        assert_eq!(failed, 0, "{errors:?}");
        assert!(tracer.totals().ops > 0);
        assert!(tracer.spans().iter().any(|s| s.name == "core.on_epoch"));
    }
}

#[test]
fn a_changed_result_fails_the_check() {
    let expected = expected();
    let jobs = cells::jobs("smoke", DEFAULT_SEED).expect("smoke workload");
    let p = pass::run_pass(&jobs[..1], 1, None);
    let run = p.jobs[0].result().expect("cell completes");
    let (label, r) = &run.cells[0];
    assert!(expected.check("smoke", DEFAULT_SEED, label, r).is_ok());
    let mut bad = r.clone();
    bad.runtime_cycles += 1;
    assert!(expected.check("smoke", DEFAULT_SEED, label, &bad).is_err());
    // An unpinned seed is held to the pinned operation count.
    bad.lifetime.total_ops += 1;
    assert!(expected.check("smoke", 1234, label, &bad).is_err());
    let mut digests = Digests::default();
    assert!(digests.check(label, r).is_ok());
    assert!(digests.check(label, &bad).is_err());
}
