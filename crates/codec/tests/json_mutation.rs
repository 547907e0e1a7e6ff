//! Hostile-input robustness of `codec::json::parse`, and the escape →
//! parse round trip.
//!
//! The mutation property starts from real files the workspace writes and
//! reads back — a golden trace digest, the checked-in v5
//! `BENCH_baseline.json`, crash-journal lines and metrics-v3 lines —
//! truncates them, flips bytes in them and splices them into each other,
//! and asserts that `parse` returns `Ok` or a typed `Err` whose offset
//! lies inside the input: never a panic, never a stack overflow.

use codec::json::{esc, parse, Value};
use proptest::prelude::*;

const GOLDEN: &str = include_str!("../../../tests/golden/ua_b__carrefour_lp.json");
const BASELINE: &str = include_str!("../../../results/BENCH_baseline.json");
const JOURNAL: &str = include_str!("fixtures/journal.jsonl");
const METRICS: &str = include_str!("fixtures/metrics.jsonl");

/// Every seed input: the two whole documents plus each JSONL line.
fn inputs() -> Vec<&'static str> {
    let mut v = vec![GOLDEN, BASELINE];
    v.extend(JOURNAL.lines());
    v.extend(METRICS.lines());
    v
}

/// Uniform in `0..n` (`n > 0`).
fn below(rng: &mut CaseRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Applies one truncation, byte flip or splice.
fn mutate(bytes: &mut Vec<u8>, donors: &[&str], rng: &mut CaseRng) {
    let at = below(rng, bytes.len() + 1);
    match below(rng, 3) {
        0 => bytes.truncate(at),
        1 if !bytes.is_empty() => {
            let i = at.min(bytes.len() - 1);
            bytes[i] ^= 1 + below(rng, 255) as u8;
        }
        _ => {
            let donor = donors[below(rng, donors.len())].as_bytes();
            let from = below(rng, donor.len());
            let to = (from + 1 + below(rng, 64)).min(donor.len());
            bytes.splice(at..at, donor[from..to].iter().copied());
        }
    }
}

#[test]
fn every_seed_input_parses() {
    for text in inputs() {
        let v = parse(text).unwrap_or_else(|e| panic!("{e}: {}", &text[..text.len().min(80)]));
        assert!(matches!(v, Value::Obj(_)));
    }
    // The golden digest's hashes are hex strings, its counters exact.
    let golden = parse(GOLDEN).unwrap();
    assert!(golden.array_field("epochs").unwrap().len() > 1);
    assert_eq!(golden.u64_field("seed"), Ok(42));
}

proptest! {
    /// Truncated, flipped and spliced real inputs parse to `Ok` or a
    /// typed error, never a panic.
    #[test]
    fn mutated_inputs_never_panic(seed in 0u64..=u64::MAX, rounds in 1usize..5) {
        let donors = inputs();
        let mut rng = CaseRng::new("json", seed);
        let mut bytes = donors[below(&mut rng, donors.len())].as_bytes().to_vec();
        for _ in 0..rounds {
            mutate(&mut bytes, &donors, &mut rng);
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = parse(&text) {
            prop_assert!(e.offset <= text.len(), "{e} past the end of {} bytes", text.len());
            prop_assert!(!e.to_string().is_empty());
        }
    }

    /// Any string — quotes, backslashes, control characters, non-ASCII —
    /// survives `esc` and `parse` unchanged.
    #[test]
    fn escape_then_parse_round_trips(seed in 0u64..=u64::MAX, len in 0usize..64) {
        const PALETTE: &[char] = &['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '/', 'a', 'é', '😀'];
        let mut rng = CaseRng::new("json", seed);
        let s: String = (0..len)
            .map(|_| {
                if below(&mut rng, 2) == 0 {
                    PALETTE[below(&mut rng, PALETTE.len())]
                } else {
                    // Any scalar value; surrogates fall back to U+FFFD.
                    char::from_u32(below(&mut rng, 0x11_0000) as u32).unwrap_or('\u{fffd}')
                }
            })
            .collect();
        let doc = format!("{{\"s\": \"{}\"}}", esc(&s));
        prop_assert_eq!(parse(&doc).unwrap().str_field("s"), Ok(s.as_str()));
    }
}
