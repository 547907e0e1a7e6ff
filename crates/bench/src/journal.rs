//! The append-only cell journal behind `all_experiments --resume`.
//!
//! Every completed cell is appended to `results/journal_<suite>.jsonl` as
//! one self-contained JSON line the moment its worker finishes, so a
//! crashed or killed suite loses at most the cells that were still in
//! flight. A later `--resume` run loads the journal, keeps every decodable
//! `"ok"` line, and re-runs only the missing or failed cells — the
//! simulator is deterministic, so splicing journaled results with freshly
//! computed ones reproduces the uninterrupted run byte for byte.
//!
//! Line formats (one JSON object per line):
//!
//! ```text
//! {"key":"…","status":"ok","machine":"…","benchmark":"…","policy":"…",
//!  "wall_secs":1.234,"blob":"<hex ckpt-v2 result codec>"}
//! {"key":"…","status":"panicked","msg":"…"}
//! ```
//!
//! `key` is [`CellSpec::key`] — the runner's dedup identity, covering
//! machine, workload, policy, seed override, and tunables. `blob` is the
//! checksummed [`engine::checkpoint::encode_result`] encoding of the
//! [`SimResult`], hex-armored so the line stays greppable text. Torn or
//! corrupt lines (a crash mid-append, a truncated disk) fail the checksum
//! or the parse and are simply ignored: those cells re-run. When the same
//! key appears twice, the later line wins.
//!
//! [`CellSpec::key`]: crate::runner::CellSpec::key
//! [`SimResult`]: engine::SimResult

use crate::json::esc;
use crate::runner::TimedCell;
use crate::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

/// A journaled result for one completed cell.
pub struct JournaledCell {
    /// The result row, decoded from the journal blob.
    pub cell: Cell,
    /// Host seconds the original run spent on this cell.
    pub wall_secs: f64,
}

/// An append-only journal writer. Thread-safe: workers append from the
/// pool, each line flushed immediately.
pub struct Journal {
    file: Mutex<std::fs::File>,
    path: PathBuf,
}

/// The journal path for a suite name (`results/journal_<suite>.jsonl`).
pub fn journal_path(suite: &str) -> PathBuf {
    PathBuf::from("results").join(format!("journal_{suite}.jsonl"))
}

impl Journal {
    /// Opens the suite's journal for appending, creating `results/` and the
    /// file as needed. `Err` is the underlying io::Error (callers warn and
    /// run without a journal rather than aborting the suite).
    pub fn open_append(suite: &str) -> std::io::Result<Journal> {
        std::fs::create_dir_all("results")?;
        let path = journal_path(suite);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(Journal {
            file: Mutex::new(file),
            path,
        })
    }

    /// The journal file's path (for messages and CI artifacts).
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Appends one completed cell. Write errors warn on stderr — the suite
    /// keeps running, it just loses resumability for this cell.
    pub fn record_ok(&self, key: &str, timed: &TimedCell) {
        let blob = codec::to_hex(&engine::checkpoint::encode_result(&timed.cell.result));
        let line = format!(
            "{{\"key\":\"{}\",\"status\":\"ok\",\"machine\":\"{}\",\"benchmark\":\"{}\",\"policy\":\"{}\",\"wall_secs\":{},\"blob\":\"{}\"}}",
            esc(key),
            esc(&timed.cell.machine),
            esc(&timed.cell.benchmark),
            esc(&timed.cell.policy),
            timed.wall_secs,
            blob,
        );
        self.append(&line);
    }

    /// Appends one failed cell, so `--resume` knows to re-run it and the
    /// post-mortem has the panic message next to the cell key.
    pub fn record_panicked(&self, key: &str, msg: &str) {
        let line = format!(
            "{{\"key\":\"{}\",\"status\":\"panicked\",\"msg\":\"{}\"}}",
            esc(key),
            esc(msg),
        );
        self.append(&line);
    }

    fn append(&self, line: &str) {
        let mut f = self.file.lock().unwrap();
        if let Err(e) = writeln!(f, "{line}").and_then(|()| f.flush()) {
            crate::logx::warn(&format!("could not append to {}: {e}", self.path.display()));
        }
    }
}

/// Loads every decodable `"ok"` cell from a suite's journal, keyed by
/// [`CellSpec::key`]. Missing file means an empty map (a fresh run). Torn,
/// corrupt, or failed lines are skipped; a later line for the same key
/// replaces an earlier one.
///
/// [`CellSpec::key`]: crate::runner::CellSpec::key
pub fn load(suite: &str) -> HashMap<String, JournaledCell> {
    load_counted(suite).0
}

/// [`load`], plus the number of *stale* lines that were superseded by a
/// later line for the same key (the later-line-wins rule firing). A
/// crash between append and kill can journal a cell twice, and a retry
/// after a panic line legitimately re-journals the key — the count lets
/// `--resume` report how much of the journal it discarded rather than
/// silently folding duplicates.
pub fn load_counted(suite: &str) -> (HashMap<String, JournaledCell>, usize) {
    match std::fs::read_to_string(journal_path(suite)) {
        Ok(text) => load_from_str(&text),
        Err(_) => (HashMap::new(), 0),
    }
}

/// The parser behind [`load_counted`], split out so tests can feed it
/// torn and duplicated lines directly.
fn load_from_str(text: &str) -> (HashMap<String, JournaledCell>, usize) {
    let mut out = HashMap::new();
    let mut stale = 0usize;
    for line in text.lines() {
        let Some(key) = json_string_field(line, "key") else {
            continue;
        };
        match json_string_field(line, "status").as_deref() {
            Some("ok") => {
                let Some(blob) = json_string_field(line, "blob") else {
                    continue;
                };
                let Some(bytes) = codec::from_hex(&blob) else {
                    continue;
                };
                let Some(result) = engine::checkpoint::decode_result(&bytes) else {
                    continue; // torn line: checksum failed, cell re-runs
                };
                let (Some(machine), Some(benchmark), Some(policy)) = (
                    json_string_field(line, "machine"),
                    json_string_field(line, "benchmark"),
                    json_string_field(line, "policy"),
                ) else {
                    continue;
                };
                let wall_secs = json_number_field(line, "wall_secs").unwrap_or(0.0);
                let prev = out.insert(
                    key,
                    JournaledCell {
                        cell: Cell {
                            machine,
                            benchmark,
                            policy,
                            result,
                        },
                        wall_secs,
                    },
                );
                stale += usize::from(prev.is_some());
            }
            // A later failure line invalidates an earlier success for the
            // same key (it should not happen, but the newest verdict wins).
            Some(_) => {
                stale += usize::from(out.remove(&key).is_some());
            }
            None => {}
        }
    }
    (out, stale)
}

/// Extracts the string value of `"name":"…"` from one JSON line, undoing
/// the escapes [`esc`] produces. Cell keys contain quote characters (they
/// embed `Debug`-formatted specs), so this must walk escapes rather than
/// scan for the next raw quote.
fn json_string_field(line: &str, name: &str) -> Option<String> {
    let marker = format!("\"{name}\":\"");
    let start = line.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let code: String = (&mut chars).take(4).collect();
                    let v = u32::from_str_radix(&code, 16).ok()?;
                    out.push(char::from_u32(v)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// Extracts the numeric value of `"name":<number>` from one JSON line.
fn json_number_field(line: &str, name: &str) -> Option<f64> {
    let marker = format!("\"{name}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_fields_round_trip_through_escapes() {
        let key = "machine-a|UaB|Linux4k|Some(7)|\"quoted\"\\back";
        let line = format!(
            "{{\"key\":\"{}\",\"status\":\"ok\",\"msg\":\"tab\\there\"}}",
            esc(key)
        );
        assert_eq!(json_string_field(&line, "key").as_deref(), Some(key));
        assert_eq!(json_string_field(&line, "status").as_deref(), Some("ok"));
        assert_eq!(
            json_string_field(&line, "msg").as_deref(),
            Some("tab\there")
        );
        assert_eq!(json_string_field(&line, "absent"), None);
    }

    #[test]
    fn number_fields_parse() {
        let line = "{\"wall_secs\":1.25,\"n\":-3e2}";
        assert_eq!(json_number_field(line, "wall_secs"), Some(1.25));
        assert_eq!(json_number_field(line, "n"), Some(-300.0));
        assert_eq!(json_number_field(line, "absent"), None);
    }

    /// One valid journal line for `key`, exactly as [`Journal::record_ok`]
    /// writes it (same format string, no file involved).
    fn ok_line(key: &str, result: &engine::SimResult, wall_secs: f64) -> String {
        let blob = codec::to_hex(&engine::checkpoint::encode_result(result));
        format!(
            "{{\"key\":\"{}\",\"status\":\"ok\",\"machine\":\"m\",\"benchmark\":\"b\",\"policy\":\"p\",\"wall_secs\":{},\"blob\":\"{}\"}}",
            esc(key),
            wall_secs,
            blob,
        )
    }

    fn small_result() -> engine::SimResult {
        crate::run_cell(
            &numa_topology::MachineSpec::test_machine(),
            workloads::Benchmark::EpC,
            crate::PolicyKind::Linux4k,
        )
    }

    #[test]
    fn torn_lines_are_skipped_and_cells_rerun() {
        let r = small_result();
        let good = ok_line("cell-a", &r, 1.0);
        // Torn mid-blob (crash during append): checksum fails, line drops.
        let torn = &good[..good.len() / 2];
        // Torn so early the key survives but the blob field is gone.
        let no_blob = "{\"key\":\"cell-b\",\"status\":\"ok\",\"machine\":\"m";
        let text = format!("{torn}\n{no_blob}\n{good}\n");
        let (map, stale) = load_from_str(&text);
        assert_eq!(map.len(), 1, "only the complete line loads");
        assert!(map.contains_key("cell-a"));
        assert_eq!(stale, 0, "torn lines are dropped, not superseded");
    }

    #[test]
    fn later_duplicate_wins_and_is_counted() {
        let r = small_result();
        let text = format!(
            "{}\n{}\n{}\n",
            ok_line("cell-a", &r, 1.0),
            ok_line("cell-b", &r, 5.0),
            ok_line("cell-a", &r, 2.0),
        );
        let (map, stale) = load_from_str(&text);
        assert_eq!(map.len(), 2);
        assert_eq!(map["cell-a"].wall_secs, 2.0, "the later line wins");
        assert_eq!(stale, 1, "one earlier line was superseded");
    }

    #[test]
    fn late_failure_line_invalidates_and_is_counted() {
        let r = small_result();
        let text = format!(
            "{}\n{{\"key\":\"cell-a\",\"status\":\"panicked\",\"msg\":\"boom\"}}\n",
            ok_line("cell-a", &r, 1.0),
        );
        let (map, stale) = load_from_str(&text);
        assert!(map.is_empty(), "the newest verdict is a failure");
        assert_eq!(stale, 1);
        // A failure for a key never journaled ok counts nothing.
        let (_, stale2) =
            load_from_str("{\"key\":\"ghost\",\"status\":\"panicked\",\"msg\":\"x\"}\n");
        assert_eq!(stale2, 0);
    }
}
