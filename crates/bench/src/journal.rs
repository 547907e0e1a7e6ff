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
//!  "wall_secs":1.234,"blob":"<hex encode_result blob>"}
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

use crate::runner::TimedCell;
use crate::Cell;
use codec::json::{self, esc, JsonError, Value};
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
/// [`CellSpec::key`], plus the number of *stale* lines that were
/// superseded by a later line for the same key. Missing file means an
/// empty map (a fresh run). Torn, corrupt, or failed lines are skipped; a
/// later line for the same key replaces an earlier one (the
/// later-line-wins rule). A crash between append and kill can journal a
/// cell twice, and a retry after a panic line legitimately re-journals the
/// key — the count lets `--resume` report how much of the journal it
/// discarded rather than silently folding duplicates.
///
/// [`CellSpec::key`]: crate::runner::CellSpec::key
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
        // A torn or corrupt line (a crash mid-append) is a typed error
        // here and is skipped: its cell re-runs.
        let Ok((key, verdict)) = parse_line(line) else {
            continue;
        };
        let superseded = match verdict {
            Some(cell) => out.insert(key, cell).is_some(),
            // A later failure line invalidates an earlier success for the
            // same key (it should not happen, but the newest verdict wins).
            None => out.remove(&key).is_some(),
        };
        stale += usize::from(superseded);
    }
    (out, stale)
}

/// Counts a journal's decodable `"ok"` lines and its failure lines (torn
/// lines count as neither), for the report's provenance note.
pub fn status_counts(text: &str) -> (usize, usize) {
    let verdicts = text.lines().filter_map(|l| parse_line(l).ok());
    verdicts.fold((0, 0), |(ok, failed), (_, cell)| match cell {
        Some(_) => (ok + 1, failed),
        None => (ok, failed + 1),
    })
}

/// Parses one journal line into its cell key and verdict: the decoded
/// cell for an `"ok"` line, `None` for a failure line. A blob that fails
/// its hex armor or checksum is a [`JsonError`] like any malformed field.
fn parse_line(line: &str) -> Result<(String, Option<JournaledCell>), JsonError> {
    let v = json::parse(line)?;
    let key = v.str_field("key")?.to_string();
    if v.str_field("status")? != "ok" {
        return Ok((key, None));
    }
    let result = codec::from_hex(v.str_field("blob")?)
        .and_then(|bytes| engine::checkpoint::decode_result(&bytes))
        .ok_or_else(|| JsonError::wrong_type("blob", "checksummed result"))?;
    let cell = Cell {
        machine: v.str_field("machine")?.to_string(),
        benchmark: v.str_field("benchmark")?.to_string(),
        policy: v.str_field("policy")?.to_string(),
        result,
    };
    let wall_secs = v.get("wall_secs").and_then(Value::as_f64).unwrap_or(0.0);
    Ok((key, Some(JournaledCell { cell, wall_secs })))
}

#[cfg(test)]
mod tests {
    use super::*;

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
