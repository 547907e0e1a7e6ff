//! The bench crate's single stderr choke point, plus the stdout
//! broken-pipe exit every streaming binary installs.
//!
//! Every ad-hoc `eprintln!` warning in this crate used to pick its own
//! prefix and its own quiet-ness; now there are exactly two shapes:
//!
//! * [`warn`] — something was lost or degraded (a journal line failed to
//!   append, a result file could not be written, a cell panicked). Always
//!   printed, `CARREFOUR_QUIET` notwithstanding: a silent loss is how
//!   incomplete suites go unnoticed. Every line starts with `warning: `
//!   so CI logs grep with one pattern.
//! * [`info`] — progress and bookkeeping chatter (`wrote results/…`,
//!   resume summaries). Suppressed by `CARREFOUR_QUIET=1`, the same
//!   switch [`crate::runner::Progress`] honors, so tests and the sweep
//!   silence the whole crate with one variable.
//!
//! The environment is consulted per call (not cached): tests flip
//! `CARREFOUR_QUIET` mid-process and the helper must follow.

/// Whether `CARREFOUR_QUIET=1` is in effect (suppresses [`info`] and the
/// runner's progress lines; never warnings).
pub fn quiet() -> bool {
    std::env::var_os("CARREFOUR_QUIET").is_some_and(|v| v == "1")
}

/// Prints `warning: <msg>` to stderr. Not silenced by `CARREFOUR_QUIET`.
pub fn warn(msg: &str) {
    eprintln!("warning: {msg}");
}

/// Prints an informational line to stderr unless `CARREFOUR_QUIET=1`.
pub fn info(msg: &str) {
    if !quiet() {
        eprintln!("{msg}");
    }
}

/// Makes a binary that streams its tables to stdout exit 0, silently,
/// once stdout's reader has gone away (`explain --what-if | head -4`).
/// Rust ignores `SIGPIPE`, so `println!` panics on the broken pipe; this
/// panic hook turns exactly that panic into a clean exit and hands every
/// other panic to the default hook. Call it first thing in `main`.
pub fn exit_quietly_on_broken_pipe() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload_as_str().unwrap_or("");
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_follows_the_environment() {
        // Serialized against other env-touching tests by cargo running
        // same-module tests in one binary; the variable is restored.
        let before = std::env::var_os("CARREFOUR_QUIET");
        std::env::set_var("CARREFOUR_QUIET", "1");
        assert!(quiet());
        std::env::set_var("CARREFOUR_QUIET", "0");
        assert!(!quiet());
        match before {
            Some(v) => std::env::set_var("CARREFOUR_QUIET", v),
            None => std::env::remove_var("CARREFOUR_QUIET"),
        }
    }
}
