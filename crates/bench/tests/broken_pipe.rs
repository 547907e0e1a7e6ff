//! A bench binary whose stdout reader has gone away (`explain --what-if |
//! head -4`) exits 0 instead of panicking on the broken pipe.

use std::process::{Command, Stdio};

/// `fragmentation` prints its table header before it simulates anything,
/// so with the read end of its stdout closed before it starts, its very
/// first write hits the broken pipe.
#[test]
fn a_streaming_binary_exits_zero_when_stdout_is_closed() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_fragmentation"))
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("run fragmentation");
    assert_eq!(
        out.status.code(),
        Some(0),
        "fragmentation with a closed stdout exited {:?}; stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stderr.is_empty(), "a broken pipe is not worth a word");
}
