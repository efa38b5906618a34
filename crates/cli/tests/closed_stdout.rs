//! A reader that stops early (`cote memo linear-s 15 | head -1`) must end
//! the CLI quietly, not panic it on the next write to the closed pipe.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

fn first_line_then_hang_up(args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cote"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cote");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped"))
        .read_line(&mut line)
        .expect("read one line");
    assert!(!line.is_empty(), "{args:?} printed nothing");
    // The reader (and with it the pipe) is dropped here.
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    child.wait().expect("wait for cote");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn memo_survives_a_closed_stdout() {
    first_line_then_hang_up(&["memo", "linear-s", "15"]);
}
