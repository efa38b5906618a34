//! `cote` runs with SIGPIPE at its default action, which a test binary
//! keeps ignored, so only the real binary shows whether a shutdown path
//! can die by signal. This drives it through a drain that hits its
//! deadline after one loop thread has already exited and is then woken
//! with the others: the daemon must still end with status 0, its drain
//! summary, the final dump and the report.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Write pipelined `METRICS` requests without ever reading the replies
/// until the server stops reading too: past its write-buffer high-water
/// mark it drops read interest, and once the kernel buffers fill, writes
/// here would block for good.
fn wedge(stream: &TcpStream) {
    stream.set_nonblocking(true).unwrap();
    let chunk = "METRICS\n".repeat(1024).into_bytes();
    let (mut pos, mut blocked_since) = (0, None::<Instant>);
    let t0 = Instant::now();
    loop {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "server never stopped reading"
        );
        match (&*stream).write(&chunk[pos..]) {
            Ok(n) => {
                pos = (pos + n) % chunk.len();
                blocked_since = None;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let since = *blocked_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= Duration::from_secs(1) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("write: {e}"),
        }
    }
}

#[test]
fn drain_deadline_after_a_loop_exits_ends_the_daemon_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cote"))
        .args(["serve", "linear-s", "--listen", "127.0.0.1:0"])
        .args(["--loops", "2", "--drain-ms", "300"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cote serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped"));
    let mut seen = String::new();
    let addr = loop {
        let mut line = String::new();
        if stderr.read_line(&mut line).expect("read stderr") == 0 {
            panic!("cote serve exited before listening:\n{seen}");
        }
        seen.push_str(&line);
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.trim().to_string();
        }
    };
    let stderr = std::thread::spawn(move || {
        let mut rest = String::new();
        stderr.read_to_string(&mut rest).expect("read stderr");
        seen + &rest
    });
    let mut stdout = child.stdout.take().expect("piped");
    let stdout = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).expect("read stdout");
        out
    });

    // The first connection lands on loop 0; loop 1 holds none, so it
    // leaves as soon as the drain starts, while loop 0 waits out the
    // deadline on this connection and is then force-closed.
    let stuck = TcpStream::connect(&addr).expect("connect");
    wedge(&stuck);

    let mut stdin = child.stdin.take().expect("piped");
    stdin.write_all(b"quit\n").expect("write quit");
    drop(stdin);
    let status = child.wait().expect("wait for cote serve");
    let stderr = stderr.join().unwrap();
    let stdout = stdout.join().unwrap();
    drop(stuck);
    assert!(status.success(), "{status}\nstderr:\n{stderr}");
    assert!(stderr.contains("drain deadline hit"), "{stderr}");
    assert!(stderr.contains("── final metrics dump ──"), "{stderr}");
    assert!(!stdout.is_empty(), "the shutdown report is missing");
}
