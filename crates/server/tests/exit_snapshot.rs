//! The `plis-server` binary's exit snapshot (`PLIS_SERVE_SNAPSHOT`): after
//! a clean drain it lands atomically under its final name, and a write
//! that fails ends the process with exit code 1 and a message, never a
//! panic.

use plis_engine::{EngineSnapshot, SessionKind, SessionSnapshot, Tick};
use plis_server::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

const UNIVERSE: u64 = 1 << 16;

/// A fresh, empty directory under the system temp dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("plis-exit-snapshot-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Start the binary with its exit snapshot aimed at `path` and wait for
/// its `listening on <addr>` line.
fn start(path: &Path) -> (Child, BufReader<ChildStdout>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_plis-server"))
        .env("PLIS_SERVE_ADDR", "127.0.0.1:0")
        .env("PLIS_SERVE_UNIVERSE", UNIVERSE.to_string())
        .env("PLIS_SERVE_SNAPSHOT", path)
        .env_remove("PLIS_SERVE_JOURNAL")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("plis-server starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read the listening line");
    let addr = line.trim().strip_prefix("listening on ").expect("listening line").to_string();
    (child, stdout, addr)
}

/// Close the binary's stdin (its drain trigger) and collect its exit code
/// and stderr.
fn drain(mut child: Child) -> (Option<i32>, String) {
    drop(child.stdin.take());
    let output = child.wait_with_output().expect("plis-server exits");
    (output.status.code(), String::from_utf8_lossy(&output.stderr).into_owned())
}

#[test]
fn clean_drain_writes_the_snapshot_atomically() {
    let dir = fresh_dir("ok");
    let path = dir.join("engine.snap");
    let (child, _stdout, addr) = start(&path);
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let tick = Tick::new().create("s", SessionKind::Unweighted).append("s", vec![5, 1, 4]);
    assert!(client.submit(&tick).expect("submit").fully_applied());
    drop(client);

    let (code, stderr) = drain(child);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let bytes = std::fs::read(&path).expect("snapshot file exists");
    let snapshot = EngineSnapshot::decode(&bytes).expect("snapshot decodes");
    assert_eq!(
        snapshot.sessions,
        vec![(
            "s".to_string(),
            SessionSnapshot::Unweighted { universe: UNIVERSE, values: vec![5, 1, 4] }
        )]
    );
    let names: Vec<_> = std::fs::read_dir(&dir)
        .expect("list temp dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    assert_eq!(names, ["engine.snap"], "the temporary file was left behind");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn failed_snapshot_write_exits_1_without_panicking() {
    let dir = fresh_dir("missing");
    let path = dir.join("no-such-dir").join("engine.snap");
    let (child, _stdout, _addr) = start(&path);

    let (code, stderr) = drain(child);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("snapshot write failed: "), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("served "), "the drain must finish first; stderr: {stderr}");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
