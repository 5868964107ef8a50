//! The `plis-server` binary: bind, serve, drain on SIGTERM/SIGINT or
//! stdin EOF.
//!
//! Configuration comes from environment variables (the workspace's bench
//! convention):
//!
//! | variable               | default       | meaning                              |
//! |------------------------|---------------|--------------------------------------|
//! | `PLIS_SERVE_ADDR`      | `127.0.0.1:0` | bind address (port 0 = ephemeral)    |
//! | `PLIS_SERVE_UNIVERSE`  | `1 << 32`     | engine value universe                |
//! | `PLIS_SERVE_BATCH_OPS` | `256`         | batch size trigger (ops)             |
//! | `PLIS_SERVE_BATCH_US`  | `200`         | batch time trigger (µs)              |
//! | `PLIS_SERVE_JOURNAL`   | off           | tick-journal file path               |
//! | `PLIS_SERVE_SNAPSHOT`  | off           | write an engine snapshot here on exit|
//!
//! The bound address is printed as `listening on <addr>` once the server
//! is accepting — scripts (the CI smoke) parse that line.  On SIGTERM,
//! SIGINT or stdin EOF the server stops accepting, drains in-flight
//! ticks, optionally writes the final snapshot, and exits 0.  The snapshot
//! is written to `<path>.tmp`, synced, then renamed over `<path>`, so a
//! reader never sees a torn file; if any step fails the server prints
//! `snapshot write failed: <error>` and exits 1.

use plis_engine::EngineConfig;
use plis_server::{JournalMode, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Hand-rolled: no `signal-hook`/`libc` crates in this environment.
    // The handler only stores to an atomic — async-signal-safe.
    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Write `bytes` to `path` atomically: into `<path>.tmp`, synced to disk,
/// then renamed over `path`, with the directory synced so the rename
/// survives a crash too.  A failed attempt removes its temporary file.
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let result = std::fs::File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path))
        .and_then(|()| sync_dir(path.parent().filter(|p| !p.as_os_str().is_empty())));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Make a rename inside `dir` (the working directory if `None`) durable.
#[cfg(unix)]
fn sync_dir(dir: Option<&Path>) -> std::io::Result<()> {
    std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

#[cfg(not(unix))]
fn sync_dir(_dir: Option<&Path>) -> std::io::Result<()> {
    Ok(())
}

fn main() {
    install_signal_handlers();

    let addr: SocketAddr = std::env::var("PLIS_SERVE_ADDR")
        .unwrap_or_else(|_| "127.0.0.1:0".into())
        .parse()
        .expect("PLIS_SERVE_ADDR must be host:port");
    let config = ServerConfig {
        addr,
        engine: EngineConfig {
            universe: env_u64("PLIS_SERVE_UNIVERSE", 1 << 32),
            ..EngineConfig::default()
        },
        batch_max_ops: env_u64("PLIS_SERVE_BATCH_OPS", 256) as usize,
        batch_max_wait: Duration::from_micros(env_u64("PLIS_SERVE_BATCH_US", 200)),
        journal: match std::env::var("PLIS_SERVE_JOURNAL") {
            Ok(path) if !path.is_empty() => JournalMode::File(path.into()),
            _ => JournalMode::Off,
        },
        ..ServerConfig::default()
    };

    let server = ServerHandle::start(config).expect("bind failed");
    println!("listening on {}", server.addr());

    // Wake on stdin EOF from a watcher thread; poll the signal flag here.
    let stdin_closed = std::sync::Arc::new(AtomicBool::new(false));
    {
        let stdin_closed = std::sync::Arc::clone(&stdin_closed);
        std::thread::spawn(move || {
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            while let Ok(n) = stdin.read(&mut sink) {
                if n == 0 {
                    break;
                }
            }
            stdin_closed.store(true, Ordering::SeqCst);
        });
    }
    while !STOP.load(Ordering::SeqCst) && !stdin_closed.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
    }

    eprintln!("draining");
    let report = server.shutdown();
    let mut snapshot_failed = false;
    if let Ok(path) = std::env::var("PLIS_SERVE_SNAPSHOT") {
        if !path.is_empty() {
            match write_atomically(Path::new(&path), &report.snapshot.encode()) {
                Ok(()) => {
                    eprintln!("snapshot: {path} ({} sessions)", report.snapshot.session_count())
                }
                Err(e) => {
                    eprintln!("snapshot write failed: {e}");
                    snapshot_failed = true;
                }
            }
        }
    }
    eprintln!(
        "served {} combined ticks across {} sessions",
        report.ticks_executed,
        report.snapshot.session_count()
    );
    if snapshot_failed {
        std::process::exit(1);
    }
}
