//! `plis-server` — the **service plane**: the engine's command plane
//! served over TCP.
//!
//! The typed `Op`/`Outcome` command plane of `plis-engine` is already the
//! shape of a network protocol; this crate puts a socket in front of it.
//! Requests are whole [`Tick`](plis_engine::Tick)s /
//! [`ReadTick`](plis_engine::ReadTick)s in the engine's own sealed wire
//! encoding ([`plis_engine::wire`]), framed exactly like the tick journal
//! (`[len][crc64][payload]` — one frame layout, one implementation), and
//! every response is a fully typed
//! [`TickOutcome`](plis_engine::TickOutcome) /
//! [`ReadOutcome`](plis_engine::ReadOutcome): each
//! `Result<OpOutput, OpError>` a library caller would see round-trips the
//! socket intact.
//!
//! The server is hand-rolled on `std::net` (the build environment has no
//! registry access, so no tokio/hyper): an accept loop, one blocking
//! reader thread per connection, and a single batcher thread that owns
//! the engine and coalesces concurrently-arriving requests, reads
//! included, into combined engine ticks on a time/size trigger.  See [`server`] for the
//! threading model, the ordering/read-your-writes argument, and shutdown
//! semantics; [`protocol`] for the frame and message layout; [`client`]
//! for the blocking/pipelined client the load generator and the tests
//! drive.
//!
//! # Quick start
//!
//! ```
//! use plis_engine::{EngineConfig, Query, SessionKind, Tick};
//! use plis_server::{Client, ServerConfig, ServerHandle};
//!
//! let server = ServerHandle::start(ServerConfig {
//!     engine: EngineConfig { universe: 1 << 16, ..EngineConfig::default() },
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! let outcome = client
//!     .submit(
//!         &Tick::new()
//!             .create("alice", SessionKind::Unweighted)
//!             .append("alice", vec![5u64, 3, 4, 8])
//!             .query("alice", Query::RankOf(3)),
//!     )
//!     .unwrap();
//! assert!(outcome.fully_applied());
//! assert_eq!(outcome.total_ingested, 4);
//!
//! let report = server.shutdown();
//! assert_eq!(report.snapshot.session_count(), 1);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, Response};
pub use protocol::{FrameRead, ProtocolError, DEFAULT_MAX_FRAME_BYTES};
pub use server::{JournalMode, ServerConfig, ServerHandle, ShutdownReport};
