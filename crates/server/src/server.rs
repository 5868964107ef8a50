//! The server proper: listener, per-connection reader threads, the
//! batcher, and graceful shutdown.
//!
//! # Threading model
//!
//! * One **accept thread** polls a non-blocking listener and spawns a
//!   reader thread per connection.
//! * Each **reader thread** reads its socket through a 64 KiB buffer, so
//!   one `read` syscall serves every frame that arrived together.  It
//!   reassembles frames (partial TCP reads are the normal case, not an
//!   error), decodes the sealed tick / read tick, and enqueues a work
//!   item.  Any protocol violation earns a typed error frame and a clean
//!   close of that one connection; the engine and every other connection
//!   are untouched.
//! * One **batcher thread** owns the [`Engine`].  It drains the queue in
//!   arrival order and coalesces items into engine ticks on a time/size
//!   trigger: a batch closes as soon as it holds
//!   [`ServerConfig::batch_max_ops`] ops, or
//!   [`ServerConfig::batch_max_wait`] after its first op arrived,
//!   whichever comes first.  Combined ticks take the requests' ops by
//!   move, not by copy.
//! * **Replies are coalesced per connection.**  While a batch executes,
//!   the batcher frames each reply into its connection's buffer; after
//!   the batch's last run it writes each buffer with one `write_all`
//!   under that connection's write mutex.  A reader's error frame takes
//!   the same mutex and closes the connection before releasing it, so it
//!   never lands inside another frame and no reply follows it.  A failed
//!   write marks the connection dead and is otherwise ignored.
//!
//! # Why buffering cannot deadlock
//!
//! A client may write a large burst of requests while the batcher's
//! reply write to it waits for the client to read.  That resolves on its
//! own: the connection's reader keeps draining the socket into the
//! intake queue, which is unbounded, so a reader never waits for the
//! batcher and the client's write always completes.  A bounded queue
//! must keep this property: when full it rejects work, it never blocks
//! the reader.
//!
//! # Ordering and read-your-writes
//!
//! The queue is strictly FIFO and each reader enqueues its connection's
//! requests in socket order, so per-connection submission order is
//! preserved end to end.  Within one drained batch, consecutive requests
//! merge into one combined [`Tick`], each request occupying a contiguous
//! slot range; a read request joins as
//! [`Op::Query`](plis_engine::Op::Query) slots.  A run ends only where a
//! write request's `create_missing` flag differs from the run's (queries
//! never create sessions, so reads join any run), and runs execute in
//! queue order.  Sessions are independent and the engine
//! applies same-session slots of one tick in slot order, so the combined
//! execution is op-for-op identical to executing every request
//! individually in queue order — which is what makes serving
//! bit-identical to direct library execution, whatever the batching.  A
//! read reply is built from its slots' results by
//! [`ReadOutcome::from_query_results`], the helper
//! [`Engine::execute_read`] uses too.  A read that follows a write on the
//! same connection sits later in the queue, lands later in the same run
//! or in a later run, and therefore observes the write: read-your-writes.
//!
//! # Shutdown and drain
//!
//! [`ServerHandle::shutdown`] stops the accept loop, half-closes every
//! connection's read side (queued responses still flush through the
//! write side), joins the readers, then lets the batcher drain the
//! remaining queue — every request that was fully received is executed
//! and answered (a complete frame still sitting in a reader's buffer
//! counts as received; a partial one is a torn frame), then the engine
//! is snapshotted and returned.  Nothing acked is lost; nothing is
//! applied twice (the journal records each combined tick, query slots
//! included, exactly once, before execution).

use crate::protocol::{
    append_frame, error_message, message, parse_message, read_frame, FrameRead, ProtocolError,
    DEFAULT_MAX_FRAME_BYTES, READ_BUF_BYTES, TAG_READ, TAG_READ_OUTCOME, TAG_SUBMIT,
    TAG_TICK_OUTCOME,
};
use plis_engine::{
    decode_read_tick, decode_tick, encode_read_outcome, encode_tick, encode_tick_outcome, Engine,
    EngineConfig, EngineSnapshot, ReadOutcome, ReadTick, Tick, TickOutcome,
};
use plis_telemetry::JournalWriter;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Where the server journals executed ticks.
#[derive(Debug, Clone, Default)]
pub enum JournalMode {
    /// No journal.
    #[default]
    Off,
    /// Journal into memory; the bytes come back in the
    /// [`ShutdownReport`].
    Memory,
    /// Journal into a file at this path (created/truncated on start).
    File(PathBuf),
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; use port 0 for an ephemeral port.
    pub addr: SocketAddr,
    /// Engine configuration (universe, default session kind, shards).
    pub engine: EngineConfig,
    /// Size trigger: a batch closes once it holds this many ops.
    pub batch_max_ops: usize,
    /// Time trigger: a batch closes this long after its first op.
    pub batch_max_wait: Duration,
    /// Per-frame payload cap; larger announcements are rejected typed.
    pub max_frame_bytes: u32,
    /// Tick journalling (each combined tick, written before execution).
    pub journal: JournalMode,
    /// Pin tick execution to a dedicated pool of this many workers;
    /// `None` executes on the batcher thread's default pool.
    pub worker_threads: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            engine: EngineConfig::default(),
            batch_max_ops: 256,
            batch_max_wait: Duration::from_micros(200),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            journal: JournalMode::Off,
            worker_threads: None,
        }
    }
}

/// What [`ServerHandle::shutdown`] hands back after the drain.
#[derive(Debug)]
pub struct ShutdownReport {
    /// The engine, post-drain — callers can snapshot, inspect or keep
    /// serving it in-process.
    pub engine: Engine,
    /// A snapshot captured after the last tick drained.
    pub snapshot: EngineSnapshot,
    /// The journal bytes when [`JournalMode::Memory`] was configured
    /// (file journals are already on disk).
    pub journal: Option<Vec<u8>>,
    /// Combined ticks journalled/executed over the server's lifetime
    /// (read requests ride them as query slots).
    pub ticks_executed: u64,
}

enum Request {
    Write(Tick),
    Read(ReadTick),
}

struct WorkItem {
    request_id: u64,
    request: Request,
    reply: Arc<ConnWriter>,
}

impl WorkItem {
    fn ops(&self) -> usize {
        match &self.request {
            Request::Write(t) => t.slots().len().max(1),
            Request::Read(t) => t.slots().len().max(1),
        }
    }
}

/// The write half of a connection, shared between its reader thread and
/// the batcher.  Send failures are remembered, not propagated: a peer
/// that vanished mid-response must not take the batcher down.
struct ConnWriter {
    id: u64,
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
}

impl ConnWriter {
    /// Write whole frames with one `write_all` under the mutex, so two
    /// writers' frames never interleave.
    fn send_frames(&self, frames: &[u8]) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut stream = self.stream.lock().expect("a connection writer panicked mid-write");
        if stream.write_all(frames).is_err() {
            self.dead.store(true, Ordering::Relaxed);
        }
    }

    /// Write the connection's last frames and close it both ways, under
    /// the mutex: no reply can follow them onto the wire.
    fn close_with(&self, frames: &[u8]) {
        let mut stream = self.stream.lock().expect("a connection writer panicked mid-write");
        if !self.dead.swap(true, Ordering::Relaxed) {
            let _ = stream.write_all(frames);
        }
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// The reply frames one drained batch earned, one buffer per connection,
/// each in queue order.
#[derive(Default)]
struct Outbox {
    buffers: HashMap<u64, (Arc<ConnWriter>, Vec<u8>)>,
}

impl Outbox {
    fn push(&mut self, to: &Arc<ConnWriter>, payload: &[u8]) {
        let (_, frames) = self.buffers.entry(to.id).or_insert_with(|| (Arc::clone(to), Vec::new()));
        append_frame(frames, payload);
    }

    /// One write per connection.  It may wait for a client that is busy
    /// writing; see "Why buffering cannot deadlock" in the module docs.
    fn send(self) {
        for (conn, frames) in self.buffers.into_values() {
            conn.send_frames(&frames);
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<WorkItem>>,
    cond: Condvar,
    /// Accept loop stops; set first on shutdown.
    shutting_down: AtomicBool,
    /// Readers are joined and the queue is complete; the batcher may
    /// exit once it runs dry.
    drained: AtomicBool,
    /// Reader-side stream clones, for half-closing on shutdown.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Reader thread handles, joined during shutdown.
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn enqueue(&self, item: WorkItem) {
        self.queue.lock().unwrap().push_back(item);
        self.cond.notify_all();
    }
}

enum JournalSink {
    Mem(Vec<u8>),
    File(BufWriter<File>),
}

impl Write for JournalSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            JournalSink::Mem(v) => v.write(buf),
            JournalSink::File(f) => f.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            JournalSink::Mem(v) => v.flush(),
            JournalSink::File(f) => f.flush(),
        }
    }
}

/// A running server.  Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the threads (the process exit
/// reaps them); tests and the server binary always shut down explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<(Engine, Option<JournalSink>, u64)>>,
}

impl ServerHandle {
    /// Bind, spawn the accept and batcher threads, and start serving.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            readers: Mutex::new(Vec::new()),
        });

        let journal = match &config.journal {
            JournalMode::Off => None,
            JournalMode::Memory => Some(JournalWriter::new(JournalSink::Mem(Vec::new()))),
            JournalMode::File(path) => {
                Some(JournalWriter::new(JournalSink::File(BufWriter::new(File::create(path)?))))
            }
        };

        let accept = {
            let shared = Arc::clone(&shared);
            let max_frame = config.max_frame_bytes;
            thread::Builder::new()
                .name("plis-accept".into())
                .spawn(move || accept_loop(listener, shared, max_frame))?
        };

        let batcher = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            thread::Builder::new()
                .name("plis-batcher".into())
                .spawn(move || batcher_loop(config, shared, journal))?
        };

        Ok(ServerHandle { addr, shared, accept: Some(accept), batcher: Some(batcher) })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, half-close every connection's
    /// read side, join the readers, drain the queue, and return the
    /// engine + snapshot + journal.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Stop the flow of new requests; responses still drain through
        // the write halves.
        for (_, stream) in self.shared.conns.lock().unwrap().iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let readers: Vec<_> = std::mem::take(&mut *self.shared.readers.lock().unwrap());
        for reader in readers {
            let _ = reader.join();
        }
        // The queue is now complete; let the batcher run dry and exit.
        self.shared.drained.store(true, Ordering::SeqCst);
        self.shared.cond.notify_all();
        let (engine, journal, ticks_executed) =
            self.batcher.take().expect("shutdown runs once").join().expect("batcher panicked");
        let snapshot = engine.snapshot();
        let journal = journal.and_then(|sink| match sink {
            JournalSink::Mem(bytes) => Some(bytes),
            JournalSink::File(mut file) => {
                let _ = file.flush();
                None
            }
        });
        ShutdownReport { engine, snapshot, journal, ticks_executed }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, max_frame: u32) {
    let mut next_conn = 0u64;
    while !shared.shutting_down.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_id = next_conn;
                next_conn += 1;
                if spawn_reader(&shared, stream, conn_id, max_frame).is_err() {
                    continue;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

fn spawn_reader(
    shared: &Arc<Shared>,
    stream: TcpStream,
    conn_id: u64,
    max_frame: u32,
) -> io::Result<()> {
    // The accepted socket may inherit the listener's non-blocking mode on
    // some platforms; readers want blocking reads.
    stream.set_nonblocking(false)?;
    let _ = stream.set_nodelay(true);
    let writer = Arc::new(ConnWriter {
        id: conn_id,
        stream: Mutex::new(stream.try_clone()?),
        dead: AtomicBool::new(false),
    });
    shared.conns.lock().unwrap().insert(conn_id, stream.try_clone()?);
    let handle = {
        let shared = Arc::clone(shared);
        thread::Builder::new().name(format!("plis-conn-{conn_id}")).spawn(move || {
            reader_loop(&stream, &writer, &shared, max_frame);
            shared.conns.lock().unwrap().remove(&conn_id);
        })?
    };
    shared.readers.lock().unwrap().push(handle);
    Ok(())
}

/// Serve one connection's read side until it closes or violates the
/// protocol.  Returns (and thereby closes the connection) on the first
/// violation, after sending a typed error frame.
fn reader_loop(stream: &TcpStream, writer: &Arc<ConnWriter>, shared: &Shared, max_frame: u32) {
    // The reader never waits for the batcher (the queue is unbounded):
    // see "Why buffering cannot deadlock" in the module docs.
    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, stream);
    loop {
        let payload = match read_frame(&mut reader, max_frame) {
            // Peer closed (cleanly or mid-frame): no protocol violation,
            // nothing to answer, nothing reached the engine.
            Ok(FrameRead::Closed) | Ok(FrameRead::Torn) => return,
            // Frame-level damage precedes the request id.
            Ok(FrameRead::Rejected(err)) => return reject(writer, 0, &err),
            Ok(FrameRead::Payload(payload)) => payload,
            Err(_) => return,
        };
        let msg = match parse_message(&payload) {
            Ok(msg) => msg,
            Err(err) => return reject(writer, 0, &err),
        };
        let request = match msg.tag {
            TAG_SUBMIT => decode_tick(msg.body).map(Request::Write),
            TAG_READ => decode_read_tick(msg.body).map(Request::Read),
            other => return reject(writer, msg.request_id, &ProtocolError::UnknownTag(other)),
        };
        match request {
            Ok(request) => shared.enqueue(WorkItem {
                request_id: msg.request_id,
                request,
                reply: Arc::clone(writer),
            }),
            Err(e) => return reject(writer, msg.request_id, &ProtocolError::BadPayload(e)),
        }
    }
}

/// Answer a protocol violation with its typed error frame, then close the
/// connection both ways.
fn reject(writer: &ConnWriter, request_id: u64, error: &ProtocolError) {
    let mut frame = Vec::new();
    append_frame(&mut frame, &error_message(request_id, error));
    writer.close_with(&frame);
}

fn batcher_loop(
    config: ServerConfig,
    shared: Arc<Shared>,
    mut journal: Option<JournalWriter<JournalSink>>,
) -> (Engine, Option<JournalSink>, u64) {
    let mut engine = Engine::new(config.engine.clone());
    let pool = config.worker_threads.map(|n| {
        rayon::ThreadPoolBuilder::new().num_threads(n).build().expect("pool build cannot fail")
    });
    let mut ticks_executed = 0u64;
    loop {
        let batch = collect_batch(&shared, &config);
        if batch.is_empty() {
            // Only returned empty when drained and dry.
            return (engine, journal.map(JournalWriter::into_inner), ticks_executed);
        }
        ticks_executed += execute_batch(&mut engine, pool.as_ref(), journal.as_mut(), batch) as u64;
    }
}

/// Block until at least one work item is available (or the server is
/// drained dry), then keep collecting until the size or time trigger
/// fires.  Returns an empty batch only at drained-and-dry.
fn collect_batch(shared: &Shared, config: &ServerConfig) -> Vec<WorkItem> {
    let mut batch = Vec::new();
    let mut ops = 0usize;
    let mut deadline: Option<Instant> = None;
    let mut queue = shared.queue.lock().unwrap();
    loop {
        while ops < config.batch_max_ops {
            match queue.pop_front() {
                Some(item) => {
                    ops += item.ops();
                    batch.push(item);
                }
                None => break,
            }
        }
        if ops >= config.batch_max_ops {
            return batch;
        }
        let drained = shared.drained.load(Ordering::SeqCst);
        if batch.is_empty() {
            if drained {
                return batch;
            }
            // Nothing to do yet; park until work or shutdown arrives.
            // The timeout is a backstop against a lost wakeup.
            queue = shared.cond.wait_timeout(queue, Duration::from_millis(50)).unwrap().0;
            continue;
        }
        if drained {
            // No more producers: waiting out the time trigger is
            // pointless, ship what we have.
            return batch;
        }
        let until = *deadline.get_or_insert_with(|| Instant::now() + config.batch_max_wait);
        let now = Instant::now();
        if now >= until {
            return batch;
        }
        let (guard, timeout) = shared.cond.wait_timeout(queue, until - now).unwrap();
        queue = guard;
        if timeout.timed_out() && queue.is_empty() {
            return batch;
        }
    }
}

/// Execute one drained batch: coalesce consecutive requests into combined
/// ticks, journal each combined tick before running it, frame per-request
/// outcome slices into their connections' buffers, and write each buffer
/// once after the last run.  Returns the number of combined ticks
/// executed.
fn execute_batch(
    engine: &mut Engine,
    pool: Option<&rayon::ThreadPool>,
    mut journal: Option<&mut JournalWriter<JournalSink>>,
    batch: Vec<WorkItem>,
) -> usize {
    let mut outbox = Outbox::default();
    let mut executed = 0usize;
    let mut items = batch.into_iter().peekable();
    while items.peek().is_some() {
        // The run's `create_missing` flag, fixed by its first write.
        let mut creates = None;
        let mut run = Vec::new();
        while let Some(item) = items.next_if(|item| match (&item.request, creates) {
            (Request::Write(tick), Some(flag)) => tick.creates_missing() == flag,
            _ => true,
        }) {
            if let Request::Write(tick) = &item.request {
                creates = Some(tick.creates_missing());
            }
            run.push(item);
        }
        execute_run(engine, pool, journal.as_deref_mut(), creates == Some(true), run, &mut outbox);
        executed += 1;
    }
    outbox.send();
    executed
}

/// Where one request's replies sit in a combined tick: the request, its
/// connection, whether it was a read, and how many slots it holds.
struct Route {
    request_id: u64,
    reply: Arc<ConnWriter>,
    read: bool,
    slots: usize,
}

fn execute_run(
    engine: &mut Engine,
    pool: Option<&rayon::ThreadPool>,
    journal: Option<&mut JournalWriter<JournalSink>>,
    creates_missing: bool,
    run: Vec<WorkItem>,
    outbox: &mut Outbox,
) {
    let mut combined = if creates_missing { Tick::new().auto_create() } else { Tick::new() };
    let mut routes = Vec::with_capacity(run.len());
    for item in run {
        let start = combined.len();
        let read = match item.request {
            Request::Write(tick) => {
                combined.extend(tick.into_slots());
                false
            }
            Request::Read(tick) => {
                combined.extend(tick.into_slots());
                true
            }
        };
        let slots = combined.len() - start;
        routes.push(Route { request_id: item.request_id, reply: item.reply, read, slots });
    }
    if let Some(journal) = journal {
        // Before execution: the recovery contract replays journalled
        // ticks, so a tick that executed but never reached the journal
        // would be lost.
        journal.append(&encode_tick(&combined)).expect("journal append failed");
    }
    let outcome = match pool {
        Some(pool) => pool.install(|| engine.execute(&combined)),
        None => engine.execute(&combined),
    };
    let (worker_threads, elapsed_ns) = (outcome.worker_threads, outcome.elapsed_ns);
    let mut results = outcome.outcomes.into_iter();
    for route in routes {
        let part = results.by_ref().take(route.slots);
        let reply = if route.read {
            let read = ReadOutcome::from_query_results(part, worker_threads, elapsed_ns);
            message(TAG_READ_OUTCOME, route.request_id, &encode_read_outcome(&read))
        } else {
            let write = TickOutcome::from_parts(part.collect(), worker_threads, elapsed_ns);
            message(TAG_TICK_OUTCOME, route.request_id, &encode_tick_outcome(&write))
        };
        outbox.push(&route.reply, &reply);
    }
}
