//! The TCP front door: framed sockets in, engine intake out.
//!
//! [`KvServer`] binds a listener, hosts the replica group in-process (a
//! [`KvEngine`](crate::KvEngine) running the n-replica consensus
//! session), and bridges each accepted socket to the engine:
//!
//! * a **reader thread** per connection decodes request frames and
//!   submits them on the engine's intake channel; a clean EOF, a
//!   truncated frame, or a malformed message deregisters the connection
//!   (the protocol has no error responses — a peer that cannot speak it
//!   is dropped);
//! * a **writer thread** per connection forwards the engine's
//!   acknowledgements back as response frames.
//!
//! A client that dies mid-request costs the server nothing: the reader
//! sees EOF, deregisters, and the command — if already batched — still
//! commits; its ack goes nowhere. When the client reconnects and replays
//! the same `(ClientId, RequestId)`, the engine's dedup layer answers
//! from the decided log without a second apply. The integration suite
//! kills clients mid-request to pin this down.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::{EngineConfig, EngineHandle, KvEngine, Outbound};
use crate::proto::{
    lease_state_request_shard, stats_request_shard, Request, SyncFrame, TAG_AUDIT_REQUEST,
    TAG_LEASE_STATE_REQUEST, TAG_REQUEST, TAG_STATS_REQUEST, TAG_SYNC_REQUEST,
};
use crate::shard::ShardedAudit;
use crate::wire::{write_frame, FrameReader};

/// A running networked replicated-KV service.
#[derive(Debug)]
pub struct KvServer {
    engine: KvEngine,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    /// Live sockets, for shutdown to unblock their reader threads.
    socks: Arc<Mutex<Vec<TcpStream>>>,
}

impl KvServer {
    /// Spawns the engine and binds the listener (use port 0 for an
    /// ephemeral port; [`addr`](KvServer::addr) reports the real one).
    pub fn bind(addr: &str, config: EngineConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let engine = KvEngine::spawn(config);
        let handle = engine.handle();
        let stop = Arc::new(AtomicBool::new(false));
        let socks: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let socks = Arc::clone(&socks);
            std::thread::spawn(move || accept_loop(&listener, &handle, &stop, &socks))
        };
        Ok(KvServer { engine, addr, stop, acceptor: Some(acceptor), socks })
    }

    /// The bound address clients connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for opening in-process sessions ([`crate::LocalKv`])
    /// against the same engine the sockets feed.
    #[must_use]
    pub fn engine(&self) -> EngineHandle {
        self.engine.handle()
    }

    /// Stops accepting, closes every live socket, drains the engine, and
    /// returns the audit.
    ///
    /// # Panics
    ///
    /// Panics if the acceptor or engine driver thread panicked.
    #[must_use]
    pub fn shutdown(mut self) -> ShardedAudit {
        self.stop_accepting().expect("acceptor thread panicked");
        // Closing the sockets unblocks the per-connection reader threads,
        // whose exits deregister their connections from the engine.
        for s in self.socks.lock().expect("socket registry poisoned").drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
        self.engine.shutdown()
    }

    /// Hard-crashes the server: sockets are torn down and the engine is
    /// killed without draining or checkpointing — the on-disk state is
    /// whatever the last slot-boundary fsync left. The in-process analog
    /// of `kill -9`, for recovery tests; restart with
    /// [`bind`](KvServer::bind) on the same durability directory.
    pub fn kill(mut self) {
        let _ = self.stop_accepting();
        for s in self.socks.lock().expect("socket registry poisoned").drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
        self.engine.kill();
    }

    /// Sets `stop`, wakes the acceptor's blocking `accept` with one
    /// connection to ourselves, and joins it.
    fn stop_accepting(&mut self) -> std::thread::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // A refused connect means the listener, which the acceptor owns,
        // is already closed.
        let _ = TcpStream::connect(wake);
        self.acceptor.take().map_or(Ok(()), JoinHandle::join)
    }
}

/// Accepts connections until told to stop; each connection gets a reader
/// and a writer thread. `accept` blocks: a stop is signalled by setting
/// `stop` and then connecting once, and any socket accepted after `stop`
/// (that wake-up, or a client racing it) is dropped.
fn accept_loop(
    listener: &TcpListener,
    engine: &EngineHandle,
    stop: &AtomicBool,
    socks: &Mutex<Vec<TcpStream>>,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                if let Err(e) = spawn_connection(stream, engine, socks) {
                    // A socket that failed setup is dropped; the peer
                    // sees a closed connection and retries elsewhere.
                    let _ = e;
                }
            }
            // Back off from a persistent error (e.g. out of descriptors)
            // instead of spinning on it.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Wires one accepted socket to the engine.
fn spawn_connection(
    stream: TcpStream,
    engine: &EngineHandle,
    socks: &Mutex<Vec<TcpStream>>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let read_side = stream.try_clone()?;
    let mut write_side = stream.try_clone()?;
    socks.lock().expect("socket registry poisoned").push(stream);

    let (submit, acks) = engine.connect();

    // Writer: engine outbound -> frames. Acks are encoded responses;
    // control payloads (sync stream, audit reply) are pre-encoded by the
    // engine and written verbatim. Exits when the engine drops the
    // connection's sender (deregistration) or the socket dies.
    let wsock = write_side.try_clone()?;
    std::thread::spawn(move || {
        while let Ok(out) = acks.recv() {
            let bytes = match out {
                Outbound::Ack(resp) => resp.encode(),
                Outbound::Control(bytes) => bytes,
            };
            if write_frame(&mut write_side, &bytes).is_err() {
                break;
            }
        }
    });

    // Reader: inbound frames -> engine intake, dispatched on the tag
    // byte (requests, sync requests from rejoining replicas, audit
    // requests). Owns the SubmitHandle, so its exit (EOF, truncation,
    // garbage) deregisters the connection, which disconnects the
    // writer's receiver and lets it exit too.
    std::thread::spawn(move || {
        let mut reader = FrameReader::new(read_side);
        while let Ok(Some(payload)) = reader.read_frame() {
            let keep_going = match payload.first() {
                Some(&TAG_REQUEST) => match Request::decode(&payload) {
                    Ok(request) => submit.submit(request),
                    Err(_) => false,
                },
                Some(&TAG_SYNC_REQUEST) => match SyncFrame::decode(&payload) {
                    Ok(SyncFrame::Request { shard, .. }) => submit.request_sync(shard),
                    _ => false,
                },
                Some(&TAG_AUDIT_REQUEST) => submit.request_audit(),
                Some(&TAG_LEASE_STATE_REQUEST) => match lease_state_request_shard(&payload) {
                    Ok(shard) => submit.request_lease_state(shard),
                    Err(_) => false,
                },
                Some(&TAG_STATS_REQUEST) => match stats_request_shard(&payload) {
                    Ok(shard) => submit.request_stats(shard),
                    Err(_) => false,
                },
                _ => false,
            };
            if !keep_going {
                break;
            }
        }
        // Unblock the writer promptly even if the engine keeps the ack
        // sender alive briefly.
        let _ = wsock.shutdown(Shutdown::Write);
        drop(submit);
    });
    Ok(())
}
