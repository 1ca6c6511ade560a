//! The gateway behind a real socket: a TCP server exposing the cluster's
//! data plane (`put` / `put_batch` / streaming `scan`) over the `wire`
//! protocol, so remote driver agents exercise the same replication,
//! fault-injection, and topology machinery the in-process benchmark does.
//!
//! One accept loop, one handler thread per connection. The cluster sits
//! behind an `RwLock`: data operations take the read side (the cluster
//! is internally synchronized), while the controller takes the write
//! side for `purge` between iterations — so a scan never observes a
//! half-purged keyspace. Handler reads run under the mandatory
//! `FrameConn` timeout, and `stop()` shuts every live socket down, so
//! the server can always be torn down promptly.
//!
//! Connection lifecycle: the accept loop registers a raw clone of each
//! accepted socket under a connection id, so `stop()` can reach it. The
//! handler unregisters that clone however it exits (EOF, idle timeout,
//! wire error, `Shutdown` or a panic), which closes the socket: the peer
//! sees EOF at once, and the registry holds only live connections.

use crate::cluster::Cluster;
use crate::GatewayError;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use wire::{FrameConn, Message, WireError};

/// How long the accept loop sleeps between non-blocking accept polls.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Raw clones of the live connections' streams by connection id, kept
/// so `stop()` can unblock handlers parked in a read.
type Registry = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// A running gateway socket server. Dropping it stops the accept loop
/// and severs every open connection.
pub struct GatewayServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Registry,
    accept_thread: Option<JoinHandle<()>>,
}

impl GatewayServer {
    /// Binds `bind_addr` (use `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `cluster`. `read_timeout` bounds every socket read
    /// in the handler threads.
    pub fn start(
        cluster: Arc<RwLock<Cluster>>,
        bind_addr: &str,
        read_timeout: Duration,
    ) -> Result<GatewayServer, WireError> {
        if read_timeout.is_zero() {
            return Err(WireError::permanent("server read timeout must be nonzero"));
        }
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept + poll keeps shutdown simple: the loop
        // re-checks the stop flag between polls instead of needing a
        // self-dial to wake a blocking accept.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Registry::default();
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                accept_loop(listener, cluster, stop, conns, read_timeout);
            })
        };
        Ok(GatewayServer {
            addr,
            stop,
            conns,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections whose handler has not exited yet.
    #[cfg(test)]
    fn live_connections(&self) -> usize {
        self.conns.lock().len()
    }

    /// Stops the accept loop and severs every open connection. Handler
    /// threads observe the dead socket on their next read and exit.
    pub fn stop(&mut self) {
        // ordering: Relaxed — the flag is a latch polled by the accept
        // loop and handlers; no data is published through it.
        self.stop.store(true, Ordering::Relaxed);
        for (_, conn) in self.conns.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for GatewayServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A handler's entry in the registry; dropping it, on whatever path the
/// handler leaves by, closes the registry's clone of the socket.
struct Registered {
    conns: Registry,
    id: u64,
}

impl Drop for Registered {
    fn drop(&mut self) {
        self.conns.lock().remove(&self.id);
    }
}

fn accept_loop(
    listener: TcpListener,
    cluster: Arc<RwLock<Cluster>>,
    stop: Arc<AtomicBool>,
    conns: Registry,
    read_timeout: Duration,
) {
    let mut next_id = 0u64;
    // ordering: Relaxed — shutdown latch (see `stop`).
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The accepted socket may inherit non-blocking mode from
                // the listener on some platforms; handlers read blocking
                // under the FrameConn timeout.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                // Without a clone `stop()` could not unblock the handler,
                // so a socket that cannot be cloned is not served.
                let Ok(raw) = stream.try_clone() else {
                    continue;
                };
                let id = next_id;
                next_id += 1;
                conns.lock().insert(id, raw);
                let registered = Registered {
                    conns: Arc::clone(&conns),
                    id,
                };
                let cluster = Arc::clone(&cluster);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let _registered = registered;
                    if let Ok(conn) = FrameConn::new(stream, read_timeout) {
                        serve_conn(conn, cluster, stop);
                    }
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// One connection's request loop: handshake, then serve until the peer
/// disconnects, sends `Shutdown`, or the server stops.
fn serve_conn(mut conn: FrameConn, cluster: Arc<RwLock<Cluster>>, stop: Arc<AtomicBool>) {
    if conn.server_handshake().is_err() {
        return;
    }
    // ordering: Relaxed — shutdown latch.
    while !stop.load(Ordering::Relaxed) {
        let request = match conn.recv() {
            Ok(msg) => msg,
            // Timeouts, resets, and EOF all end the connection; the
            // client owns reconnect policy.
            Err(_) => return,
        };
        let done = matches!(request, Message::Shutdown);
        if handle_request(&mut conn, &cluster, request).is_err() || done {
            return;
        }
    }
}

/// Maps a gateway failure onto an `Err` frame that preserves the
/// transient/permanent classification for the client's retry machinery.
fn error_frame(e: &GatewayError) -> Message {
    Message::Err {
        transient: e.is_transient(),
        message: e.to_string(),
    }
}

fn handle_request(
    conn: &mut FrameConn,
    cluster: &Arc<RwLock<Cluster>>,
    request: Message,
) -> Result<(), WireError> {
    match request {
        Message::Ping => conn.send(&Message::Pong),
        Message::Put { key, value } => {
            // lint:allow(blocking-under-lock) the cluster RwLock is taken
            // for *read*: data-plane ops run concurrently under read
            // guards and are expected to fsync. The only writer is
            // topology reconfiguration, which is rare and epoch-fenced;
            // the guard means "op in flight", not mutual exclusion.
            let reply = match cluster.read().put(&key, &value) {
                Ok(()) => Message::Ok,
                Err(e) => error_frame(&e),
            };
            conn.send(&reply)
        }
        Message::PutBatch { items } => {
            let owned: Vec<(bytes::Bytes, bytes::Bytes)> = items
                .into_iter()
                .map(|(k, v)| (bytes::Bytes::from(k), bytes::Bytes::from(v)))
                .collect();
            // lint:allow(blocking-under-lock) same shared-read contract
            // as Put above: concurrent data-plane ops under read guards
            // fsync by design.
            let reply = match cluster.read().put_batch(&owned) {
                Ok(()) => Message::Ok,
                Err(e) => error_frame(&e),
            };
            conn.send(&reply)
        }
        Message::Scan { start, end, limit } => {
            // Stream rows one frame at a time under the read guard; the
            // cluster's scan cursor already absorbs node failovers, so a
            // mid-stream fault surfaces here only if no replica can
            // serve — which the client sees as an Err frame.
            let guard = cluster.read();
            let mut rows = 0u64;
            for item in guard.scan_stream(&start, &end) {
                if rows >= limit {
                    break;
                }
                match item {
                    Ok((k, v)) => {
                        // lint:allow(blocking-under-lock) the stream must
                        // stay under the read guard — dropping it
                        // mid-scan would race a topology split and
                        // invalidate the cursor — and each send is
                        // bounded by FrameConn's mandatory write timeout,
                        // so a stalled peer costs one timeout, not a
                        // wedge.
                        conn.send(&Message::ScanRow {
                            key: k.to_vec(),
                            value: v.to_vec(),
                        })?;
                        rows += 1;
                    }
                    // lint:allow(blocking-under-lock) terminal error
                    // frame; bounded by the mandatory write timeout.
                    Err(e) => return conn.send(&error_frame(&e)),
                }
            }
            // lint:allow(blocking-under-lock) end-of-stream marker under
            // the same guard and write-timeout bound as the rows above.
            conn.send(&Message::ScanDone { rows })
        }
        Message::GetStats => {
            let guard = cluster.read();
            let reply = Message::Stats {
                replication: guard.effective_replication() as u32,
                ingested: guard.stats().puts,
            };
            drop(guard);
            conn.send(&reply)
        }
        Message::Shutdown => conn.send(&Message::Ok),
        other => conn.send(&Message::Err {
            transient: false,
            message: format!("gateway server cannot serve {}", other.name()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "gw-server-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn start_cluster(name: &str) -> (Arc<RwLock<Cluster>>, PathBuf) {
        let dir = tmpdir(name);
        let mut config = ClusterConfig::new(&dir, 3);
        config.storage = iotkv::Options::small();
        (Arc::new(RwLock::new(Cluster::start(config).unwrap())), dir)
    }

    fn dial(server: &GatewayServer) -> FrameConn {
        let mut conn =
            FrameConn::connect(&server.local_addr().to_string(), Duration::from_secs(5)).unwrap();
        conn.client_handshake(wire::msg::ROLE_DRIVER).unwrap();
        conn
    }

    #[test]
    fn serves_put_scan_and_stats_over_loopback() {
        let (cluster, dir) = start_cluster("roundtrip");
        let mut server =
            GatewayServer::start(Arc::clone(&cluster), "127.0.0.1:0", Duration::from_secs(5))
                .unwrap();
        let mut conn = dial(&server);

        for i in 0..5 {
            let reply = conn
                .request(&Message::Put {
                    key: format!("k{i:02}").into_bytes(),
                    value: b"v".to_vec(),
                })
                .unwrap();
            assert!(matches!(reply, Message::Ok), "{reply:?}");
        }
        let reply = conn
            .request(&Message::PutBatch {
                items: vec![
                    (b"k05".to_vec(), b"v".to_vec()),
                    (b"k06".to_vec(), b"v".to_vec()),
                ],
            })
            .unwrap();
        assert!(matches!(reply, Message::Ok), "{reply:?}");

        conn.send(&Message::Scan {
            start: b"k".to_vec(),
            end: b"l".to_vec(),
            limit: u64::MAX,
        })
        .unwrap();
        let mut keys = Vec::new();
        loop {
            match conn.recv().unwrap() {
                Message::ScanRow { key, .. } => keys.push(key),
                Message::ScanDone { rows } => {
                    assert_eq!(rows, 7);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(keys.len(), 7);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "rows in key order");

        match conn.request(&Message::GetStats).unwrap() {
            Message::Stats {
                replication,
                ingested,
            } => {
                assert_eq!(replication, 3);
                assert_eq!(ingested, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        server.stop();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scan_limit_truncates_the_stream() {
        let (cluster, dir) = start_cluster("limit");
        let mut server =
            GatewayServer::start(Arc::clone(&cluster), "127.0.0.1:0", Duration::from_secs(5))
                .unwrap();
        let mut conn = dial(&server);
        for i in 0..10 {
            conn.request(&Message::Put {
                key: format!("k{i:02}").into_bytes(),
                value: b"v".to_vec(),
            })
            .unwrap();
        }
        conn.send(&Message::Scan {
            start: b"k".to_vec(),
            end: b"l".to_vec(),
            limit: 3,
        })
        .unwrap();
        let mut rows = 0;
        loop {
            match conn.recv().unwrap() {
                Message::ScanRow { .. } => rows += 1,
                Message::ScanDone { rows: n } => {
                    assert_eq!(n, 3);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(rows, 3);
        server.stop();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unsupported_message_yields_permanent_err_frame() {
        let (cluster, dir) = start_cluster("unsupported");
        let mut server =
            GatewayServer::start(Arc::clone(&cluster), "127.0.0.1:0", Duration::from_secs(5))
                .unwrap();
        let mut conn = dial(&server);
        match conn.request(&Message::Pong).unwrap() {
            Message::Err { transient, message } => {
                assert!(!transient);
                assert!(message.contains("Pong"));
            }
            other => panic!("unexpected {other:?}"),
        }
        server.stop();
        std::fs::remove_dir_all(dir).ok();
    }

    /// Waits, for at most `limit`, until every handler has exited.
    fn await_no_live_connections(server: &GatewayServer, limit: Duration) {
        let deadline = std::time::Instant::now() + limit;
        while server.live_connections() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn idle_timed_out_connection_gets_eof_not_a_client_timeout() {
        let (cluster, dir) = start_cluster("idle");
        let mut server = GatewayServer::start(
            Arc::clone(&cluster),
            "127.0.0.1:0",
            Duration::from_millis(200),
        )
        .unwrap();
        // The client reads with a 5 s timeout; the server's 200 ms read
        // timeout ends the handler first.
        let mut conn = dial(&server);
        await_no_live_connections(&server, Duration::from_secs(2));
        let asked = std::time::Instant::now();
        assert!(conn.request(&Message::Ping).is_err());
        let waited = asked.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "a closed connection must fail fast, not after {waited:?}"
        );
        server.stop();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn finished_connections_leave_the_registry() {
        let (cluster, dir) = start_cluster("churn");
        let mut server =
            GatewayServer::start(Arc::clone(&cluster), "127.0.0.1:0", Duration::from_secs(5))
                .unwrap();
        for _ in 0..50 {
            drop(dial(&server));
        }
        await_no_live_connections(&server, Duration::from_secs(5));
        assert_eq!(server.live_connections(), 0, "a clone outlived its handler");
        server.stop();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn stop_unblocks_connected_clients() {
        let (cluster, dir) = start_cluster("stop");
        let mut server =
            GatewayServer::start(Arc::clone(&cluster), "127.0.0.1:0", Duration::from_secs(30))
                .unwrap();
        let mut conn = dial(&server);
        server.stop();
        // The severed socket surfaces as an error, not a 30s hang.
        assert!(conn.request(&Message::Ping).is_err());
        std::fs::remove_dir_all(dir).ok();
    }
}
