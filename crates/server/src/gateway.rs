//! The gateway layer: TCP accept loop and per-connection read loops.
//!
//! The gateway's entire job is moving bytes between sockets and the
//! [services layer](crate::service): each connection's stream is
//! reassembled by an [`msb_wire::stream::FrameStream`] bounded at
//! [`ServerConfig::max_frame_len`](crate::ServerConfig::max_frame_len),
//! every complete frame is routed through
//! [`Services::handle_frame`](crate::service::Services::handle_frame),
//! and the response is written back — strict request/response lockstep.
//!
//! Reframing errors are connection-fatal (see
//! [`msb_wire::stream`]): the gateway counts the reject (splitting the
//! oversize-declaration case for the stats endpoint), best-effort
//! writes a rejecting [`Ack`], and drops the
//! connection. A mid-frame disconnect is just an EOF with residual
//! buffered bytes — logged in no counter, harmful to no one.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use msb_wire::stream::FrameStream;
use msb_wire::Message;

use crate::metrics::ServerStats;
use crate::proto::{Ack, AckCode};
use crate::service::Services;
use crate::{worker, ServerConfig};

/// State shared by the accept loop, every connection thread, and the
/// cleanup worker.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) services: Services,
    pub(crate) shutdown: AtomicBool,
    /// The server's monotonic epoch; `now_us` everywhere is micros
    /// since this instant (so the guard and TTLs never see wall-clock
    /// steps).
    pub(crate) start: Instant,
    pub(crate) cleanup_interval_ms: u64,
}

impl Shared {
    pub(crate) fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

/// A running relay server: spawn with [`RelayServer::spawn`], connect
/// [`RelayClient`](crate::client::RelayClient)s to
/// [`RelayServer::addr`], stop with [`RelayServer::shutdown`] (also
/// runs on drop).
#[derive(Debug)]
pub struct RelayServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    cleanup_handle: Option<JoinHandle<()>>,
}

impl RelayServer {
    /// Binds a loopback listener on an OS-assigned port and starts the
    /// accept loop and cleanup worker.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            cleanup_interval_ms: config.cleanup_interval_ms,
            services: Services::new(config),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
        });
        let accept_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        let cleanup_handle = Some(worker::spawn_cleanup(Arc::clone(&shared)));
        Ok(RelayServer { addr, shared, accept_handle: Some(accept_handle), cleanup_handle })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live stats snapshot, read in-process (the wire endpoint is
    /// [`StatsReq`](crate::proto::StatsReq)).
    pub fn stats(&self) -> crate::metrics::StatsSnapshot {
        let mut conn = None;
        let req = crate::proto::StatsReq.encode();
        let resp = self.shared.services.handle_frame(
            &mut conn,
            &bytes::Bytes::from(req),
            self.shared.now_us(),
        );
        crate::metrics::StatsSnapshot::decode(&resp).expect("server encoded its own snapshot")
    }

    /// A live metrics dump — the stats snapshot plus peak gauges and
    /// per-op service-time histograms — read in-process (the wire
    /// endpoint is [`MetricsReq`](crate::proto::MetricsReq)).
    pub fn metrics(&self) -> crate::metrics::MetricsDump {
        let mut conn = None;
        let req = crate::proto::MetricsReq.encode();
        let resp = self.shared.services.handle_frame(
            &mut conn,
            &bytes::Bytes::from(req),
            self.shared.now_us(),
        );
        crate::metrics::MetricsDump::decode(&resp).expect("server encoded its own dump")
    }

    /// The current metrics as a Prometheus-style text exposition.
    pub fn exposition(&self) -> String {
        self.metrics().exposition()
    }

    /// Stops the accept loop, every connection, and the cleanup
    /// worker, joining them all — after this returns, no server thread
    /// is running.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.cleanup_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RelayServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections until shutdown; joins every connection thread
/// before returning (clean shutdown means *no* thread outlives the
/// server handle).
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                conns.push(std::thread::spawn(move || connection_loop(stream, shared)));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
        // Reap finished connection threads so the list stays small.
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
}

/// One connection: read → reframe → route → respond, until EOF,
/// shutdown, or a fatal framing error.
fn connection_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    if stream.set_read_timeout(Some(Duration::from_millis(20))).is_err() {
        return;
    }
    let mut frames = FrameStream::new(shared.services.max_frame_len());
    let mut client: Option<u32> = None;
    let mut buf = vec![0u8; 16 * 1024];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return, // EOF — possibly mid-frame; nothing owed
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => return,
        };
        if let Err(e) = frames.push(&buf[..n]) {
            reject_and_close(&mut stream, &shared, &e);
            return;
        }
        loop {
            match frames.next_frame() {
                Ok(Some(frame)) => {
                    ServerStats::bump(&shared.services.stats.frames_in);
                    let resp = shared.services.handle_frame(&mut client, &frame, shared.now_us());
                    if stream.write_all(&resp).is_err() {
                        return;
                    }
                    ServerStats::bump(&shared.services.stats.frames_out);
                }
                Ok(None) => break,
                Err(e) => {
                    reject_and_close(&mut stream, &shared, &e);
                    return;
                }
            }
        }
    }
}

/// Counts a fatal framing error and best-effort tells the peer why
/// before the connection drops.
fn reject_and_close(stream: &mut TcpStream, shared: &Shared, err: &msb_wire::DecodeError) {
    shared.services.note_stream_error(err);
    let _ = stream.write_all(&Ack::err(AckCode::Rejected).encode());
    let _ = stream.flush();
}
