//! The connection layer under [`FleetRuntime`](crate::FleetRuntime):
//! the non-blocking socket traits every prover connection and listener
//! implements, and the per-connection receive/transmit state the
//! reactors service.
//!
//! [`GatewayConn`] is implemented for TCP and Unix-domain streams,
//! [`GatewayListener`] for their listeners, and [`NoListener`] stands
//! in when every connection is adopted by hand (socketpair fabrics in
//! tests and benches). The routing, hello and hangup rules that give
//! these connections their verdict semantics are documented on the
//! [runtime module](crate::runtime).

use crate::stream::WriteQueue;
use apex_pox::wire::StreamDeframer;
use std::io::{self, ErrorKind, Read, Write};
use std::marker::PhantomData;
use std::net::{TcpListener, TcpStream};

/// A peer byte stream a reactor can service without ever blocking on
/// it.
pub trait GatewayConn: Read + Write {
    /// Puts the stream into non-blocking mode (and applies any
    /// transport-specific tuning, like `TCP_NODELAY`). Called once when
    /// the connection enters the runtime.
    ///
    /// # Errors
    ///
    /// Any configure error from the socket layer.
    fn prepare(&mut self) -> io::Result<()>;
}

impl GatewayConn for TcpStream {
    fn prepare(&mut self) -> io::Result<()> {
        self.set_nonblocking(true)?;
        // Challenges and evidence are small back-to-back frames; Nagle
        // + delayed ACKs would add ~40 ms per exchange.
        self.set_nodelay(true)
    }
}

#[cfg(unix)]
impl GatewayConn for std::os::unix::net::UnixStream {
    fn prepare(&mut self) -> io::Result<()> {
        self.set_nonblocking(true)
    }
}

/// A listening socket the runtime can poll without blocking.
pub trait GatewayListener {
    /// The accepted connection type.
    type Conn: GatewayConn;

    /// Puts the listener into non-blocking mode. Called once when the
    /// runtime takes ownership.
    ///
    /// # Errors
    ///
    /// Any configure error from the socket layer.
    fn prepare(&mut self) -> io::Result<()>;

    /// Accepts one pending connection, or `None` when nobody is
    /// waiting right now.
    ///
    /// # Errors
    ///
    /// Any accept error other than "no connection pending".
    fn poll_accept(&mut self) -> io::Result<Option<Self::Conn>>;
}

impl GatewayListener for TcpListener {
    type Conn = TcpStream;

    fn prepare(&mut self) -> io::Result<()> {
        self.set_nonblocking(true)
    }

    fn poll_accept(&mut self) -> io::Result<Option<TcpStream>> {
        match self.accept() {
            Ok((conn, _)) => Ok(Some(conn)),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(unix)]
impl GatewayListener for std::os::unix::net::UnixListener {
    type Conn = std::os::unix::net::UnixStream;

    fn prepare(&mut self) -> io::Result<()> {
        self.set_nonblocking(true)
    }

    fn poll_accept(&mut self) -> io::Result<Option<Self::Conn>> {
        match self.accept() {
            Ok((conn, _)) => Ok(Some(conn)),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// The "nobody ever dials in" listener, for runtimes fed purely through
/// [`FleetRuntime::adopt`](crate::FleetRuntime::adopt) — socketpair
/// fabrics in tests and benches.
pub struct NoListener<C>(PhantomData<C>);

impl<C: GatewayConn> GatewayListener for NoListener<C> {
    type Conn = C;

    fn prepare(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn poll_accept(&mut self) -> io::Result<Option<C>> {
        Ok(None)
    }
}

/// One accepted prover connection: its stream, receive framing state,
/// and bounded transmit queue, held in a reactor's connection slab
/// ([`crate::reactor`]).
pub(crate) struct Peer<C> {
    pub(crate) stream: C,
    pub(crate) deframer: StreamDeframer,
    pub(crate) outbox: WriteQueue,
    /// Devices currently routed to this connection, bounded by
    /// [`MAX_ROUTED_PER_CONN`] so a hostile peer cannot grow the route
    /// map without bound by announcing fabricated ids.
    pub(crate) routed: usize,
    /// Set when the connection must be reaped: EOF, I/O error, a
    /// poisoned deframer, an overflowing write queue, or a route flood.
    pub(crate) dead: bool,
}

impl<C: GatewayConn> Peer<C> {
    pub(crate) fn new(stream: C) -> Peer<C> {
        Peer {
            stream,
            deframer: StreamDeframer::new(),
            outbox: WriteQueue::default(),
            routed: 0,
            dead: false,
        }
    }
}

/// How many devices one connection may claim to host. Real prover
/// hosts carrying thousands of devices fit comfortably; a peer
/// streaming fabricated hellos to bloat the route map is dropped when
/// it crosses the bound.
pub const MAX_ROUTED_PER_CONN: usize = 4096;
