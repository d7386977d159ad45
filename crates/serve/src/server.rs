//! The TCP front-end: a nonblocking reactor ([`crate::reactor`]) that
//! holds every connection in one readiness loop per reactor thread — the
//! shape that carries 10K concurrent sessions — over the dependency-free
//! OS bindings in [`crate::sys`]. Unix-only, like those two modules; the
//! in-process API builds everywhere.
//!
//! The transport adds nothing to the in-process API: every frame decodes
//! to a [`Request`](crate::Request), goes through the
//! [`SessionManager`], and the [`Response`](crate::Response) is framed
//! straight back. The only requests the transport itself interprets are
//! `Shutdown` (stop the server) and `Stats` (overlay connection counts
//! on the manager's counters).
//!
//! Graceful drain: stop accepting, answer queued requests with
//! `ShuttingDown`, finish in-flight shard work, flush, close.
//! [`ServerHandle::drain_trigger`] hands out a [`DrainTrigger`] that a
//! signal watcher can fire from any thread.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::manager::{ServeConfig, SessionManager};
use crate::reactor::{spawn_reactor, ConnLimits, ConnTotals, DrainFanout};

/// A running server: the bound address, the shared manager, and the
/// reactor threads. Dropping the handle stops the server and joins
/// every thread it spawned.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    manager: Arc<SessionManager>,
    fanout: DrainFanout,
    joins: Vec<JoinHandle<()>>,
}

/// Fires a graceful drain of a running server from any thread: stop
/// accepting, flush in-flight replies, close connections, exit the
/// reactor threads. Cloneable and `Send`, so a signal watcher can own
/// one. Firing twice is harmless.
#[derive(Clone, Debug)]
pub struct DrainTrigger {
    fanout: DrainFanout,
}

impl DrainTrigger {
    /// Starts the drain. Idempotent.
    pub fn fire(&self) {
        self.fanout.fire();
    }
}

/// Binds `addr` (use port 0 for an OS-assigned port) and starts serving
/// a fresh session pool shaped by `config`, with `config.reactors`
/// event-loop threads.
///
/// # Errors
///
/// Propagates bind failures.
pub fn serve<A: ToSocketAddrs>(addr: A, config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let manager = Arc::new(SessionManager::new(config));
    let totals = Arc::new(ConnTotals::default());
    let fanout = DrainFanout::default();
    let limits = ConnLimits::with_write_soft(config.write_buf_limit);
    let reactors = config.reactors.max(1);
    let mut joins = Vec::with_capacity(reactors as usize);
    for index in 0..reactors {
        let handle = spawn_reactor(
            index,
            listener.try_clone()?,
            Arc::clone(&manager),
            Arc::clone(&totals),
            &fanout,
            limits,
        )?;
        joins.push(handle.join);
    }
    drop(listener);
    Ok(ServerHandle {
        addr,
        manager,
        fanout,
        joins,
    })
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared session pool, for in-process use alongside TCP clients.
    pub fn manager(&self) -> &SessionManager {
        &self.manager
    }

    /// A handle that starts a graceful drain from any thread.
    pub fn drain_trigger(&self) -> DrainTrigger {
        DrainTrigger {
            fanout: self.fanout.clone(),
        }
    }

    /// Starts a graceful drain without blocking (use
    /// [`join_front`](ServerHandle::join_front) or
    /// [`wait`](ServerHandle::wait) to observe completion).
    pub fn drain(&self) {
        self.fanout.fire();
    }

    /// Joins the reactor threads once they exit (after a drain, a client
    /// `Shutdown`, or a stop). The shard pool stays up, so warm sessions
    /// can still be snapshotted via [`manager`](ServerHandle::manager)
    /// before teardown.
    pub fn join_front(&mut self) {
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }

    /// Blocks until the server stops (a client sent
    /// [`Request::Shutdown`](crate::Request::Shutdown), a
    /// [`DrainTrigger`] fired, or [`ServerHandle::stop`] was called from
    /// another thread), then tears down the shard pool.
    pub fn wait(mut self) {
        self.join_front();
        self.manager.shutdown();
    }

    /// Stops the server: drain, join the reactors, shut the shard pool
    /// down. Idempotent.
    pub fn stop(&mut self) {
        self.drain();
        self.join_front();
        self.manager.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}
