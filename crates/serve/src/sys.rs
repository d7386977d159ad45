//! Thin, dependency-free OS bindings for the reactor front-end: a
//! readiness poller (epoll on Linux, `poll(2)` elsewhere on unix), a
//! self-pipe waker, signal-driven drain plumbing, and peak-RSS readout.
//!
//! The workspace is deliberately free of external crates, so the handful
//! of symbols the reactor needs are declared here directly against the
//! platform libc (which `std` already links). Like the rest of the TCP
//! front-end, this module only exists on unix.

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicI32, Ordering};

mod ffi {
    use std::os::raw::{c_int, c_void};

    extern "C" {
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn signal(signum: c_int, handler: usize) -> usize;
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut super::EpollEvent)
            -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut super::EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    #[cfg(not(target_os = "linux"))]
    extern "C" {
        pub fn poll(fds: *mut super::PollFd, nfds: usize, timeout: c_int) -> c_int;
    }
}

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: c_int = 0x0004;

const SIGINT: c_int = 2;
const SIGTERM: c_int = 15;

fn last_error() -> io::Error {
    io::Error::last_os_error()
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(last_error())
    } else {
        Ok(ret)
    }
}

/// Marks a raw fd nonblocking (used for the self-pipe; sockets go through
/// `std`'s own `set_nonblocking`).
fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    // SAFETY: plain fcntl on an fd we own; no memory is passed.
    unsafe {
        let flags = cvt(ffi::fcntl(fd, F_GETFL, 0))?;
        cvt(ffi::fcntl(fd, F_SETFL, flags | O_NONBLOCK))?;
    }
    Ok(())
}

/// The readiness a registration asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or hung up — a read will observe the EOF/error).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

#[cfg(target_os = "linux")]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

/// An epoll-backed readiness poller: O(1) registration and wakeups that
/// only report ready fds, which is what lets one thread watch 10K
/// sockets.
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

#[cfg(target_os = "linux")]
impl Poller {
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const CTL_ADD: c_int = 1;
    const CTL_DEL: c_int = 2;
    const CTL_MOD: c_int = 3;
    const CLOEXEC: c_int = 0o2000000;

    /// Creates the poller.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failures.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointers involved.
        let epfd = cvt(unsafe { ffi::epoll_create1(Self::CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn mask(interest: Interest) -> u32 {
        let mut events = Self::EPOLLRDHUP;
        if interest.readable {
            events |= Self::EPOLLIN;
        }
        if interest.writable {
            events |= Self::EPOLLOUT;
        }
        events
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = EpollEvent {
            events: Self::mask(interest),
            data: token,
        };
        // SAFETY: `event` outlives the call; the kernel copies it.
        cvt(unsafe { ffi::epoll_ctl(self.epfd, op, fd, &mut event) })?;
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(Self::CTL_ADD, fd, token, interest)
    }

    /// Changes the interest of an already-registered fd.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(Self::CTL_MOD, fd, token, interest)
    }

    /// Removes an fd from the poller (safe to call right before closing
    /// it).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        let mut event = EpollEvent { events: 0, data: 0 };
        // SAFETY: pre-2.6.9 kernels require a non-null event for DEL.
        cvt(unsafe { ffi::epoll_ctl(self.epfd, Self::CTL_DEL, fd, &mut event) })?;
        Ok(())
    }

    /// Blocks until at least one registered fd is ready (or `timeout_ms`
    /// elapses; `-1` waits forever), appending notifications to `out`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failures; `EINTR` is retried internally.
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        let mut buf: [EpollEvent; 256] = std::array::from_fn(|_| EpollEvent { events: 0, data: 0 });
        let n = loop {
            // SAFETY: `buf` is a valid out-array of the stated length.
            let ret = unsafe {
                ffi::epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms)
            };
            if ret >= 0 {
                break ret as usize;
            }
            let err = last_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for event in &buf[..n] {
            let bits = event.events;
            out.push(PollEvent {
                token: event.data,
                readable: bits
                    & (Self::EPOLLIN | Self::EPOLLHUP | Self::EPOLLRDHUP | Self::EPOLLERR)
                    != 0,
                writable: bits & (Self::EPOLLOUT | Self::EPOLLERR) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: fd owned by this struct.
        unsafe { ffi::close(self.epfd) };
    }
}

#[cfg(not(target_os = "linux"))]
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

/// A `poll(2)`-backed fallback poller for non-Linux unix: O(n) per
/// wakeup, which is fine at the connection counts those hosts see in
/// development.
#[cfg(not(target_os = "linux"))]
#[derive(Debug)]
pub struct Poller {
    registrations: std::sync::Mutex<Vec<(RawFd, u64, Interest)>>,
}

#[cfg(not(target_os = "linux"))]
impl Poller {
    const POLLIN: i16 = 0x0001;
    const POLLOUT: i16 = 0x0004;
    const POLLERR: i16 = 0x0008;
    const POLLHUP: i16 = 0x0010;

    /// Creates the poller.
    ///
    /// # Errors
    ///
    /// Infallible on this backend; kept for signature parity.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            registrations: std::sync::Mutex::new(Vec::new()),
        })
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// Infallible on this backend.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.registrations
            .lock()
            .expect("poller lock")
            .push((fd, token, interest));
        Ok(())
    }

    /// Changes the interest of an already-registered fd.
    ///
    /// # Errors
    ///
    /// Fails when `fd` was never registered.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut regs = self.registrations.lock().expect("poller lock");
        for entry in regs.iter_mut() {
            if entry.0 == fd {
                *entry = (fd, token, interest);
                return Ok(());
            }
        }
        Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
    }

    /// Removes an fd from the poller.
    ///
    /// # Errors
    ///
    /// Infallible on this backend (removing an unknown fd is a no-op).
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.registrations
            .lock()
            .expect("poller lock")
            .retain(|&(f, _, _)| f != fd);
        Ok(())
    }

    /// Blocks until a registered fd is ready, appending notifications to
    /// `out`.
    ///
    /// # Errors
    ///
    /// Propagates `poll` failures; `EINTR` is retried internally.
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        let regs = self.registrations.lock().expect("poller lock").clone();
        let mut fds: Vec<PollFd> = regs
            .iter()
            .map(|&(fd, _, interest)| PollFd {
                fd,
                events: if interest.readable { Self::POLLIN } else { 0 }
                    | if interest.writable { Self::POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        loop {
            // SAFETY: `fds` is a valid array of the stated length.
            let ret = unsafe { ffi::poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
            if ret >= 0 {
                break;
            }
            let err = last_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        for (pollfd, &(_, token, _)) in fds.iter().zip(&regs) {
            if pollfd.revents == 0 {
                continue;
            }
            out.push(PollEvent {
                token,
                readable: pollfd.revents & (Self::POLLIN | Self::POLLHUP | Self::POLLERR) != 0,
                writable: pollfd.revents & (Self::POLLOUT | Self::POLLERR) != 0,
            });
        }
        Ok(())
    }
}

/// A self-pipe waker: shard workers (and the drain trigger) write one
/// byte to unblock a reactor sitting in [`Poller::wait`]. The write end
/// is nonblocking, so a full pipe — the reactor is already guaranteed to
/// wake — degrades to a no-op instead of blocking a worker.
#[derive(Debug)]
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    /// Creates the pipe; both ends nonblocking.
    ///
    /// # Errors
    ///
    /// Propagates `pipe`/`fcntl` failures.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `fds` is a valid out-array of two ints.
        cvt(unsafe { ffi::pipe(fds.as_mut_ptr()) })?;
        let pipe = WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        };
        set_nonblocking_fd(pipe.read_fd)?;
        set_nonblocking_fd(pipe.write_fd)?;
        Ok(pipe)
    }

    /// The read end, for registration with a [`Poller`].
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wakes the poller (nonblocking; a full pipe already guarantees a
    /// wakeup and is silently ignored).
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: one-byte write from a live stack slot.
        unsafe { ffi::write(self.write_fd, (&byte as *const u8).cast::<c_void>(), 1) };
    }

    /// Drains every pending wake byte so the next `wake` edge is visible.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: reading into a valid stack buffer.
            let n =
                unsafe { ffi::read(self.read_fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: fds owned by this struct.
        unsafe {
            ffi::close(self.read_fd);
            ffi::close(self.write_fd);
        }
    }
}

/// Write end of the signal self-pipe; `-1` until installed. The handler
/// only does an async-signal-safe one-byte `write`.
static SIGNAL_PIPE_WRITE: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_drain_signal(_signum: c_int) {
    let fd = SIGNAL_PIPE_WRITE.load(Ordering::Relaxed);
    if fd >= 0 {
        let byte = 1u8;
        // SAFETY: `write` is async-signal-safe; one byte from a stack slot.
        unsafe { ffi::write(fd, (&byte as *const u8).cast::<c_void>(), 1) };
    }
}

/// Installs SIGINT/SIGTERM handlers that write to a self-pipe; returns
/// the (blocking) read end. A blocking `read` on it —
/// [`block_until_signal`] — returns once either signal fires, letting the
/// serve binary drain instead of dying mid-request.
///
/// # Errors
///
/// Propagates pipe creation failures.
pub fn install_drain_signals() -> io::Result<RawFd> {
    let mut fds = [0 as c_int; 2];
    // SAFETY: `fds` is a valid out-array of two ints.
    cvt(unsafe { ffi::pipe(fds.as_mut_ptr()) })?;
    // Write end nonblocking (handler must never block); read end stays
    // blocking so the watcher thread can park on it.
    set_nonblocking_fd(fds[1])?;
    SIGNAL_PIPE_WRITE.store(fds[1], Ordering::Relaxed);
    // SAFETY: installing a handler that is itself async-signal-safe.
    unsafe {
        ffi::signal(SIGINT, on_drain_signal as *const () as usize);
        ffi::signal(SIGTERM, on_drain_signal as *const () as usize);
    }
    Ok(fds[0])
}

/// Parks the calling thread until a drain signal arrives (a byte shows up
/// on the pipe from [`install_drain_signals`]).
pub fn block_until_signal(read_fd: RawFd) {
    let mut byte = 0u8;
    loop {
        // SAFETY: one-byte read into a live stack slot.
        let n = unsafe { ffi::read(read_fd, (&mut byte as *mut u8).cast::<c_void>(), 1) };
        if n == 1 {
            return;
        }
        if n < 0 && last_error().kind() == io::ErrorKind::Interrupted {
            continue;
        }
        if n == 0 {
            return; // pipe closed — treat as a drain request
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_wakes_and_drains() {
        let pipe = WakePipe::new().expect("pipe");
        let poller = Poller::new().expect("poller");
        poller
            .add(pipe.read_fd(), 7, Interest::READ)
            .expect("register");
        pipe.wake();
        pipe.wake();
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        pipe.drain();
        // Drained: a zero-timeout wait sees nothing.
        events.clear();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty());
    }

    #[test]
    fn poller_reports_writable_sockets() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream =
            std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        stream.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("poller");
        use std::os::unix::io::AsRawFd as _;
        let both = Interest {
            readable: true,
            writable: true,
        };
        poller.add(stream.as_raw_fd(), 1, both).expect("register");
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).expect("wait");
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
        poller.remove(stream.as_raw_fd()).expect("remove");
    }
}
