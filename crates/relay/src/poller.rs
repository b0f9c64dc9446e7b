//! Minimal ppoll(2) readiness layer for the event-driven relay.
//!
//! The workspace vendors no `libc` crate, so the two syscalls the
//! reactor needs — `ppoll` and a non-blocking `connect` — are declared
//! directly against the platform C library (which every Rust binary
//! already links). Everything else stays on `std`: sockets are plain
//! `TcpStream`s flipped to non-blocking mode, and a daemon's reactor
//! thread, parked in `poll`, is woken by `kill`/`drain` through a
//! `wake_pipe` — a `UnixStream` pair.
//!
//! Only Linux constants are used on the FFI path; non-Linux unix
//! targets fall back to a blocking `connect` + `set_nonblocking`,
//! which preserves semantics at a small latency cost in the dial, and
//! to `poll(2)` with the timeout rounded up to whole milliseconds.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::raw::{c_int, c_long, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Readable readiness (data or EOF pending).
pub const POLLIN: i16 = 0x001;
/// Writable readiness (connect completion or send-buffer space).
pub const POLLOUT: i16 = 0x004;
/// Error condition on the descriptor.
pub const POLLERR: i16 = 0x008;
/// Peer hung up.
pub const POLLHUP: i16 = 0x010;
/// Peer closed its writing half (Linux; 0 elsewhere, where a request
/// waiting out its latency does not watch its client).
pub const POLLRDHUP: i16 = if cfg!(target_os = "linux") { 0x2000 } else { 0 };

/// `struct pollfd` as the C library expects it.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// Descriptor to watch (negative entries are ignored by the
    /// kernel, which the reactor uses for padding).
    pub fd: RawFd,
    /// Requested events.
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

impl PollFd {
    /// Watches `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// An entry the kernel skips (fd < 0): keeps index arithmetic
    /// simple when a connection has no origin socket yet.
    pub fn ignored() -> Self {
        PollFd {
            fd: -1,
            events: 0,
            revents: 0,
        }
    }

    /// Any readiness or error bit set.
    pub fn is_ready(&self) -> bool {
        self.revents != 0
    }

    /// The peer left: it closed its writing half (when `POLLRDHUP` was
    /// asked for), hung up, or the descriptor errored.
    pub fn hung_up(&self) -> bool {
        self.revents & (POLLRDHUP | POLLHUP | POLLERR) != 0
    }
}

/// `struct timespec` as the C library expects it.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    #[cfg(target_os = "linux")]
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const u8,
    ) -> c_int;
    #[cfg(not(target_os = "linux"))]
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `timeout` elapses.
/// Returns the number of ready descriptors (0 on timeout). The wait is
/// never shorter than `timeout`, to the nanosecond; one too long for a
/// `timespec` (such as `Duration::MAX`) has no limit. `EINTR` retries
/// transparently with the same timeout.
pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let limit = c_long::try_from(timeout.as_secs())
        .ok()
        .map(|tv_sec| Timespec {
            tv_sec,
            tv_nsec: timeout.subsec_nanos() as c_long,
        });
    loop {
        let rc = wait(fds, limit.as_ref());
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            continue;
        }
        return Err(err);
    }
}

#[cfg(target_os = "linux")]
fn wait(fds: &mut [PollFd], limit: Option<&Timespec>) -> c_int {
    let limit = limit.map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is a valid, exclusively borrowed slice of
    // `#[repr(C)]` pollfd-layout structs; the kernel writes only the
    // `revents` field of the `fds.len()` entries passed. `limit` is
    // null (no limit) or points at a live timespec the kernel only
    // reads; a null signal mask leaves the thread's mask alone.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            limit,
            std::ptr::null(),
        )
    }
}

#[cfg(not(target_os = "linux"))]
fn wait(fds: &mut [PollFd], limit: Option<&Timespec>) -> c_int {
    // Whole milliseconds, rounded up: never shorter than asked.
    let ms = limit.map_or(-1, |t| {
        let ms = (t.tv_sec as u64).saturating_mul(1000);
        let ms = ms.saturating_add((t.tv_nsec as u64).div_ceil(1_000_000));
        ms.min(c_int::MAX as u64) as c_int
    });
    // SAFETY: as for `ppoll` above.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) }
}

/// Write half of a [`wake_pipe`]: makes the owner of the read half
/// return from `poll`. Callers publish what changed (a stop flag)
/// *before* waking.
pub(crate) struct Waker(UnixStream);

impl Waker {
    pub(crate) fn wake(&self) {
        // A full pipe means a wakeup is already pending.
        let _ = (&self.0).write(&[1]);
    }
}

/// Read half of a [`wake_pipe`], part of its owner's poll set.
pub(crate) struct WakeRx(UnixStream);

impl WakeRx {
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::new(self.0.as_raw_fd(), POLLIN)
    }

    /// Empties the pipe (its only content is "look again"). Call it
    /// before re-reading the state the wakers publish, so a wake that
    /// lands after the read leaves a byte for the next `poll`.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.0).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// A non-blocking `UnixStream` pair used as a self-pipe.
pub(crate) fn wake_pipe() -> io::Result<(Waker, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker(tx), WakeRx(rx)))
}

/// True for `accept` failures that say nothing about the listener:
/// descriptor or buffer exhaustion (`EMFILE`, `ENFILE`, `ENOBUFS`,
/// `ENOMEM`) and a peer that gave up while queued (`ECONNABORTED`).
/// The reactor pauses accepting and carries on; anything else (`EBADF`,
/// `EINVAL`, …) means the listener itself is gone.
pub(crate) fn accept_error_is_transient(e: &io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    const ENOBUFS: i32 = if cfg!(target_os = "linux") { 105 } else { 55 };
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted | io::ErrorKind::OutOfMemory
    ) || matches!(e.raw_os_error(), Some(ENFILE | EMFILE | ENOBUFS))
}

/// Outcome of a non-blocking dial.
pub enum Dial {
    /// Three-way handshake still in flight: poll the stream for
    /// `POLLOUT`, then call [`connect_errno`].
    Pending(TcpStream),
    /// Connected immediately (loopback fast path).
    Ready(TcpStream),
}

#[cfg(target_os = "linux")]
mod linux {
    use super::*;

    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const EINPROGRESS: i32 = 115;
    pub(super) const SOL_SOCKET: c_int = 1;
    pub(super) const SO_ERROR: c_int = 4;

    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16, // network byte order
        sin_addr: u32, // network byte order
        sin_zero: [u8; 8],
    }

    #[repr(C)]
    struct SockaddrIn6 {
        sin6_family: u16,
        sin6_port: u16, // network byte order
        sin6_flowinfo: u32,
        sin6_addr: [u8; 16],
        sin6_scope_id: u32,
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn connect(fd: c_int, addr: *const u8, len: u32) -> c_int;
        fn close(fd: c_int) -> c_int;
        pub(super) fn getsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *mut u8,
            len: *mut u32,
        ) -> c_int;
    }

    /// Starts a non-blocking TCP connect to `addr`.
    pub(super) fn dial(addr: &SocketAddr) -> io::Result<Dial> {
        let domain = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        // SAFETY: plain syscall with constant arguments; the returned
        // fd is owned below (wrapped in TcpStream or closed on error).
        let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let rc = match addr {
            SocketAddr::V4(a) => {
                let sa = SockaddrIn {
                    sin_family: AF_INET as u16,
                    sin_port: a.port().to_be(),
                    sin_addr: u32::from_ne_bytes(a.ip().octets()),
                    sin_zero: [0; 8],
                };
                // SAFETY: `sa` is a correctly sized, correctly laid
                // out sockaddr_in living for the duration of the call.
                unsafe {
                    connect(
                        fd,
                        (&sa as *const SockaddrIn).cast(),
                        std::mem::size_of::<SockaddrIn>() as u32,
                    )
                }
            }
            SocketAddr::V6(a) => {
                let sa = SockaddrIn6 {
                    sin6_family: AF_INET6 as u16,
                    sin6_port: a.port().to_be(),
                    sin6_flowinfo: 0,
                    sin6_addr: a.ip().octets(),
                    sin6_scope_id: a.scope_id(),
                };
                // SAFETY: as above, for sockaddr_in6.
                unsafe {
                    connect(
                        fd,
                        (&sa as *const SockaddrIn6).cast(),
                        std::mem::size_of::<SockaddrIn6>() as u32,
                    )
                }
            }
        };
        if rc == 0 {
            // SAFETY: `fd` is a freshly created, connected socket we
            // exclusively own; from_raw_fd transfers that ownership.
            return Ok(Dial::Ready(unsafe {
                use std::os::unix::io::FromRawFd;
                TcpStream::from_raw_fd(fd)
            }));
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() == Some(EINPROGRESS) {
            // SAFETY: as above — ownership of the in-progress socket
            // moves into the TcpStream.
            return Ok(Dial::Pending(unsafe {
                use std::os::unix::io::FromRawFd;
                TcpStream::from_raw_fd(fd)
            }));
        }
        // SAFETY: `fd` is a socket we own and have not wrapped; close
        // exactly once on the error path.
        unsafe { close(fd) };
        Err(err)
    }
}

/// Starts a non-blocking TCP connect to `addr`. On Linux this never
/// blocks (the handshake completes under `POLLOUT`); elsewhere it
/// degrades to a blocking dial flipped non-blocking afterwards.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<Dial> {
    #[cfg(target_os = "linux")]
    {
        linux::dial(addr)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let s = TcpStream::connect(addr)?;
        s.set_nonblocking(true)?;
        Ok(Dial::Ready(s))
    }
}

/// Resolves the pending error of a non-blocking connect after the
/// socket polled writable: `Ok(())` means connected.
pub fn connect_errno(stream: &TcpStream) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        let mut err: i32 = 0;
        let mut len: u32 = std::mem::size_of::<i32>() as u32;
        // SAFETY: SO_ERROR reads an int; `err` and `len` are valid,
        // correctly sized out-parameters for the duration of the call.
        let rc = unsafe {
            linux::getsockopt(
                stream.as_raw_fd(),
                linux::SOL_SOCKET,
                linux::SO_ERROR,
                (&mut err as *mut i32).cast(),
                &mut len,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        if err != 0 {
            return Err(io::Error::from_raw_os_error(err));
        }
        Ok(())
    }
    #[cfg(not(target_os = "linux"))]
    {
        // The fallback dial already completed the handshake.
        stream.take_error()?.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn poll_times_out_on_idle_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut fds = [PollFd::new(client.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Duration::from_millis(20)).unwrap();
        assert_eq!(n, 0);
        assert!(!fds[0].is_ready());
    }

    #[test]
    fn a_sub_millisecond_timeout_is_waited_out() {
        let (_tx, rx) = wake_pipe().unwrap();
        let mut fds = [rx.poll_fd()];
        let wait = Duration::from_micros(300);
        let t0 = std::time::Instant::now();
        assert_eq!(poll_fds(&mut fds, wait).unwrap(), 0);
        let waited = t0.elapsed();
        assert!(waited >= wait, "returned after {waited:?}");
    }

    #[test]
    fn poll_sees_readable_data_and_ignores_negative_fds() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.write_all(b"x").unwrap();
        let mut fds = [PollFd::ignored(), PollFd::new(client.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Duration::from_millis(500)).unwrap();
        assert_eq!(n, 1);
        assert!(!fds[0].is_ready());
        assert!(fds[1].revents & POLLIN != 0);
    }

    #[test]
    fn nonblocking_connect_reaches_a_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = match connect_nonblocking(&addr).unwrap() {
            Dial::Ready(s) => s,
            Dial::Pending(s) => {
                let mut fds = [PollFd::new(s.as_raw_fd(), POLLOUT)];
                poll_fds(&mut fds, Duration::from_secs(5)).unwrap();
                connect_errno(&s).unwrap();
                s
            }
        };
        // Prove the socket is genuinely connected end to end.
        let (mut server, _) = listener.accept().unwrap();
        server.write_all(b"ok").unwrap();
        drop(server);
        stream.set_nonblocking(false).unwrap();
        let mut buf = Vec::new();
        (&stream).read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"ok");
    }

    #[test]
    fn wake_pipe_wakes_poll_until_drained() {
        let (tx, rx) = wake_pipe().unwrap();
        let mut fds = [rx.poll_fd()];
        assert_eq!(poll_fds(&mut fds, Duration::from_millis(10)).unwrap(), 0);
        tx.wake();
        tx.wake();
        assert_eq!(poll_fds(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        rx.drain();
        assert_eq!(poll_fds(&mut fds, Duration::from_millis(10)).unwrap(), 0);
    }

    #[test]
    fn accept_errors_are_classified() {
        // EMFILE, ENFILE, ENOMEM, ECONNABORTED (Linux numbering for
        // the last: the kind is what is matched).
        for errno in [24, 23, 12] {
            let e = io::Error::from_raw_os_error(errno);
            assert!(accept_error_is_transient(&e), "{e}");
        }
        let enobufs = if cfg!(target_os = "linux") { 105 } else { 55 };
        assert!(accept_error_is_transient(&io::Error::from_raw_os_error(
            enobufs
        )));
        assert!(accept_error_is_transient(&io::Error::from(
            io::ErrorKind::ConnectionAborted
        )));
        // EBADF, EINVAL, ENOTSOCK: the listener is unusable.
        for errno in [9, 22, 88] {
            let e = io::Error::from_raw_os_error(errno);
            assert!(!accept_error_is_transient(&e), "{e}");
        }
    }

    #[test]
    fn refused_connect_surfaces_an_error() {
        // Port 1 on loopback: nothing listens there.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        match connect_nonblocking(&addr) {
            Err(_) => {}
            Ok(Dial::Ready(_)) => panic!("connect to a dead port cannot succeed"),
            Ok(Dial::Pending(s)) => {
                let mut fds = [PollFd::new(s.as_raw_fd(), POLLOUT)];
                poll_fds(&mut fds, Duration::from_secs(5)).unwrap();
                assert!(connect_errno(&s).is_err());
            }
        }
    }
}
