//! A minimal readiness reactor over `poll(2)`, std-only.
//!
//! The event-loop server ([`crate::Server`]) multiplexes every
//! connection over non-blocking sockets; this module supplies the one
//! primitive std lacks — *readiness*: "which of these descriptors can
//! make progress right now?". [`PollBackend`] offers the
//! register/modify/wait surface of `mio`-style reactors and rebuilds a
//! `pollfd` array per wait — `poll(2)` is `O(n)` in kernel anyway, and a
//! shard watches at most a few hundred descriptors.
//!
//! The compat environment has no `libc` crate, so the handful of
//! syscalls (`poll`, `pipe`, `read`, `write`, `close`, `fcntl`) are
//! bound directly — the same idiom as the `signal(2)` binding the
//! SIGINT handler has always used.

use std::collections::HashMap;
use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Interest in read readiness.
pub const READABLE: u8 = 0b01;
/// Interest in write readiness.
pub const WRITABLE: u8 = 0b10;

/// One readiness event delivered by [`PollBackend::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: usize,
    /// Reading will not block (includes EOF — a read returning 0).
    pub readable: bool,
    /// Writing will not block.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; the owner should
    /// drain what is readable and then drop the connection.
    pub hangup: bool,
}

// --------------------------------------------------------------- syscalls

#[repr(C)]
#[derive(Debug)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
    fn pipe(fds: *mut i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
}

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: i32 = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: i32 = 0x0004;

fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl on an owned descriptor with valid F_GETFL/F_SETFL.
    unsafe {
        let flags = fcntl(fd, F_GETFL, 0);
        if flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

// ------------------------------------------------------------ PollBackend

/// The readiness surface the event-loop shards are written against: an
/// interest map + one `poll(2)` per wait. Level-triggered: a still-ready
/// descriptor is reported again on the next wait.
#[derive(Debug, Default)]
pub struct PollBackend {
    interest: HashMap<RawFd, (usize, u8)>,
    // Scratch pollfd array, reused across waits.
    fds: Vec<PollFd>,
}

impl PollBackend {
    /// An empty backend watching nothing.
    pub fn new() -> PollBackend {
        PollBackend::default()
    }

    /// Starts watching `fd` under `token` for `interest`
    /// ([`READABLE`] | [`WRITABLE`]).
    pub fn register(&mut self, fd: RawFd, token: usize, interest: u8) {
        self.interest.insert(fd, (token, interest));
    }

    /// Replaces `fd`'s interest set (registering it if unknown).
    pub fn modify(&mut self, fd: RawFd, token: usize, interest: u8) {
        self.interest.insert(fd, (token, interest));
    }

    /// Stops watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) {
        self.interest.remove(&fd);
    }

    /// Blocks until at least one watched descriptor is ready (or the
    /// timeout elapses; `None` blocks indefinitely), appending events
    /// to `events` (cleared first).
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.fds.clear();
        let mut tokens = Vec::with_capacity(self.interest.len());
        for (&fd, &(token, interest)) in &self.interest {
            let mut mask = 0i16;
            if interest & READABLE != 0 {
                mask |= POLLIN;
            }
            if interest & WRITABLE != 0 {
                mask |= POLLOUT;
            }
            if mask == 0 {
                continue;
            }
            self.fds.push(PollFd {
                fd,
                events: mask,
                revents: 0,
            });
            tokens.push(token);
        }
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        // SAFETY: fds points at an initialized slice for the duration of
        // the call; the kernel only writes revents.
        let n = unsafe {
            poll(
                self.fds.as_mut_ptr(),
                self.fds.len() as core::ffi::c_ulong,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // spurious wakeup; caller re-waits
            }
            return Err(e);
        }
        for (slot, &token) in self.fds.iter().zip(&tokens) {
            let r = slot.revents;
            if r == 0 {
                continue;
            }
            events.push(Event {
                token,
                readable: r & (POLLIN | POLLHUP | POLLERR) != 0,
                writable: r & POLLOUT != 0,
                hangup: r & (POLLHUP | POLLERR | POLLNVAL) != 0,
            });
        }
        Ok(())
    }
}

// -------------------------------------------------------------- WakePipe

/// A self-pipe: any thread can [`WakePipe::wake`] a shard blocked in
/// [`PollBackend::wait`], immediately and without locks. Both ends
/// are non-blocking; wakes coalesce (a full pipe already guarantees a
/// pending wakeup).
#[derive(Debug)]
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
    // Collapses redundant writes: one pending byte is enough.
    armed: AtomicBool,
}

impl WakePipe {
    /// A fresh pipe with both ends non-blocking.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        // SAFETY: pipe writes two descriptors into the array.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let (read_fd, write_fd) = (fds[0], fds[1]);
        set_nonblocking(read_fd)?;
        set_nonblocking(write_fd)?;
        Ok(WakePipe {
            read_fd,
            write_fd,
            armed: AtomicBool::new(false),
        })
    }

    /// The readable end, for registering with a backend.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wakes the owner: writes one byte unless a wake is already
    /// pending. Safe from any thread, including signal-free contexts.
    pub fn wake(&self) {
        if self.armed.swap(true, Ordering::AcqRel) {
            return; // a byte is already in flight
        }
        // SAFETY: write of one byte from a valid buffer; EAGAIN (pipe
        // full) still leaves a pending byte, which is all we need.
        unsafe {
            let byte = 1u8;
            let _ = write(self.write_fd, &byte, 1);
        }
    }

    /// Drains pending wake bytes; call after the read end polls ready.
    pub fn drain(&self) {
        self.armed.store(false, Ordering::Release);
        let mut buf = [0u8; 64];
        // SAFETY: read into a stack buffer; loops until EAGAIN/empty.
        unsafe { while read(self.read_fd, buf.as_mut_ptr(), buf.len()) > 0 {} }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: closing descriptors this struct owns.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

// SAFETY: the pipe descriptors are valid for the struct's lifetime and
// write(2)/read(2) on pipes are thread-safe.
unsafe impl Send for WakePipe {}
// SAFETY: shared use is only ever concurrent `write(2)` calls on the
// write end (wakers) racing one reader; the kernel serializes both.
unsafe impl Sync for WakePipe {}

// ---------------------------------------------------------------- rlimit

/// Raises the process's soft open-file limit to at least `min`
/// descriptors (capped by the hard limit), returning the resulting soft
/// limit. Connection-scale tests and benches open 1000+ sockets in one
/// process; the common 1024-descriptor default would wedge them.
pub fn raise_nofile_limit(min: u64) -> u64 {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: getrlimit fills the struct; setrlimit reads it.
    unsafe {
        if getrlimit(RLIMIT_NOFILE, &mut limit) != 0 {
            return min;
        }
        if limit.cur >= min {
            return limit.cur;
        }
        limit.cur = min.min(limit.max);
        let _ = setrlimit(RLIMIT_NOFILE, &limit);
        if getrlimit(RLIMIT_NOFILE, &mut limit) != 0 {
            return min;
        }
    }
    limit.cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn wake_pipe_delivers_and_coalesces() {
        let pipe = WakePipe::new().unwrap();
        let mut backend = PollBackend::new();
        backend.register(pipe.read_fd(), 7, READABLE);
        let mut events = Vec::new();

        // No wake: times out with no events.
        backend
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        // Many wakes coalesce into one readable event; drain resets.
        for _ in 0..100 {
            pipe.wake();
        }
        backend
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        pipe.drain();
        backend
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        // Wake works again after a drain.
        pipe.wake();
        backend
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn wake_crosses_threads() {
        let pipe = std::sync::Arc::new(WakePipe::new().unwrap());
        let remote = std::sync::Arc::clone(&pipe);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            remote.wake();
        });
        let mut backend = PollBackend::new();
        backend.register(pipe.read_fd(), 0, READABLE);
        let mut events = Vec::new();
        backend
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        handle.join().unwrap();
    }

    #[test]
    fn poll_backend_reports_socket_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut backend = PollBackend::new();
        let fd = server_side.as_raw_fd();
        backend.register(fd, 1, READABLE);
        let mut events = Vec::new();

        // Nothing sent yet: no readable event.
        backend
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 1 || !e.readable));

        client.write_all(b"hello").unwrap();
        backend
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));

        // Write interest on an idle socket is immediately ready.
        backend.modify(fd, 1, READABLE | WRITABLE);
        backend
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));

        // Peer hangup surfaces as readable (EOF) and hangup.
        drop(client);
        backend
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));

        backend.deregister(fd);
        backend
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn raise_nofile_limit_is_monotone() {
        let current = raise_nofile_limit(64);
        assert!(current >= 64);
        // Asking again for less never lowers it.
        assert!(raise_nofile_limit(1) >= current.min(64));
    }
}
