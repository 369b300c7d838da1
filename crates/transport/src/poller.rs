//! Portable readiness polling behind one small API: register sockets for
//! read/write interest, block until something is ready (or a [`Waker`]
//! fires), get back `(token, readable, writable, error)` events.
//!
//! On Linux/x86_64 this is a thin veneer over epoll via [`crate::sys`] —
//! one registration per connection, level-triggered, O(ready) wakeups. On
//! every other target a conservative emulation reports every registered fd
//! as ready at each poll tick; with non-blocking sockets spurious
//! readiness degrades to a bounded busy-poll (correct, merely less
//! efficient), so the driver code above is identical on all targets.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Caller cookie identifying one registration.
pub type Token = u64;

/// One readiness report.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The registration's token.
    pub token: Token,
    /// Reading will not block (data, EOF, or a pending accept).
    pub readable: bool,
    /// Writing will not block.
    pub writable: bool,
    /// The fd is in an error/hangup state; the connection is done.
    pub error: bool,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::*;
    use crate::sys;

    /// Token reserved for the waker's eventfd registration.
    const WAKER_TOKEN: Token = u64::MAX;

    /// epoll-backed poller.
    pub struct Poller {
        epfd: i32,
        evfd: i32,
        buf: Vec<sys::EpollEvent>,
    }

    // SAFETY-adjacent note: the fds are plain ints owned by this struct;
    // all operations on them are thread-safe kernel calls.
    unsafe impl Send for Poller {}

    /// Cross-thread wakeup handle (cheap to clone, signal-safe).
    #[derive(Clone)]
    pub struct Waker {
        evfd: i32,
    }

    impl Waker {
        /// Forces the owning poller's `wait` to return now.
        pub fn wake(&self) {
            let _ = sys::eventfd_wake(self.evfd);
        }
    }

    fn interest_bits(read: bool, write: bool) -> u32 {
        let mut bits = sys::EPOLLRDHUP;
        if read {
            bits |= sys::EPOLLIN;
        }
        if write {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    impl Poller {
        /// Creates the poller and its internal waker eventfd.
        pub fn new() -> io::Result<Poller> {
            let epfd = sys::epoll_create()?;
            let evfd = match sys::eventfd() {
                Ok(fd) => fd,
                Err(e) => {
                    sys::close(epfd);
                    return Err(e);
                }
            };
            if let Err(e) =
                sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, evfd, sys::EPOLLIN, WAKER_TOKEN)
            {
                sys::close(evfd);
                sys::close(epfd);
                return Err(e);
            }
            Ok(Poller { epfd, evfd, buf: vec![sys::EpollEvent::default(); 256] })
        }

        /// A wakeup handle usable from any thread.
        pub fn waker(&self) -> Waker {
            Waker { evfd: self.evfd }
        }

        /// Registers `fd` with the given interests under `token`.
        pub fn register(
            &mut self,
            fd: RawFd,
            token: Token,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, interest_bits(read, write), token)
        }

        /// Changes an existing registration's interests.
        pub fn reregister(
            &mut self,
            fd: RawFd,
            token: Token,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, interest_bits(read, write), token)
        }

        /// Removes a registration (safe to call on an already-closed fd).
        pub fn deregister(&mut self, fd: RawFd) {
            let _ = sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0);
        }

        /// Blocks until readiness, waker, or timeout; appends to `out`.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let ms = match timeout {
                // Round up so a 100µs timer does not spin at timeout 0.
                Some(t) => t.as_millis().min(60_000).max(u128::from(!t.is_zero())) as i32,
                None => -1,
            };
            let n = match sys::epoll_wait(self.epfd, &mut self.buf, ms) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in &self.buf[..n] {
                let token = { ev.data };
                let bits = { ev.events };
                if token == WAKER_TOKEN {
                    sys::eventfd_drain(self.evfd);
                    continue;
                }
                out.push(Event {
                    token,
                    readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                    error: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                });
            }
            if n == self.buf.len() {
                // Saturated: grow so a big fleet drains in fewer syscalls.
                let cap = (self.buf.len() * 2).min(8192);
                self.buf.resize(cap, sys::EpollEvent::default());
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            sys::close(self.evfd);
            sys::close(self.epfd);
        }
    }

    /// Soft fd budget for the shed policy.
    pub fn fd_budget() -> u64 {
        sys::fd_soft_limit()
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use super::*;
    use parking_lot::{Condvar, Mutex};
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Portable fallback: reports every registered fd ready each tick.
    /// Spurious readiness is harmless on non-blocking sockets; the cost is
    /// a bounded poll loop instead of true O(ready) wakeups.
    pub struct Poller {
        shared: Arc<Shared>,
        interests: HashMap<RawFd, (Token, bool, bool)>,
    }

    struct Shared {
        woken: Mutex<bool>,
        cond: Condvar,
    }

    /// Cross-thread wakeup handle.
    #[derive(Clone)]
    pub struct Waker {
        shared: Arc<Shared>,
    }

    impl Waker {
        /// Forces the owning poller's `wait` to return now.
        pub fn wake(&self) {
            *self.shared.woken.lock() = true;
            self.shared.cond.notify_all();
        }
    }

    impl Poller {
        /// Creates the fallback poller.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                shared: Arc::new(Shared { woken: Mutex::new(false), cond: Condvar::new() }),
                interests: HashMap::new(),
            })
        }

        /// A wakeup handle usable from any thread.
        pub fn waker(&self) -> Waker {
            Waker { shared: self.shared.clone() }
        }

        /// Registers `fd` with the given interests under `token`.
        pub fn register(
            &mut self,
            fd: RawFd,
            token: Token,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            self.interests.insert(fd, (token, read, write));
            Ok(())
        }

        /// Changes an existing registration's interests.
        pub fn reregister(
            &mut self,
            fd: RawFd,
            token: Token,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            self.interests.insert(fd, (token, read, write));
            Ok(())
        }

        /// Removes a registration.
        pub fn deregister(&mut self, fd: RawFd) {
            self.interests.remove(&fd);
        }

        /// Sleeps briefly (or until woken), then reports everything ready.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let tick = timeout.unwrap_or(Duration::from_millis(5)).min(Duration::from_millis(5));
            {
                let mut woken = self.shared.woken.lock();
                if !*woken {
                    self.shared.cond.wait_for(&mut woken, tick);
                }
                *woken = false;
            }
            for (&_fd, &(token, read, write)) in &self.interests {
                if read || write {
                    out.push(Event { token, readable: read, writable: write, error: false });
                }
            }
            Ok(())
        }
    }

    /// Soft fd budget for the shed policy (unknown here; be permissive).
    pub fn fd_budget() -> u64 {
        1 << 20
    }
}

pub use imp::{fd_budget, Poller, Waker};

/// File descriptors kept spare below the rlimit: dials and accepts that
/// would dip into the reserve are shed.
pub const FD_MARGIN: u64 = 64;

/// Whether opening one more socket would dip into the [`FD_MARGIN`]
/// reserve.
pub fn near_fd_limit() -> bool {
    approx_open_fds() + FD_MARGIN >= fd_budget()
}

/// Approximate count of open fds in this process (Linux: `/proc/self/fd`;
/// elsewhere a cheap underestimate). Feeds the fd-budget shed policy —
/// accuracy beyond "are we near the rlimit" is not required.
pub fn approx_open_fds() -> u64 {
    if let Ok(dir) = std::fs::read_dir("/proc/self/fd") {
        dir.count() as u64
    } else {
        0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn socket_readiness_and_waker() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(client.as_raw_fd(), 7, true, false).unwrap();

        // Quiet socket: a short wait returns no events (linux) or only
        // spurious readiness (fallback) — either way it must return.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();

        served.write_all(b"ping").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            events.clear();
            poller.wait(&mut events, Some(Duration::from_millis(100))).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "never saw readability");
        }

        // The waker unblocks an otherwise-idle wait quickly.
        poller.deregister(client.as_raw_fd());
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let start = std::time::Instant::now();
        events.clear();
        poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert!(start.elapsed() < Duration::from_secs(5), "waker did not interrupt wait");
        t.join().unwrap();
    }
}
