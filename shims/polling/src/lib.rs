//! Vendored offline stand-in for the `polling` crate: a portable epoll/poll
//! readiness API with **oneshot** semantics and a cross-thread wakeup.
//!
//! Subset provided (matching the real crate's shape):
//!
//! * [`Poller::new`] / [`Poller::add`] / [`Poller::modify`] /
//!   [`Poller::delete`] — register interest in readable/writable readiness
//!   of a file descriptor under a caller-chosen `usize` key.
//! * [`Poller::wait`] — block until at least one registered source is ready,
//!   a timeout elapses, or [`Poller::notify`] is called from another thread.
//! * **Oneshot delivery**: once an event for a source is returned from
//!   `wait`, that source is disarmed until re-armed with `modify` — the
//!   discipline reactors want (no level-triggered storms while a connection
//!   is parked with data buffered).
//!
//! Deviations from upstream, deliberately accepted: `add` is safe (the
//! caller keeps the source alive for as long as it stays registered — all
//! workspace users own their sockets in the same struct as the poller
//! handle), there is no `Source`/`BorrowedFd` generic plumbing, and only
//! readable/writable interest is modelled.
//!
//! Backends: `epoll(7)` on Linux (wakeups via `eventfd`), `poll(2)` on other
//! Unixes (wakeups via a self-pipe). Non-Unix targets get a stub whose
//! `Poller::new` returns `Unsupported`, which `Server::serve` reports
//! before accepting anything.

#![warn(missing_docs)]

#[cfg(any(test, not(unix)))]
use std::time::Duration;

/// Interest in (or readiness of) a registered source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Caller-chosen identifier reported back by [`Poller::wait`].
    pub key: usize,
    /// Readable interest / readiness (includes peer hangup and errors, so a
    /// closed connection always surfaces as a readable event).
    pub readable: bool,
    /// Writable interest / readiness.
    pub writable: bool,
}

impl Event {
    /// Readable-only interest.
    pub fn readable(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    /// Writable-only interest.
    pub fn writable(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: true,
        }
    }

    /// Readable and writable interest.
    pub fn all(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: true,
        }
    }

    /// No interest: the source stays registered but disarmed.
    pub fn none(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: false,
        }
    }
}

/// Reusable buffer of events returned by [`Poller::wait`].
#[derive(Debug, Default)]
pub struct Events {
    items: Vec<Event>,
}

impl Events {
    /// An empty buffer.
    pub fn new() -> Events {
        Events { items: Vec::new() }
    }

    /// Iterates the events of the last [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.items.iter().copied()
    }

    /// Number of events delivered by the last wait.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the last wait delivered no events.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(target_os = "linux")]
mod sys {
    #![allow(missing_docs)] // backend impls are documented at the crate root
    //! epoll backend: oneshot registrations plus an `eventfd` wakeup
    //! registered level-triggered under a reserved key.

    use super::{Event, Events};
    use std::io;
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::raw::{c_int, c_uint, c_void};
    use std::time::Duration;

    // epoll_event carries a packed 12-byte layout on x86-64.
    #[repr(C, packed)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLONESHOT: u32 = 1 << 30;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    /// The `data` value marking the internal wakeup eventfd.
    const NOTIFY_DATA: u64 = u64::MAX;

    /// epoll-backed poller.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
        event_fd: RawFd,
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn interest_flags(ev: Event) -> u32 {
        let mut flags = EPOLLONESHOT | EPOLLRDHUP;
        if ev.readable {
            flags |= EPOLLIN;
        }
        if ev.writable {
            flags |= EPOLLOUT;
        }
        flags
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let event_fd = match cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }) {
                Ok(fd) => fd,
                Err(e) => {
                    unsafe { close(epfd) };
                    return Err(e);
                }
            };
            // Level-triggered (no ONESHOT): a pending notification keeps
            // waking `wait` until it is drained.
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: NOTIFY_DATA,
            };
            if let Err(e) = cvt(unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, event_fd, &mut ev) }) {
                unsafe {
                    close(event_fd);
                    close(epfd);
                }
                return Err(e);
            }
            Ok(Poller { epfd, event_fd })
        }

        pub fn add(&self, source: &impl AsRawFd, ev: Event) -> io::Result<()> {
            let mut e = EpollEvent {
                events: interest_flags(ev),
                data: ev.key as u64,
            };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, source.as_raw_fd(), &mut e) })
                .map(|_| ())
        }

        pub fn modify(&self, source: &impl AsRawFd, ev: Event) -> io::Result<()> {
            let mut e = EpollEvent {
                events: interest_flags(ev),
                data: ev.key as u64,
            };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, source.as_raw_fd(), &mut e) })
                .map(|_| ())
        }

        pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
            let mut e = EpollEvent { events: 0, data: 0 };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, source.as_raw_fd(), &mut e) })
                .map(|_| ())
        }

        pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
            events.clear();
            let timeout_ms: c_int = match timeout {
                None => -1,
                // Round sub-millisecond timeouts *up* so they still block.
                Some(d) => {
                    let mut ms = d.as_millis();
                    if ms == 0 && d.as_nanos() > 0 {
                        ms = 1;
                    }
                    ms.min(c_int::MAX as u128) as c_int
                }
            };
            const CAP: usize = 256;
            let mut buf: [EpollEvent; CAP] = unsafe { std::mem::zeroed() };
            let n = loop {
                let r =
                    unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as c_int, timeout_ms) };
                if r >= 0 {
                    break r as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for e in buf.iter().take(n) {
                let data = e.data;
                let flags = e.events;
                if data == NOTIFY_DATA {
                    // Drain the eventfd counter; the wakeup itself is not a
                    // user-visible event.
                    let mut v = 0u64;
                    unsafe {
                        read(
                            self.event_fd,
                            (&mut v) as *mut u64 as *mut c_void,
                            std::mem::size_of::<u64>(),
                        )
                    };
                    continue;
                }
                events.items.push(Event {
                    key: data as usize,
                    readable: flags & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                    writable: flags & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(events.items.len())
        }

        pub fn notify(&self) -> io::Result<()> {
            let one = 1u64;
            let r = unsafe {
                write(
                    self.event_fd,
                    (&one) as *const u64 as *const c_void,
                    std::mem::size_of::<u64>(),
                )
            };
            // EAGAIN means the counter is already saturated with pending
            // wakeups — the waiter will wake regardless.
            if r < 0 {
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::WouldBlock {
                    return Err(err);
                }
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.event_fd);
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    #![allow(missing_docs)] // backend impls are documented at the crate root
    //! Portable `poll(2)` backend: registrations tracked in a table, oneshot
    //! emulated by disarming delivered entries, wakeups via a self-pipe.

    use super::{Event, Events};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::raw::{c_int, c_short, c_void};
    use std::sync::Mutex;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: usize, timeout_ms: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;
    const F_SETFL: c_int = 4;
    const O_NONBLOCK: c_int = 0o4000;

    #[derive(Clone, Copy)]
    struct Entry {
        key: usize,
        readable: bool,
        writable: bool,
        armed: bool,
    }

    /// poll(2)-backed poller.
    #[derive(Debug)]
    pub struct Poller {
        table: Mutex<HashMap<RawFd, Entry>>,
        pipe_r: RawFd,
        pipe_w: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let mut fds = [0 as c_int; 2];
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            unsafe {
                fcntl(fds[0], F_SETFL, O_NONBLOCK);
                fcntl(fds[1], F_SETFL, O_NONBLOCK);
            }
            Ok(Poller {
                table: Mutex::new(HashMap::new()),
                pipe_r: fds[0],
                pipe_w: fds[1],
            })
        }

        pub fn add(&self, source: &impl AsRawFd, ev: Event) -> io::Result<()> {
            let mut table = self.table.lock().unwrap_or_else(|e| e.into_inner());
            table.insert(
                source.as_raw_fd(),
                Entry {
                    key: ev.key,
                    readable: ev.readable,
                    writable: ev.writable,
                    armed: true,
                },
            );
            Ok(())
        }

        pub fn modify(&self, source: &impl AsRawFd, ev: Event) -> io::Result<()> {
            let mut table = self.table.lock().unwrap_or_else(|e| e.into_inner());
            match table.get_mut(&source.as_raw_fd()) {
                Some(entry) => {
                    *entry = Entry {
                        key: ev.key,
                        readable: ev.readable,
                        writable: ev.writable,
                        armed: true,
                    };
                    Ok(())
                }
                None => Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "modify of an unregistered source",
                )),
            }
        }

        pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
            let mut table = self.table.lock().unwrap_or_else(|e| e.into_inner());
            table.remove(&source.as_raw_fd());
            Ok(())
        }

        pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
            events.clear();
            let (mut fds, keys): (Vec<PollFd>, Vec<(RawFd, usize)>) = {
                let table = self.table.lock().unwrap_or_else(|e| e.into_inner());
                let mut fds = vec![PollFd {
                    fd: self.pipe_r,
                    events: POLLIN,
                    revents: 0,
                }];
                let mut keys = vec![(self.pipe_r, usize::MAX)];
                for (&fd, entry) in table.iter() {
                    if !entry.armed || (!entry.readable && !entry.writable) {
                        continue;
                    }
                    let mut want: c_short = 0;
                    if entry.readable {
                        want |= POLLIN;
                    }
                    if entry.writable {
                        want |= POLLOUT;
                    }
                    fds.push(PollFd {
                        fd,
                        events: want,
                        revents: 0,
                    });
                    keys.push((fd, entry.key));
                }
                (fds, keys)
            };
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => d.as_millis().max(1).min(c_int::MAX as u128) as c_int,
            };
            let n = loop {
                let r = unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
                if r >= 0 {
                    break r;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n == 0 {
                return Ok(0);
            }
            let mut table = self.table.lock().unwrap_or_else(|e| e.into_inner());
            for (slot, &(fd, key)) in fds.iter().zip(keys.iter()) {
                if slot.revents == 0 {
                    continue;
                }
                if fd == self.pipe_r {
                    let mut buf = [0u8; 64];
                    while unsafe { read(self.pipe_r, buf.as_mut_ptr() as *mut c_void, buf.len()) }
                        > 0
                    {}
                    continue;
                }
                if let Some(entry) = table.get_mut(&fd) {
                    entry.armed = false; // oneshot
                }
                let err = slot.revents & (POLLERR | POLLHUP) != 0;
                events.items.push(Event {
                    key,
                    readable: slot.revents & POLLIN != 0 || err,
                    writable: slot.revents & POLLOUT != 0 || err,
                });
            }
            Ok(events.items.len())
        }

        pub fn notify(&self) -> io::Result<()> {
            let one = [1u8];
            unsafe { write(self.pipe_w, one.as_ptr() as *const c_void, 1) };
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.pipe_r);
                close(self.pipe_w);
            }
        }
    }
}

#[cfg(not(unix))]
mod sys {
    #![allow(missing_docs)] // backend impls are documented at the crate root
    //! Stub for non-Unix targets: construction fails with `Unsupported`.

    use super::{Event, Events};
    use std::io;
    use std::time::Duration;

    /// Unsupported-platform poller; [`Poller::new`] always errors.
    #[derive(Debug)]
    pub struct Poller {}

    // A source trait bound that exists on every platform.
    pub trait AnySource {}
    impl<T> AnySource for T {}

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "polling shim: no readiness backend on this platform",
            ))
        }

        pub fn add(&self, _source: &impl AnySource, _ev: Event) -> io::Result<()> {
            unreachable!("Poller cannot be constructed on this platform")
        }

        pub fn modify(&self, _source: &impl AnySource, _ev: Event) -> io::Result<()> {
            unreachable!("Poller cannot be constructed on this platform")
        }

        pub fn delete(&self, _source: &impl AnySource) -> io::Result<()> {
            unreachable!("Poller cannot be constructed on this platform")
        }

        pub fn wait(&self, _events: &mut Events, _timeout: Option<Duration>) -> io::Result<usize> {
            unreachable!("Poller cannot be constructed on this platform")
        }

        pub fn notify(&self) -> io::Result<()> {
            unreachable!("Poller cannot be constructed on this platform")
        }
    }
}

pub use sys::Poller;

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn readable_event_fires_once_then_rearms() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("poller");
        poller.add(&b, Event::readable(7)).expect("add");
        let mut events = Events::new();

        // Nothing buffered: times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0);

        a.write_all(b"x").expect("write");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert_eq!(n, 1);
        let ev = events.iter().next().expect("event");
        assert_eq!(ev.key, 7);
        assert!(ev.readable);

        // Oneshot: without a re-arm the (still readable) source is silent.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "oneshot must disarm after delivery");

        // Re-armed: fires again because the byte is still unread.
        poller.modify(&b, Event::readable(7)).expect("modify");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert_eq!(n, 1);

        // Consume and confirm quiescence after re-arm.
        let mut buf = [0u8; 4];
        let mut bref = &b;
        assert_eq!(bref.read(&mut buf).expect("read"), 1);
        poller.modify(&b, Event::readable(7)).expect("modify");
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0);
    }

    #[test]
    fn notify_wakes_a_blocked_wait() {
        let poller = Arc::new(Poller::new().expect("poller"));
        let waker = Arc::clone(&poller);
        let t0 = Instant::now();
        let waiter = std::thread::spawn(move || {
            let mut events = Events::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .expect("wait");
            events.len()
        });
        std::thread::sleep(Duration::from_millis(30));
        waker.notify().expect("notify");
        let delivered = waiter.join().expect("waiter");
        assert_eq!(delivered, 0, "a notify is not a user-visible event");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "notify must interrupt the wait"
        );
    }

    #[test]
    fn peer_close_surfaces_as_readable() {
        let (a, b) = pair();
        b.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("poller");
        poller.add(&b, Event::readable(3)).expect("add");
        drop(a);
        let mut events = Events::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert_eq!(n, 1);
        assert!(events.iter().next().expect("event").readable);
    }

    #[test]
    fn delete_unregisters() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("poller");
        poller.add(&b, Event::readable(1)).expect("add");
        poller.delete(&b).expect("delete");
        a.write_all(b"x").expect("write");
        let mut events = Events::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        assert_eq!(n, 0, "deleted source must not report");
    }
}
