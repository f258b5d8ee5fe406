//! Low-level socket plumbing for the real-UDP runtime.
//!
//! [`BatchSocket`] wraps a `std::net::UdpSocket` and moves one datagram
//! per syscall (`send_to` / `recv_from`) on every platform, with the
//! three ingredients of a shared-nothing transport worker around it:
//!
//! * **`SO_REUSEPORT` binding** ([`BatchSocket::bind`]): on Linux the
//!   socket is created by hand (`socket(2)`/`setsockopt(2)`/`bind(2)` via
//!   direct FFI — the workspace vendors no `libc`/`socket2` crate) so the
//!   option can be set *before* `bind`, letting N per-core sockets share
//!   one port with kernel 4-tuple load balancing.
//! * **Batches per poll iteration, not per syscall** (the batch in
//!   `BatchSocket` and [`MAX_BATCH`]): sends queue on the socket and
//!   leave together in one [`BatchSocket::flush`] per poll iteration, and
//!   a receive drains at most [`MAX_BATCH`] datagrams before the worker
//!   dispatches them and reads on. Every socket is non-blocking: a worker
//!   waits for readiness in one [`PollSet::wait`] (`poll(2)` on Linux)
//!   with a *computed* timeout, then drains with
//!   [`BatchSocket::recv_now`].
//! * **A recycling buffer pool** ([`BufPool`]): receive slots are
//!   `BytesMut` buffers handed to the protocol as frozen [`Bytes`] and
//!   reclaimed via `Bytes::try_into_mut` once the node callback returns,
//!   so the steady-state hot path allocates no buffer and makes no
//!   `Bytes::copy_from_slice` per datagram. A worker's [`PollSet`] is
//!   re-armed in place, so a poll or a receive allocates nothing either;
//!   what is left is the one `Arc` per datagram that the vendored `bytes`
//!   stub's `freeze` boxes a buffer in (`crates/net/tests/alloc_budget.rs`
//!   pins it).

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use bytes::{Bytes, BytesMut};

/// Most datagrams one [`BatchSocket::recv_now`] drains: the chunk a worker
/// reads from a readable socket before it dispatches and reads on.
pub const MAX_BATCH: usize = 32;

/// Receive-slot size: comfortably above every MTU the stack uses.
pub const RECV_SLOT_BYTES: usize = 2048;

/// A pool of fixed-size receive buffers recycled through
/// `Bytes::try_into_mut`.
///
/// `take` hands out a cleared, full-length slot; `recycle` recovers the
/// storage of a frozen payload when the protocol dropped every other
/// handle (the common case — the codec copies fields out during decode).
/// Misses simply allocate, so retention by the node is safe, just slower.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<BytesMut>,
    allocated: u64,
    recycled: u64,
}

impl BufPool {
    /// A pool pre-seeded with `slots` buffers.
    pub fn with_slots(slots: usize) -> Self {
        let mut pool = BufPool::default();
        for _ in 0..slots {
            pool.free.push(BytesMut::with_capacity(RECV_SLOT_BYTES));
        }
        pool
    }

    /// Takes a buffer resized to [`RECV_SLOT_BYTES`] (zero-filled only on
    /// first use of fresh storage).
    pub fn take(&mut self) -> BytesMut {
        let mut buf = self.free.pop().unwrap_or_else(|| {
            self.allocated += 1;
            BytesMut::with_capacity(RECV_SLOT_BYTES)
        });
        buf.resize(RECV_SLOT_BYTES, 0);
        buf
    }

    /// Returns a buffer to the pool (length is restored on `take`, so the
    /// common full-length round trip re-zeroes nothing).
    pub fn put(&mut self, buf: BytesMut) {
        self.free.push(buf);
    }

    /// Attempts to reclaim a frozen payload's storage; counts the result.
    pub fn recycle(&mut self, payload: Bytes) {
        if let Ok(buf) = payload.try_into_mut() {
            self.recycled += 1;
            self.put(buf);
        }
    }

    /// Buffers allocated beyond the initial seeding (hot-path allocation
    /// pressure; 0 in steady state).
    pub fn allocations(&self) -> u64 {
        self.allocated
    }

    /// Payloads whose storage was successfully reclaimed.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }
}

/// A queued outgoing datagram.
#[derive(Clone, Debug)]
pub struct SendEntry {
    /// Destination socket address.
    pub to: SocketAddr,
    /// Encoded payload.
    pub payload: Bytes,
}

/// Tallies of one [`BatchSocket::flush`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushOutcome {
    /// Datagrams handed to the kernel.
    pub sent: u64,
    /// Payload bytes handed to the kernel.
    pub bytes: u64,
    /// Datagrams abandoned on a hard send error.
    pub dropped: u64,
}

#[cfg(target_os = "linux")]
mod linux {
    //! Hand-declared FFI against the platform libc: exactly the symbols
    //! and struct layouts (x86_64/aarch64 Linux) the `SO_REUSEPORT` bind
    //! and the `poll(2)` wait need.
    #![allow(non_camel_case_types)]

    use std::os::raw::{c_int, c_uint, c_ulong, c_void};

    #[repr(C)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    /// Generic socket-address buffer (matches `sockaddr_storage` size and
    /// alignment).
    #[repr(C, align(8))]
    pub struct sockaddr_storage(pub [u8; 128]);

    impl sockaddr_storage {
        pub fn zeroed() -> Self {
            sockaddr_storage([0u8; 128])
        }
    }

    pub const AF_INET: u16 = 2;
    pub const AF_INET6: u16 = 10;
    pub const SOCK_DGRAM: c_int = 2;
    pub const SOCK_CLOEXEC: c_int = 0x8_0000;
    pub const SOL_SOCKET: c_int = 1;
    pub const SO_REUSEPORT: c_int = 15;
    pub const POLLIN: i16 = 0x1;

    extern "C" {
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn bind(fd: c_int, addr: *const c_void, len: c_uint) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            val: *const c_void,
            len: c_uint,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn poll(fds: *mut pollfd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Encodes a `SocketAddr` into `out`; returns the sockaddr length.
    pub fn encode_sockaddr(addr: &std::net::SocketAddr, out: &mut sockaddr_storage) -> c_uint {
        out.0 = [0u8; 128];
        match addr {
            std::net::SocketAddr::V4(a) => {
                out.0[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                out.0[2..4].copy_from_slice(&a.port().to_be_bytes());
                out.0[4..8].copy_from_slice(&a.ip().octets());
                16 // sizeof(sockaddr_in)
            }
            std::net::SocketAddr::V6(a) => {
                out.0[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                out.0[2..4].copy_from_slice(&a.port().to_be_bytes());
                out.0[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
                out.0[8..24].copy_from_slice(&a.ip().octets());
                out.0[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
                28 // sizeof(sockaddr_in6)
            }
        }
    }
}

/// A non-blocking UDP socket with a send queue and a capped receive
/// drain. See the module docs for the full picture.
#[derive(Debug)]
pub struct BatchSocket {
    sock: UdpSocket,
    /// Outgoing datagrams awaiting a flush.
    tx: VecDeque<SendEntry>,
}

impl BatchSocket {
    /// Binds a socket, optionally with `SO_REUSEPORT` set **before**
    /// `bind` so several sockets (one per core) can share the port.
    ///
    /// Off Linux `reuseport` is ignored (the portable fallback binds via
    /// `std` and cannot share ports).
    pub fn bind(addr: SocketAddr, reuseport: bool) -> io::Result<BatchSocket> {
        let sock = Self::bind_inner(addr, reuseport)?;
        sock.set_nonblocking(true)?;
        Ok(BatchSocket {
            sock,
            tx: VecDeque::new(),
        })
    }

    #[cfg(target_os = "linux")]
    fn bind_inner(addr: SocketAddr, reuseport: bool) -> io::Result<UdpSocket> {
        use std::os::fd::FromRawFd;
        let family = match addr {
            SocketAddr::V4(_) => i32::from(linux::AF_INET),
            SocketAddr::V6(_) => i32::from(linux::AF_INET6),
        };
        // SAFETY: plain syscalls on an fd we own; the fd is closed on
        // every error path and otherwise handed to `UdpSocket`.
        unsafe {
            let fd = linux::socket(family, linux::SOCK_DGRAM | linux::SOCK_CLOEXEC, 0);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            if reuseport {
                let one: i32 = 1;
                let rc = linux::setsockopt(
                    fd,
                    linux::SOL_SOCKET,
                    linux::SO_REUSEPORT,
                    (&one as *const i32).cast(),
                    std::mem::size_of::<i32>() as u32,
                );
                if rc != 0 {
                    let err = io::Error::last_os_error();
                    linux::close(fd);
                    return Err(err);
                }
            }
            let mut storage = linux::sockaddr_storage::zeroed();
            let len = linux::encode_sockaddr(&addr, &mut storage);
            if linux::bind(fd, (&storage as *const linux::sockaddr_storage).cast(), len) != 0 {
                let err = io::Error::last_os_error();
                linux::close(fd);
                return Err(err);
            }
            Ok(UdpSocket::from_raw_fd(fd))
        }
    }

    #[cfg(not(target_os = "linux"))]
    fn bind_inner(addr: SocketAddr, _reuseport: bool) -> io::Result<UdpSocket> {
        UdpSocket::bind(addr)
    }

    /// The socket's local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// Borrows the underlying socket (for a multi-socket [`PollSet`]).
    pub fn socket(&self) -> &UdpSocket {
        &self.sock
    }

    /// Queues one outgoing datagram for the next [`BatchSocket::flush`].
    pub fn queue_send(&mut self, to: SocketAddr, payload: Bytes) {
        self.tx.push_back(SendEntry { to, payload });
    }

    /// Outgoing datagrams waiting for a flush.
    pub fn pending_tx(&self) -> usize {
        self.tx.len()
    }

    /// Flushes the send queue, one `send_to` per datagram. A hard error
    /// drops the datagram it hit and the flush goes on; it stops early
    /// (leaving the rest queued) when the kernel pushes back.
    pub fn flush(&mut self) -> FlushOutcome {
        let mut out = FlushOutcome::default();
        while let Some(entry) = self.tx.front() {
            match self.sock.send_to(&entry.payload, entry.to) {
                Ok(_) => {
                    out.sent += 1;
                    out.bytes += entry.payload.len() as u64;
                    self.tx.pop_front();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    out.dropped += 1;
                    self.tx.pop_front();
                }
            }
        }
        out
    }

    /// Drains up to `max` pending datagrams without waiting. Buffers come
    /// from (and unread slots return to) `pool`; each datagram lands in
    /// `out` truncated to its length, alongside the sender address.
    pub fn recv_now(
        &mut self,
        pool: &mut BufPool,
        out: &mut Vec<(BytesMut, SocketAddr)>,
        max: usize,
    ) -> io::Result<usize> {
        let mut got = 0usize;
        while got < max {
            let mut buf = pool.take();
            match self.sock.recv_from(&mut buf) {
                Ok((len, from)) => {
                    buf.truncate(len);
                    out.push((buf, from));
                    got += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    pool.put(buf);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    pool.put(buf);
                    continue;
                }
                Err(e) => {
                    pool.put(buf);
                    return Err(e);
                }
            }
        }
        Ok(got)
    }
}

/// The readiness set of a fixed list of sockets. Its `pollfd` array is
/// built as sockets join and re-armed in place by every [`PollSet::wait`],
/// so a wait allocates nothing.
#[derive(Default)]
pub struct PollSet {
    #[cfg(target_os = "linux")]
    fds: Vec<linux::pollfd>,
    #[cfg(not(target_os = "linux"))]
    len: usize,
}

impl PollSet {
    /// Adds `sock` to the set; its ready flag is the next index.
    pub fn push(&mut self, sock: &UdpSocket) {
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::AsRawFd;
            self.fds.push(linux::pollfd {
                fd: sock.as_raw_fd(),
                events: linux::POLLIN,
                revents: 0,
            });
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = sock;
            self.len += 1;
        }
    }

    /// Waits up to `timeout` for any socket of the set to become readable,
    /// setting the matching `ready` flags. One `poll(2)` syscall on Linux;
    /// the portable fallback sleeps a bounded slice and reports everything
    /// ready (a non-blocking drain then finds the truth).
    pub fn wait(&mut self, timeout: Duration, ready: &mut [bool]) -> io::Result<usize> {
        #[cfg(target_os = "linux")]
        {
            assert_eq!(self.fds.len(), ready.len(), "one ready flag per socket");
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let fds = &mut self.fds;
            // SAFETY: fds is a live, correctly-sized pollfd array.
            let rc = unsafe { linux::poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    ready.iter_mut().for_each(|r| *r = false);
                    return Ok(0);
                }
                return Err(err);
            }
            let mut n = 0;
            for (i, fd) in fds.iter().enumerate() {
                ready[i] = fd.revents & linux::POLLIN != 0;
                n += usize::from(ready[i]);
            }
            Ok(n)
        }
        #[cfg(not(target_os = "linux"))]
        {
            assert_eq!(self.len, ready.len(), "one ready flag per socket");
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
            ready.iter_mut().for_each(|r| *r = true);
            Ok(ready.len())
        }
    }
}

#[cfg(test)]
mod tests;
