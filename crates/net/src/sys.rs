//! Low-level batched-syscall socket plumbing for the real-UDP runtime.
//!
//! The deployment path of the overlay lives or dies on transport
//! throughput, and a one-syscall-per-packet receive loop caps a core at a
//! few hundred thousand datagrams/sec. [`BatchSocket`] wraps a
//! `std::net::UdpSocket` with the three ingredients of a shared-nothing
//! transport worker:
//!
//! * **`SO_REUSEPORT` binding** ([`BatchSocket::bind`]): on Linux the
//!   socket is created by hand (`socket(2)`/`setsockopt(2)`/`bind(2)` via
//!   direct FFI — the workspace vendors no `libc`/`socket2` crate) so the
//!   option can be set *before* `bind`, letting N per-core sockets share
//!   one port with kernel 4-tuple load balancing.
//! * **Batched syscalls** ([`SyscallMode::Batched`]): receives drain with
//!   `recvmmsg(2)` and sends flush with `sendmmsg(2)`, up to
//!   [`MAX_BATCH`] datagrams per syscall; readiness waits go through
//!   `poll(2)` with a *computed* timeout instead of re-arming
//!   `SO_RCVTIMEO` every loop iteration.
//! * **A recycling buffer pool** ([`BufPool`]): receive slots are
//!   `BytesMut` buffers handed to the protocol as frozen [`Bytes`] and
//!   reclaimed via `Bytes::try_into_mut` once the node callback returns,
//!   so the steady-state hot path allocates no buffer and makes no
//!   `Bytes::copy_from_slice` per datagram. Batch headers and buffer
//!   slots live on the stack and a worker's [`PollSet`] is re-armed in
//!   place, so a poll or a receive allocates nothing either; what is left
//!   is the one `Arc` per datagram that the vendored `bytes` stub's
//!   `freeze` boxes a buffer in (`crates/net/tests/alloc_budget.rs` pins
//!   it).
//!
//! [`SyscallMode::PerPacket`] keeps the portable one-datagram-per-syscall
//! path: it is the only mode off Linux (where the readiness wait falls
//! back to a cached `set_read_timeout` — re-armed only when the computed
//! wait actually changes, see [`TimeoutCache`]) and doubles as the
//! baseline arm of the `bench_udp` transport microbenchmark on Linux.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use bytes::{Bytes, BytesMut};

/// Largest datagram batch moved per `recvmmsg`/`sendmmsg` syscall.
pub const MAX_BATCH: usize = 32;

/// Receive-slot size: comfortably above every MTU the stack uses.
pub const RECV_SLOT_BYTES: usize = 2048;

/// Which syscall discipline a [`BatchSocket`] runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyscallMode {
    /// `recvmmsg`/`sendmmsg` batches behind a `poll(2)` readiness wait
    /// (Linux; requests degrade to [`SyscallMode::PerPacket`] elsewhere).
    Batched,
    /// One `recv_from`/`send_to` syscall per datagram — the legacy
    /// discipline, kept as the portable fallback and the microbenchmark
    /// baseline.
    PerPacket,
}

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

/// Caches the last `set_read_timeout` value so the blocking fallback path
/// re-arms the socket option only when the computed wait actually changes
/// (quantised to milliseconds — the kernel's effective granularity).
///
/// The pre-rework `UdpRuntime::poll` issued this syscall every loop
/// iteration; with a stable timer wheel the wait is identical across
/// iterations and the re-arm is pure overhead.
#[derive(Debug, Default)]
pub struct TimeoutCache {
    last_ms: Option<u64>,
}

impl TimeoutCache {
    /// Quantises `want` and returns the duration to re-arm with, or `None`
    /// when the socket already has an equivalent timeout armed.
    pub fn rearm(&mut self, want: Duration) -> Option<Duration> {
        let ms = want.as_millis().clamp(1, 60_000) as u64;
        if self.last_ms == Some(ms) {
            return None;
        }
        self.last_ms = Some(ms);
        Some(Duration::from_millis(ms))
    }
}

#[cfg(target_os = "linux")]
mod linux {
    //! Hand-declared FFI against the platform libc: exactly the symbols
    //! and struct layouts (x86_64/aarch64 Linux) the batched path needs.
    #![allow(non_camel_case_types)]

    use std::os::raw::{c_int, c_uint, c_ulong, c_void};

    #[repr(C)]
    pub struct iovec {
        pub iov_base: *mut c_void,
        pub iov_len: usize,
    }

    #[repr(C)]
    pub struct msghdr {
        pub msg_name: *mut c_void,
        pub msg_namelen: c_uint,
        pub msg_iov: *mut iovec,
        pub msg_iovlen: usize,
        pub msg_control: *mut c_void,
        pub msg_controllen: usize,
        pub msg_flags: c_int,
    }

    #[repr(C)]
    pub struct mmsghdr {
        pub msg_hdr: msghdr,
        pub msg_len: c_uint,
    }

    #[repr(C)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    /// Generic socket-address buffer (matches `sockaddr_storage` size and
    /// alignment).
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
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
    pub const MSG_DONTWAIT: c_int = 0x40;
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
        pub fn recvmmsg(
            fd: c_int,
            vec: *mut mmsghdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void,
        ) -> c_int;
        pub fn sendmmsg(fd: c_int, vec: *mut mmsghdr, vlen: c_uint, flags: c_int) -> c_int;
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

    /// Decodes a kernel-written socket address.
    pub fn decode_sockaddr(buf: &sockaddr_storage) -> Option<std::net::SocketAddr> {
        let family = u16::from_ne_bytes([buf.0[0], buf.0[1]]);
        if family == AF_INET {
            let port = u16::from_be_bytes([buf.0[2], buf.0[3]]);
            let ip = std::net::Ipv4Addr::new(buf.0[4], buf.0[5], buf.0[6], buf.0[7]);
            Some(std::net::SocketAddr::V4(std::net::SocketAddrV4::new(
                ip, port,
            )))
        } else if family == AF_INET6 {
            let port = u16::from_be_bytes([buf.0[2], buf.0[3]]);
            let flow = u32::from_be_bytes([buf.0[4], buf.0[5], buf.0[6], buf.0[7]]);
            let mut oct = [0u8; 16];
            oct.copy_from_slice(&buf.0[8..24]);
            let scope = u32::from_ne_bytes([buf.0[24], buf.0[25], buf.0[26], buf.0[27]]);
            Some(std::net::SocketAddr::V6(std::net::SocketAddrV6::new(
                std::net::Ipv6Addr::from(oct),
                port,
                flow,
                scope,
            )))
        } else {
            None
        }
    }
}

/// A UDP socket with batched receive/send and a computed-wait readiness
/// discipline. See the module docs for the full picture.
#[derive(Debug)]
pub struct BatchSocket {
    sock: UdpSocket,
    mode: SyscallMode,
    /// Blocking-path read-timeout cache (portable fallback only; Linux
    /// waits in `poll(2)` and never touches `SO_RCVTIMEO`).
    #[cfg_attr(target_os = "linux", allow(dead_code))]
    timeout_cache: TimeoutCache,
    /// Outgoing datagrams awaiting a flush.
    tx: VecDeque<SendEntry>,
}

impl BatchSocket {
    /// Binds a socket, optionally with `SO_REUSEPORT` set **before**
    /// `bind` so several sockets (one per core) can share the port.
    ///
    /// Off Linux `reuseport` is ignored (the portable fallback binds via
    /// `std` and cannot share ports) and the effective mode is always
    /// [`SyscallMode::PerPacket`].
    pub fn bind(addr: SocketAddr, reuseport: bool) -> io::Result<BatchSocket> {
        let sock = Self::bind_inner(addr, reuseport)?;
        let mut s = BatchSocket {
            sock,
            mode: SyscallMode::PerPacket,
            timeout_cache: TimeoutCache::default(),
            tx: VecDeque::new(),
        };
        s.set_mode(SyscallMode::Batched);
        Ok(s)
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

    /// Borrows the underlying socket (for multi-socket [`poll_readable`]).
    pub fn socket(&self) -> &UdpSocket {
        &self.sock
    }

    /// The active syscall discipline.
    pub fn mode(&self) -> SyscallMode {
        self.mode
    }

    /// Selects the syscall discipline. [`SyscallMode::Batched`] is only
    /// honoured on Linux; elsewhere the socket stays per-packet.
    pub fn set_mode(&mut self, mode: SyscallMode) {
        let effective = if cfg!(target_os = "linux") {
            mode
        } else {
            SyscallMode::PerPacket
        };
        self.mode = effective;
        // Batched and Linux per-packet paths wait via poll(2) on a
        // non-blocking fd; the portable path blocks with a cached read
        // timeout.
        let _ = self.sock.set_nonblocking(cfg!(target_os = "linux"));
    }

    /// Queues one outgoing datagram for the next [`BatchSocket::flush`].
    pub fn queue_send(&mut self, to: SocketAddr, payload: Bytes) {
        self.tx.push_back(SendEntry { to, payload });
    }

    /// Outgoing datagrams waiting for a flush.
    pub fn pending_tx(&self) -> usize {
        self.tx.len()
    }

    /// Flushes the send queue — `sendmmsg` batches in
    /// [`SyscallMode::Batched`], `send_to` per datagram otherwise. Stops
    /// early (leaving the rest queued) when the kernel pushes back.
    pub fn flush(&mut self) -> FlushOutcome {
        match self.mode {
            SyscallMode::Batched => self.flush_batched(),
            SyscallMode::PerPacket => self.flush_per_packet(),
        }
    }

    fn flush_per_packet(&mut self) -> FlushOutcome {
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

    #[cfg(target_os = "linux")]
    fn flush_batched(&mut self) -> FlushOutcome {
        use std::os::fd::AsRawFd;
        let mut out = FlushOutcome::default();
        while !self.tx.is_empty() {
            let n = self.tx.len().min(MAX_BATCH);
            let mut names = [linux::sockaddr_storage::zeroed(); MAX_BATCH];
            let mut iovs: [linux::iovec; MAX_BATCH] = std::array::from_fn(|_| linux::iovec {
                iov_base: std::ptr::null_mut(),
                iov_len: 0,
            });
            let mut hdrs: [linux::mmsghdr; MAX_BATCH] = std::array::from_fn(|_| linux::mmsghdr {
                msg_hdr: linux::msghdr {
                    msg_name: std::ptr::null_mut(),
                    msg_namelen: 0,
                    msg_iov: std::ptr::null_mut(),
                    msg_iovlen: 0,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            });
            for i in 0..n {
                let entry = &self.tx[i];
                let name_len = linux::encode_sockaddr(&entry.to, &mut names[i]);
                // The kernel only reads from send iovecs; the *mut is an
                // artefact of sharing `iovec` with the receive path.
                iovs[i].iov_base = entry.payload.as_ptr() as *mut _;
                iovs[i].iov_len = entry.payload.len();
                hdrs[i].msg_hdr.msg_name = (&mut names[i] as *mut linux::sockaddr_storage).cast();
                hdrs[i].msg_hdr.msg_namelen = name_len;
                hdrs[i].msg_hdr.msg_iov = &mut iovs[i];
                hdrs[i].msg_hdr.msg_iovlen = 1;
            }
            // SAFETY: hdrs/iovs/names outlive the call; payload bytes are
            // kept alive by the queue entries until after it returns.
            let rc =
                unsafe { linux::sendmmsg(self.sock.as_raw_fd(), hdrs.as_mut_ptr(), n as u32, 0) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                match err.kind() {
                    io::ErrorKind::WouldBlock => break,
                    io::ErrorKind::Interrupted => continue,
                    _ => {
                        // Hard error: charge it to the head datagram and
                        // keep the rest for the next flush.
                        out.dropped += 1;
                        self.tx.pop_front();
                    }
                }
                continue;
            }
            for _ in 0..rc as usize {
                let entry = self.tx.pop_front().expect("sendmmsg count within queue");
                out.sent += 1;
                out.bytes += entry.payload.len() as u64;
            }
            if (rc as usize) < n {
                break; // kernel pushed back mid-batch
            }
        }
        out
    }

    #[cfg(not(target_os = "linux"))]
    fn flush_batched(&mut self) -> FlushOutcome {
        self.flush_per_packet()
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
        match self.mode {
            SyscallMode::Batched => self.recv_now_batched(pool, out, max),
            SyscallMode::PerPacket => self.recv_now_per_packet(pool, out, max),
        }
    }

    fn recv_now_per_packet(
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
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
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

    #[cfg(target_os = "linux")]
    fn recv_now_batched(
        &mut self,
        pool: &mut BufPool,
        out: &mut Vec<(BytesMut, SocketAddr)>,
        max: usize,
    ) -> io::Result<usize> {
        use std::os::fd::AsRawFd;
        let mut total = 0usize;
        loop {
            let n = (max - total).min(MAX_BATCH);
            if n == 0 {
                return Ok(total);
            }
            // On the stack, like the headers: a receive allocates nothing.
            let mut bufs: [Option<BytesMut>; MAX_BATCH] =
                std::array::from_fn(|i| (i < n).then(|| pool.take()));
            let mut names = [linux::sockaddr_storage::zeroed(); MAX_BATCH];
            let mut iovs: [linux::iovec; MAX_BATCH] = std::array::from_fn(|_| linux::iovec {
                iov_base: std::ptr::null_mut(),
                iov_len: 0,
            });
            let mut hdrs: [linux::mmsghdr; MAX_BATCH] = std::array::from_fn(|_| linux::mmsghdr {
                msg_hdr: linux::msghdr {
                    msg_name: std::ptr::null_mut(),
                    msg_namelen: 0,
                    msg_iov: std::ptr::null_mut(),
                    msg_iovlen: 0,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            });
            for (i, buf) in bufs.iter_mut().flatten().enumerate() {
                iovs[i].iov_base = buf.as_mut_ptr().cast();
                iovs[i].iov_len = buf.len();
                hdrs[i].msg_hdr.msg_name = (&mut names[i] as *mut linux::sockaddr_storage).cast();
                hdrs[i].msg_hdr.msg_namelen = 128;
                hdrs[i].msg_hdr.msg_iov = &mut iovs[i];
                hdrs[i].msg_hdr.msg_iovlen = 1;
            }
            // SAFETY: every pointer in hdrs targets stack arrays or the
            // `bufs` storage, all of which outlive the call.
            let rc = unsafe {
                linux::recvmmsg(
                    self.sock.as_raw_fd(),
                    hdrs.as_mut_ptr(),
                    n as u32,
                    linux::MSG_DONTWAIT,
                    std::ptr::null_mut(),
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                for buf in bufs.into_iter().flatten() {
                    pool.put(buf);
                }
                return match err.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => Ok(total),
                    _ => Err(err),
                };
            }
            let got = rc as usize;
            for (i, mut buf) in bufs.into_iter().flatten().enumerate() {
                if i < got {
                    buf.truncate(hdrs[i].msg_len as usize);
                    match linux::decode_sockaddr(&names[i]) {
                        Some(from) => out.push((buf, from)),
                        None => pool.put(buf),
                    }
                } else {
                    pool.put(buf);
                }
            }
            total += got;
            if got < n {
                return Ok(total); // queue drained
            }
        }
    }

    #[cfg(not(target_os = "linux"))]
    fn recv_now_batched(
        &mut self,
        pool: &mut BufPool,
        out: &mut Vec<(BytesMut, SocketAddr)>,
        max: usize,
    ) -> io::Result<usize> {
        self.recv_now_per_packet(pool, out, max)
    }

    /// Waits up to `timeout` for readability, then drains up to `max`
    /// datagrams. On Linux the wait is one `poll(2)` with the computed
    /// timeout; the portable path blocks in `recv_from` with a cached
    /// `set_read_timeout` re-armed only when the wait changes.
    pub fn recv_wait(
        &mut self,
        pool: &mut BufPool,
        out: &mut Vec<(BytesMut, SocketAddr)>,
        max: usize,
        timeout: Duration,
    ) -> io::Result<usize> {
        #[cfg(target_os = "linux")]
        {
            let mut ready = [false];
            poll_readable(&[&self.sock], timeout, &mut ready)?;
            if !ready[0] {
                return Ok(0);
            }
            self.recv_now(pool, out, max)
        }
        #[cfg(not(target_os = "linux"))]
        {
            if let Some(d) = self.timeout_cache.rearm(timeout) {
                self.sock.set_read_timeout(Some(d))?;
            }
            let mut buf = pool.take();
            match self.sock.recv_from(&mut buf) {
                Ok((len, from)) => {
                    buf.truncate(len);
                    out.push((buf, from));
                    // Opportunistically drain whatever else is pending.
                    let _ = max;
                    Ok(1)
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    pool.put(buf);
                    Ok(0)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    pool.put(buf);
                    Ok(0)
                }
                Err(e) => {
                    pool.put(buf);
                    Err(e)
                }
            }
        }
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

/// Waits up to `timeout` for any of `socks` to become readable, setting
/// the matching `ready` flags: a one-off [`PollSet`].
pub fn poll_readable(
    socks: &[&UdpSocket],
    timeout: Duration,
    ready: &mut [bool],
) -> io::Result<usize> {
    let mut set = PollSet::default();
    socks.iter().for_each(|sock| set.push(sock));
    set.wait(timeout, ready)
}

#[cfg(test)]
mod tests;
