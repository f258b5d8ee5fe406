//! Real-socket transport microbench (`bench_udp`): what the syscall layer
//! under `UdpWorker` costs, measured on loopback with no overlay on top.
//!
//! One thread pumps datagrams through a [`BatchSocket`] pair in
//! [`SyscallMode::Batched`] (`sendmmsg` / `recvmmsg`) and again in
//! [`SyscallMode::PerPacket`] (the legacy one-syscall-per-packet
//! discipline). The ratio is the headline number: datagrams/sec/core
//! batched vs not. A third arm exercises `SO_REUSEPORT`: several sockets
//! sharing one port, each fed by its own sender, drained by one thread.
//!
//! Kademlia GETs over real sockets are measured elsewhere: `dharma-bench`'s
//! `udp_search` workload runs them over `UdpWorker` threads end to end.
//! No workload runs here, so nothing needs a seed, and every number is a
//! host-dependent measurement; `bench_udp` gates only on the ratio.

// dharma-lint: allow-file(D1): a real-socket benchmark harness — every timing
// here measures actual syscalls and is reported as informational wall-clock.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use bytes::Bytes;

use dharma_net::sys::{BatchSocket, BufPool, SyscallMode, MAX_BATCH};
use dharma_types::{DharmaError, Result};

/// Microbench results (single thread, loopback).
#[derive(Clone, Debug)]
pub struct MicrobenchReport {
    /// Datagrams pumped per arm.
    pub datagrams: u64,
    /// Payload bytes per datagram.
    pub payload: usize,
    /// Datagrams/sec/core with `sendmmsg`/`recvmmsg` batching.
    pub batched_dgrams_per_sec: f64,
    /// Datagrams/sec/core with one syscall per packet (legacy discipline).
    pub per_packet_dgrams_per_sec: f64,
    /// `batched / per_packet` — the headline speedup.
    pub speedup: f64,
    /// Sockets sharing one port in the `SO_REUSEPORT` arm (0 = skipped).
    pub reuseport_sockets: usize,
    /// Aggregate datagrams/sec across the shared-port sockets.
    pub reuseport_dgrams_per_sec: f64,
    /// Host syscall-machinery cost from [`syscall_cost_ns`] — the bound
    /// on what batching can save per packet.
    pub syscall_cost_ns: f64,
}

/// Pumps `total` datagrams from a sender to a sink on loopback and returns
/// datagrams/sec. One thread drives both ends, so the figure is per core.
/// A bounded in-flight window keeps loopback buffers from overflowing;
/// the count is of *received* datagrams, so kernel drops only cost time.
fn pump_throughput(mode: SyscallMode, total: u64, payload: usize) -> Result<f64> {
    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("literal");
    let mut tx = BatchSocket::bind(loopback, false)?;
    let mut rx = BatchSocket::bind(loopback, false)?;
    tx.set_mode(mode);
    rx.set_mode(mode);
    // The pump interleaves send and receive on one thread, so both ends
    // must be non-blocking regardless of platform defaults.
    tx.socket().set_nonblocking(true)?;
    rx.socket().set_nonblocking(true)?;
    let to = rx.local_addr()?;
    // One allocation; queued sends clone the `Bytes` handle (refcount
    // bump), so the syscall discipline is the only difference between arms.
    let body = Bytes::from(vec![0xA5u8; payload]);
    let mut pool = BufPool::with_slots(2 * MAX_BATCH);
    let mut got: Vec<(bytes::BytesMut, SocketAddr)> = Vec::with_capacity(MAX_BATCH);

    const WINDOW: u64 = 64;
    let mut sent = 0u64;
    let mut received = 0u64;
    let started = Instant::now();
    let deadline = started + Duration::from_secs(30);
    while received < total {
        while sent - received < WINDOW {
            tx.queue_send(to, body.clone());
            sent += 1;
        }
        let flushed = tx.flush();
        // Drop accounting only matters for the window; time is the metric.
        sent -= flushed.dropped;
        loop {
            got.clear();
            let n = rx.recv_now(&mut pool, &mut got, MAX_BATCH)?;
            received += n as u64;
            for (buf, _) in got.drain(..) {
                pool.put(buf);
            }
            if n < MAX_BATCH {
                break;
            }
        }
        if Instant::now() > deadline {
            return Err(DharmaError::Io(format!(
                "microbench stalled: {received}/{total} datagrams after 30 s"
            )));
        }
    }
    let secs = started.elapsed().as_secs_f64();
    Ok(received as f64 / secs)
}

/// `SO_REUSEPORT` arm: `sockets` receivers share one port, each fed by its
/// own sender socket (the kernel hashes the 4-tuple, so distinct senders
/// spread across the sharing receivers). Returns aggregate datagrams/sec.
/// Skipped (returns 0) off Linux, where ports cannot be shared.
fn pump_reuseport(sockets: usize, total: u64, payload: usize) -> Result<f64> {
    if !cfg!(target_os = "linux") {
        return Ok(0.0);
    }
    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("literal");
    let first = BatchSocket::bind(loopback, true)?;
    let shared = first.local_addr()?;
    let mut rxs = vec![first];
    for _ in 1..sockets {
        rxs.push(BatchSocket::bind(shared, true)?);
    }
    let mut txs = Vec::with_capacity(sockets);
    for _ in 0..sockets {
        txs.push(BatchSocket::bind(loopback, false)?);
    }
    for s in rxs.iter_mut().chain(txs.iter_mut()) {
        s.set_mode(SyscallMode::Batched);
        s.socket().set_nonblocking(true)?;
    }
    let body = Bytes::from(vec![0x5Au8; payload]);
    let mut pool = BufPool::with_slots(4 * MAX_BATCH);
    let mut got: Vec<(bytes::BytesMut, SocketAddr)> = Vec::with_capacity(MAX_BATCH);

    const WINDOW: u64 = 32; // per sender
    let mut sent = vec![0u64; sockets];
    let mut received = 0u64;
    let started = Instant::now();
    let deadline = started + Duration::from_secs(30);
    while received < total {
        let floor = received / sockets as u64;
        for (i, tx) in txs.iter_mut().enumerate() {
            while sent[i] < floor + WINDOW {
                tx.queue_send(shared, body.clone());
                sent[i] += 1;
            }
            let flushed = tx.flush();
            sent[i] -= flushed.dropped;
        }
        for rx in &mut rxs {
            loop {
                got.clear();
                let n = rx.recv_now(&mut pool, &mut got, MAX_BATCH)?;
                received += n as u64;
                for (buf, _) in got.drain(..) {
                    pool.put(buf);
                }
                if n < MAX_BATCH {
                    break;
                }
            }
        }
        if Instant::now() > deadline {
            return Err(DharmaError::Io(format!(
                "reuseport microbench stalled: {received}/{total} after 30 s"
            )));
        }
    }
    Ok(received as f64 / started.elapsed().as_secs_f64())
}

/// Measures the host's syscall-machinery cost (ns/syscall) by timing a
/// burst of `setsockopt` calls — the cheapest socket syscall, and the
/// very one the legacy runtime burned once per poll iteration.
///
/// Syscall batching trades N syscall entries for one; its achievable
/// speedup is therefore bounded by the syscall share of per-packet cost.
/// On kernels with expensive entries (CPU-vulnerability mitigations on,
/// ~600+ ns) batching doubles loopback throughput; on stripped VMs
/// (~100 ns entries) the loopback stack itself dominates and the ceiling
/// is far lower. `bench_udp` records this probe and enforces the 2× bar
/// only where the hardware can express it — the same policy
/// `ablation_scale` applies to its multi-core speedup bar.
pub fn syscall_cost_ns() -> Result<f64> {
    let sock = std::net::UdpSocket::bind("127.0.0.1:0")?;
    const CALLS: u32 = 50_000;
    let t0 = Instant::now();
    for i in 0..CALLS {
        // Alternate the value so no layer can elide a repeated store.
        sock.set_read_timeout(Some(Duration::from_millis(1 + u64::from(i & 1))))?;
    }
    Ok(t0.elapsed().as_nanos() as f64 / f64::from(CALLS))
}

/// Syscall cost (ns) above which the ≥ 2× batching bar is enforced: with
/// entries this expensive, syscalls are the dominant per-packet cost on
/// loopback and batching them away must pay off.
pub const SYSCALL_COST_GATE_NS: f64 = 400.0;

/// Runs all microbench arms. `datagrams` per arm, 256-byte payloads (a
/// typical FoundNodes reply size).
pub fn transport_microbench(datagrams: u64) -> Result<MicrobenchReport> {
    const PAYLOAD: usize = 256;
    let per_packet = pump_throughput(SyscallMode::PerPacket, datagrams, PAYLOAD)?;
    let batched = pump_throughput(SyscallMode::Batched, datagrams, PAYLOAD)?;
    let reuseport_sockets = if cfg!(target_os = "linux") { 4 } else { 0 };
    let reuseport = if reuseport_sockets > 0 {
        pump_reuseport(reuseport_sockets, datagrams, PAYLOAD)?
    } else {
        0.0
    };
    Ok(MicrobenchReport {
        datagrams,
        payload: PAYLOAD,
        batched_dgrams_per_sec: batched,
        per_packet_dgrams_per_sec: per_packet,
        speedup: batched / per_packet,
        reuseport_sockets,
        reuseport_dgrams_per_sec: reuseport,
        syscall_cost_ns: syscall_cost_ns()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_pumps_every_arm_to_completion() {
        // The mechanism test: each arm returns only once every datagram
        // was *received* (a stalled pump is an error), so `Ok` plus finite
        // positive rates is all that is deterministic here. Which arm is
        // faster is a wall-clock race — 1.04× on the dev box, lost about
        // one run in four on a loaded 2-vCPU host — and that bar lives in
        // `bench_udp`, armed only where `syscall_cost_ns` says the host
        // can express it.
        let report = transport_microbench(20_000).unwrap();
        assert_eq!(report.datagrams, 20_000);
        for rate in [
            report.per_packet_dgrams_per_sec,
            report.batched_dgrams_per_sec,
        ] {
            assert!(rate.is_finite() && rate > 0.0);
        }
        assert!(report.speedup.is_finite() && report.speedup > 0.0);
        if cfg!(target_os = "linux") {
            assert_eq!(report.reuseport_sockets, 4, "the shared-port arm ran");
            assert!(report.reuseport_dgrams_per_sec > 0.0);
        }
    }
}
