//! The batched socket layer's tests, over loopback sockets.

// dharma-lint: allow-file(D1): test code timing real socket waits; it was
// exempt as an inline `#[cfg(test)]` module and nothing here feeds SimNet.

use super::*;

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

#[test]
fn batched_roundtrip_between_two_sockets() {
    let mut a = BatchSocket::bind(loopback(), false).unwrap();
    let mut b = BatchSocket::bind(loopback(), false).unwrap();
    let addr_b = b.local_addr().unwrap();
    let mut pool = BufPool::with_slots(8);

    for i in 0..5u8 {
        a.queue_send(addr_b, Bytes::from(vec![i; 64]));
    }
    assert_eq!(a.pending_tx(), 5);
    let flushed = a.flush();
    assert_eq!(flushed.sent, 5);
    assert_eq!(flushed.bytes, 5 * 64);
    assert_eq!(a.pending_tx(), 0);

    let mut got = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while got.len() < 5 && std::time::Instant::now() < deadline {
        b.recv_wait(&mut pool, &mut got, MAX_BATCH, Duration::from_millis(50))
            .unwrap();
    }
    assert_eq!(got.len(), 5);
    let addr_a = a.local_addr().unwrap();
    for (i, (buf, from)) in got.iter().enumerate() {
        assert_eq!(buf.len(), 64);
        assert_eq!(buf[0], i as u8);
        assert_eq!(*from, addr_a);
    }
}

#[test]
fn per_packet_mode_roundtrips_too() {
    let mut a = BatchSocket::bind(loopback(), false).unwrap();
    let mut b = BatchSocket::bind(loopback(), false).unwrap();
    a.set_mode(SyscallMode::PerPacket);
    b.set_mode(SyscallMode::PerPacket);
    let addr_b = b.local_addr().unwrap();
    let mut pool = BufPool::with_slots(4);

    a.queue_send(addr_b, Bytes::from(vec![7u8; 32]));
    assert_eq!(a.flush().sent, 1);
    let mut got = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while got.is_empty() && std::time::Instant::now() < deadline {
        b.recv_wait(&mut pool, &mut got, 4, Duration::from_millis(50))
            .unwrap();
    }
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0.as_ref(), &[7u8; 32]);
}

#[cfg(target_os = "linux")]
#[test]
fn reuseport_lets_two_sockets_share_a_port() {
    let a = BatchSocket::bind(loopback(), true).unwrap();
    let port = a.local_addr().unwrap().port();
    let shared: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
    let b = BatchSocket::bind(shared, true).unwrap();
    assert_eq!(b.local_addr().unwrap().port(), port);
    // Without the option the same bind must fail.
    assert!(BatchSocket::bind(shared, false).is_err());
}

#[test]
fn pool_recycles_payload_storage() {
    let mut pool = BufPool::with_slots(1);
    let mut buf = pool.take();
    buf.truncate(16);
    let payload = buf.freeze();
    let clone = payload.clone();
    pool.recycle(payload); // refused: a second handle exists
    assert_eq!(pool.recycled(), 0);
    pool.recycle(clone); // sole owner now: storage returns
    assert_eq!(pool.recycled(), 1);
    // The recovered slot is reused without a fresh allocation.
    let _again = pool.take();
    assert_eq!(pool.allocations(), 0);
}

#[test]
fn timeout_cache_rearms_only_on_change() {
    let mut cache = TimeoutCache::default();
    assert_eq!(
        cache.rearm(Duration::from_millis(5)),
        Some(Duration::from_millis(5))
    );
    assert_eq!(cache.rearm(Duration::from_millis(5)), None);
    assert_eq!(cache.rearm(Duration::from_micros(5_400)), None, "same ms");
    assert_eq!(
        cache.rearm(Duration::from_millis(9)),
        Some(Duration::from_millis(9))
    );
    assert_eq!(
        cache.rearm(Duration::ZERO),
        Some(Duration::from_millis(1)),
        "sub-millisecond waits clamp to the kernel granularity floor"
    );
}

#[test]
fn poll_readable_times_out_and_wakes() {
    let a = BatchSocket::bind(loopback(), false).unwrap();
    let b = BatchSocket::bind(loopback(), false).unwrap();
    let addr_a = a.local_addr().unwrap();
    let mut ready = [false];
    // Nothing pending: the wait expires quietly.
    let start = std::time::Instant::now();
    poll_readable(&[&a.sock], Duration::from_millis(20), &mut ready).unwrap();
    assert!(start.elapsed() >= Duration::from_millis(5));
    // A datagram wakes the poll well before the timeout.
    b.sock.send_to(b"x", addr_a).unwrap();
    let mut woke = false;
    for _ in 0..100 {
        poll_readable(&[&a.sock], Duration::from_millis(50), &mut ready).unwrap();
        if ready[0] {
            woke = true;
            break;
        }
    }
    assert!(woke, "datagram arrival must mark the socket readable");
}
