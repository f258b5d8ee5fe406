//! The socket layer's tests, over loopback sockets.

// dharma-lint: allow-file(D1): test code timing real socket waits; it was
// exempt as an inline `#[cfg(test)]` module and nothing here feeds SimNet.

use super::*;

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// Waits up to `timeout` for `sock` alone to become readable: a one-socket
/// [`PollSet`].
fn readable(sock: &BatchSocket, timeout: Duration) -> bool {
    let mut set = PollSet::default();
    set.push(sock.socket());
    let mut ready = [false];
    set.wait(timeout, &mut ready).unwrap();
    ready[0]
}

/// Drains `sock` into `got` until it holds `want` datagrams or two seconds
/// pass.
fn recv_until(
    sock: &mut BatchSocket,
    pool: &mut BufPool,
    got: &mut Vec<(BytesMut, SocketAddr)>,
    want: usize,
) {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while got.len() < want && std::time::Instant::now() < deadline {
        if readable(sock, Duration::from_millis(50)) {
            sock.recv_now(pool, got, MAX_BATCH).unwrap();
        }
    }
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
    recv_until(&mut b, &mut pool, &mut got, 5);
    assert_eq!(got.len(), 5);
    let addr_a = a.local_addr().unwrap();
    for (i, (buf, from)) in got.iter().enumerate() {
        assert_eq!(buf.len(), 64);
        assert_eq!(buf[0], i as u8);
        assert_eq!(*from, addr_a);
    }
}

/// Port 0 is not a valid destination (`sendto` fails with `EINVAL` on
/// Linux): the flush drops that datagram and still sends the one behind it.
#[cfg(target_os = "linux")]
#[test]
fn flush_charges_a_hard_error_to_the_head_and_sends_the_rest() {
    let mut a = BatchSocket::bind(loopback(), false).unwrap();
    let mut b = BatchSocket::bind(loopback(), false).unwrap();
    let addr_b = b.local_addr().unwrap();
    let mut pool = BufPool::with_slots(4);

    a.queue_send(loopback(), Bytes::from(vec![1u8; 16]));
    a.queue_send(addr_b, Bytes::from(vec![2u8; 48]));
    let flushed = a.flush();
    assert_eq!(
        flushed,
        FlushOutcome {
            sent: 1,
            bytes: 48,
            dropped: 1
        }
    );
    assert_eq!(a.pending_tx(), 0);

    let mut got = Vec::new();
    recv_until(&mut b, &mut pool, &mut got, 1);
    // Loopback keeps order: anything sent ahead of the good datagram has
    // landed by now.
    b.recv_now(&mut pool, &mut got, MAX_BATCH).unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0.as_ref(), &[2u8; 48]);
}

#[test]
fn recv_now_honours_max() {
    let mut a = BatchSocket::bind(loopback(), false).unwrap();
    let mut b = BatchSocket::bind(loopback(), false).unwrap();
    let addr_b = b.local_addr().unwrap();
    let mut pool = BufPool::with_slots(8);

    for i in 0..5u8 {
        a.queue_send(addr_b, Bytes::from(vec![i; 8]));
    }
    assert_eq!(a.flush().sent, 5);
    assert!(readable(&b, Duration::from_secs(2)));

    let mut got = Vec::new();
    assert_eq!(b.recv_now(&mut pool, &mut got, 2).unwrap(), 2);
    assert_eq!(got.len(), 2);
    assert_eq!(b.recv_now(&mut pool, &mut got, MAX_BATCH).unwrap(), 3);
    let firsts: Vec<u8> = got.iter().map(|(buf, _)| buf[0]).collect();
    assert_eq!(firsts, [0, 1, 2, 3, 4], "send order");
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
fn poll_set_times_out_and_wakes() {
    let a = BatchSocket::bind(loopback(), false).unwrap();
    let b = BatchSocket::bind(loopback(), false).unwrap();
    let addr_a = a.local_addr().unwrap();
    // Nothing pending: the wait expires quietly.
    let start = std::time::Instant::now();
    assert!(!readable(&a, Duration::from_millis(20)));
    assert!(start.elapsed() >= Duration::from_millis(5));
    // A datagram wakes the poll well before the timeout.
    b.sock.send_to(b"x", addr_a).unwrap();
    let woke = (0..100).any(|_| readable(&a, Duration::from_millis(50)));
    assert!(woke, "datagram arrival must mark the socket readable");
}
