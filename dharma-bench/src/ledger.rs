//! The per-layer cost ledger: probes that time each layer's public
//! functions from outside, and the table that attributes a traced phase
//! to them.
//!
//! Probes run min-of-N on state pulled from the finished overlay — real
//! routing tables, real stores, payloads captured from the run — so a
//! number here is the cost of the call the run actually made, not of a
//! synthetic one. Where the run produced no message of a class (a plain
//! overlay sends no pushes), the probe rebuilds one from real state so the
//! metric always exists.

use std::net::SocketAddr;

use bytes::Bytes;
use dharma_cache::{CacheConfig, HotCache};
use dharma_kademlia::lookup::LookupState;
use dharma_kademlia::messages::FetchedValue;
use dharma_kademlia::{Contact, KademliaNode, Message, StoredEntry};
use dharma_likir::{AuthenticatedRecord, CertificationAuthority};
use dharma_net::sys::{BatchSocket, BufPool};
use dharma_types::{block_key, BlockType, Id160, VersionStamp, WireDecode, WireEncode};

use crate::report::Metrics;
use crate::spec::CODEC_CLASSES;
use crate::stats::min_of_n_ns;
use crate::traced::{TraceBuf, MESSAGE_TYPES, TYPE_SLOTS};

/// Repetitions of every probe timing.
const REPS: usize = 5;

/// What the probes measured. Nanoseconds per call unless named otherwise.
#[derive(Clone, Debug, Default)]
pub struct Probes {
    /// `encode_to_bytes` per codec class.
    pub encode_ns: [f64; 5],
    /// `decode_exact` per codec class.
    pub decode_ns: [f64; 5],
    /// Encoded size per codec class.
    pub bytes: [f64; 5],
    /// Mean `decode_exact` over the sampled payloads of each wire type.
    pub decode_ns_by_type: [f64; TYPE_SLOTS],
    /// Mean `encode_to_bytes` over the sampled payloads of each wire type.
    pub encode_ns_by_type: [f64; TYPE_SLOTS],
    /// `Storage::append` into the largest block.
    pub storage_append_ns: f64,
    /// `Storage::read_filtered` top-100 of the largest block.
    pub read_hub_ns: f64,
    /// `Storage::read_filtered` unfiltered of the smallest block.
    pub read_tail_ns: f64,
    /// Mean `Storage::read_filtered` over the reads the run's sampled
    /// `FindValue` requests asked for (0 when none were sampled).
    pub read_sampled_ns: f64,
    /// `RoutingTable::closest`.
    pub routing_closest_ns: f64,
    /// One `LookupState::next_queries` + `on_response` cycle.
    pub lookup_step_ns: f64,
    /// `HotCache::get` (hit).
    pub cache_get_ns: f64,
    /// `HotCache::insert`.
    pub cache_insert_ns: f64,
    /// `AuthenticatedRecord::sign`, µs.
    pub sign_us: f64,
    /// `AuthenticatedRecord::verify`, µs.
    pub verify_us: f64,
    /// `block_key`.
    pub block_key_ns: f64,
    /// `BatchSocket` queue + flush, per datagram.
    pub sys_send_ns: f64,
    /// `BatchSocket::recv_now`, per datagram.
    pub sys_recv_ns: f64,
    /// Share of the sampled reply bytes that is version-gossip digest.
    pub digest_bytes_share: f64,
}

fn time_decode(payload: &[u8]) -> f64 {
    min_of_n_ns(REPS, 64, || {
        std::hint::black_box(Message::decode_exact(std::hint::black_box(payload)).is_ok());
    })
}

fn time_encode(msg: &Message) -> f64 {
    min_of_n_ns(REPS, 64, || {
        std::hint::black_box(std::hint::black_box(msg).encode_to_bytes());
    })
}

/// The node holding the block with the most entries, and that block's key.
fn largest_block<'a>(nodes: &[&'a KademliaNode]) -> Option<(&'a KademliaNode, Id160, usize)> {
    let mut best: Option<(&KademliaNode, Id160, usize)> = None;
    for &n in nodes {
        for key in n.storage().keys() {
            let len = n.storage().get(key).map_or(0, |v| v.entry_count());
            if best.as_ref().is_none_or(|b| len > b.2) {
                best = Some((n, *key, len));
            }
        }
    }
    best
}

/// One message of each codec class: captured from the run where the run
/// sent one, otherwise rebuilt from the overlay's real state.
fn class_messages(
    nodes: &[&KademliaNode],
    trace: Option<&TraceBuf>,
    budget: usize,
) -> Vec<Message> {
    let me = nodes[0].contact().clone();
    let k = nodes[0].routing().k();
    let hub = largest_block(nodes);
    let target = hub.map_or(me.id, |h| h.1);
    let hub_view = hub
        .and_then(|(n, key, _)| n.storage().read_filtered(&key, 100, budget))
        .map(|r| (r.entries, r.truncated, r.version))
        .unwrap_or_default();
    let captured = |types: &[u8]| -> Option<Message> {
        let t = trace?;
        types.iter().find_map(|&ty| {
            t.largest[usize::from(ty)]
                .as_ref()
                .and_then(|b| Message::decode_exact(b).ok())
        })
    };
    vec![
        captured(&[5, 3]).unwrap_or(Message::FindValue {
            rpc: 1_000,
            from: me.clone(),
            key: target,
            top_n: 100,
            no_cache: false,
        }),
        captured(&[4]).unwrap_or_else(|| Message::FoundNodes {
            rpc: 1_000,
            from: me.clone(),
            contacts: nodes[0].routing().closest(&target, k),
            digest: Vec::new(),
        }),
        captured(&[6]).unwrap_or_else(|| Message::FoundValue {
            rpc: 1_000,
            from: me.clone(),
            blob: None,
            entries: hub_view.0.clone(),
            truncated: hub_view.1,
            version: hub_view.2,
            from_cache: false,
            digest: Vec::new(),
        }),
        captured(&[8]).unwrap_or_else(|| Message::Append {
            rpc: 1_000,
            from: me.clone(),
            key: target,
            entries: vec![StoredEntry {
                name: "t0000000001".into(),
                weight: 1,
            }],
            stamp: VersionStamp::new(1, me.id),
        }),
        captured(&[13, 11]).unwrap_or_else(|| Message::InvalidatePush {
            rpc: 1_000,
            from: me.clone(),
            key: target,
            top_n: 100,
            blob: None,
            entries: hub_view.0.clone(),
            truncated: hub_view.1,
            stamp: hub_view.2,
        }),
    ]
}

fn digest_len(msg: &Message) -> usize {
    let digest = match msg {
        Message::Pong { digest, .. }
        | Message::FoundNodes { digest, .. }
        | Message::FoundValue { digest, .. } => digest,
        _ => return 0,
    };
    digest.iter().map(WireEncode::encoded_len).sum()
}

fn probe_storage(nodes: &[&KademliaNode], trace: Option<&TraceBuf>, budget: usize, p: &mut Probes) {
    let Some((holder, hub_key, _)) = largest_block(nodes) else {
        return;
    };
    let store = holder.storage();
    let name = store
        .snapshot(&hub_key)
        .and_then(|(_, entries, _)| entries.first().map(|e| e.name.clone()))
        .unwrap_or_else(|| "t0000000001".into());
    let mut scratch = store.clone();
    let stamp = VersionStamp::new(1, holder.contact().id);
    p.storage_append_ns = min_of_n_ns(REPS, 256, || {
        std::hint::black_box(scratch.append(hub_key, &name, 1, stamp));
    });
    p.read_hub_ns = min_of_n_ns(REPS, 32, || {
        std::hint::black_box(store.read_filtered(&hub_key, 100, budget));
    });
    let tail_key = store
        .keys()
        .filter(|k| store.get(k).is_some_and(|v| v.entry_count() > 0))
        .min_by_key(|k| store.get(k).map_or(usize::MAX, |v| v.entry_count()))
        .copied()
        .unwrap_or(hub_key);
    p.read_tail_ns = min_of_n_ns(REPS, 256, || {
        std::hint::black_box(store.read_filtered(&tail_key, 0, budget));
    });

    // The reads the run actually asked for, on a node that holds the key.
    let mut costs = Vec::new();
    for payload in trace.map_or(&[][..], |t| &t.samples[5][..]) {
        let Ok(Message::FindValue { key, top_n, .. }) = Message::decode_exact(payload) else {
            continue;
        };
        if let Some(n) = nodes.iter().find(|n| n.storage().contains(&key)) {
            costs.push(min_of_n_ns(3, 16, || {
                std::hint::black_box(n.storage().read_filtered(&key, top_n, budget));
            }));
        }
    }
    if !costs.is_empty() {
        p.read_sampled_ns = costs.iter().sum::<f64>() / costs.len() as f64;
    }
}

fn probe_routing_and_lookup(nodes: &[&KademliaNode], alpha: usize, p: &mut Probes) {
    let node = nodes[nodes.len() / 2];
    let k = node.routing().k();
    let targets: Vec<Id160> = (0..16u32)
        .map(|i| block_key(&format!("t{i:010}"), BlockType::TagNeighbors))
        .collect();
    let mut i = 0usize;
    p.routing_closest_ns = min_of_n_ns(REPS, 64, || {
        i += 1;
        std::hint::black_box(node.routing().closest(&targets[i % targets.len()], k));
    });

    // One lookup cycle: ask for the next queries, then feed each queried
    // contact's answer — taken from that contact's own routing table when
    // it is one of `nodes`, else an empty answer.
    let target = targets[0];
    let answer = |c: &Contact| -> Vec<Contact> {
        nodes
            .iter()
            .find(|n| n.contact().id == c.id)
            .map(|n| n.routing().closest(&target, k))
            .unwrap_or_default()
    };
    let seeds = node.routing().closest(&target, k);
    let first: Vec<(Contact, Vec<Contact>)> = {
        let mut probe = LookupState::new(target, seeds.clone(), k, alpha);
        probe
            .next_queries()
            .into_iter()
            .map(|c| {
                let a = answer(&c);
                (c, a)
            })
            .collect()
    };
    if first.is_empty() {
        return;
    }
    let cycles = first.len() as f64;
    p.lookup_step_ns = min_of_n_ns(REPS, 32, || {
        let mut state = LookupState::new(target, seeds.clone(), k, alpha);
        let queried = state.next_queries();
        for (c, contacts) in &first {
            state.on_response(&c.id, contacts.clone());
        }
        std::hint::black_box((queried, state.next_queries()));
    }) / cycles;
}

fn probe_cache(hub: &FetchedValue, p: &mut Probes) {
    let mut cache: HotCache<FetchedValue> = HotCache::new(CacheConfig {
        capacity: 256,
        ttl_us: 5_000_000,
    });
    let keys: Vec<(Id160, u32)> = (0..256u32)
        .map(|i| {
            (
                block_key(&format!("t{i:010}"), BlockType::TagNeighbors),
                100,
            )
        })
        .collect();
    for key in &keys {
        cache.insert(*key, hub.version, hub.clone(), 0);
    }
    let mut i = 0usize;
    p.cache_get_ns = min_of_n_ns(REPS, 256, || {
        i += 1;
        std::hint::black_box(cache.get(&keys[i % keys.len()], 1));
    });
    p.cache_insert_ns = min_of_n_ns(REPS, 256, || {
        i += 1;
        std::hint::black_box(cache.insert(keys[i % keys.len()], hub.version, hub.clone(), 1));
    });
}

fn probe_likir_and_keys(p: &mut Probes) {
    let ca = CertificationAuthority::new(b"dharma-bench");
    let identity = ca.register("bench-probe", 0);
    let content = b"uri://r0000001".to_vec();
    p.sign_us = min_of_n_ns(REPS, 64, || {
        std::hint::black_box(AuthenticatedRecord::sign(
            &identity,
            "dharma",
            content.clone(),
        ));
    }) / 1e3;
    let record = AuthenticatedRecord::sign(&identity, "dharma", content);
    let verifier = ca.verifier();
    p.verify_us = min_of_n_ns(REPS, 64, || {
        std::hint::black_box(record.verify(&verifier, 0).is_ok());
    }) / 1e3;
    p.block_key_ns = min_of_n_ns(REPS, 256, || {
        std::hint::black_box(block_key(
            std::hint::black_box("t0000000001"),
            BlockType::TagNeighbors,
        ));
    });
}

/// Pumps datagrams across a `BatchSocket` pair on loopback: queue + flush
/// a batch on one, drain it on the other.
fn probe_sys(p: &mut Probes) {
    const BATCH: usize = 32;
    let any: SocketAddr = "127.0.0.1:0".parse().expect("literal socket address");
    let (Ok(mut tx), Ok(mut rx)) = (BatchSocket::bind(any, false), BatchSocket::bind(any, false))
    else {
        return;
    };
    let Ok(to) = rx.local_addr() else { return };
    let payload = Bytes::from(vec![0x5Au8; 200]);
    let mut pool = BufPool::with_slots(2 * BATCH);
    let mut got = Vec::with_capacity(BATCH);
    let (mut send_best, mut recv_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..20 {
        let t0 = std::time::Instant::now();
        for _ in 0..BATCH {
            tx.queue_send(to, payload.clone());
        }
        let sent = tx.flush().sent.max(1);
        let t1 = std::time::Instant::now();
        let mut received = 0usize;
        let deadline = t1 + std::time::Duration::from_millis(50);
        let mut recv_ns = 0f64;
        while received < sent as usize && std::time::Instant::now() < deadline {
            got.clear();
            let r0 = std::time::Instant::now();
            let n = rx.recv_now(&mut pool, &mut got, BATCH).unwrap_or(0);
            if n > 0 {
                recv_ns += r0.elapsed().as_nanos() as f64;
                received += n;
            }
            for (buf, _) in got.drain(..) {
                pool.put(buf);
            }
        }
        send_best = send_best.min((t1 - t0).as_nanos() as f64 / sent as f64);
        if received > 0 {
            recv_best = recv_best.min(recv_ns / received as f64);
        }
    }
    p.sys_send_ns = if send_best.is_finite() {
        send_best
    } else {
        0.0
    };
    p.sys_recv_ns = if recv_best.is_finite() {
        recv_best
    } else {
        0.0
    };
}

/// Runs every probe. `nodes` are the finished overlay's protocol nodes,
/// `trace` the traced run's buffer (payload samples), `reply_budget` and
/// `alpha` the overlay's configuration.
pub fn run_probes(
    nodes: &[&KademliaNode],
    trace: Option<&TraceBuf>,
    reply_budget: usize,
    alpha: usize,
) -> Probes {
    let mut p = Probes::default();
    let classes = class_messages(nodes, trace, reply_budget);
    for (i, msg) in classes.iter().enumerate() {
        let bytes = msg.encode_to_bytes();
        p.bytes[i] = bytes.len() as f64;
        p.encode_ns[i] = time_encode(msg);
        p.decode_ns[i] = time_decode(&bytes);
    }
    let (mut digest_bytes, mut reply_bytes) = (0usize, 0usize);
    if let Some(t) = trace {
        for (ty, _) in MESSAGE_TYPES {
            let slot = usize::from(ty);
            let decoded: Vec<(f64, f64)> = t.samples[slot]
                .iter()
                .filter_map(|b| {
                    let msg = Message::decode_exact(b).ok()?;
                    digest_bytes += digest_len(&msg);
                    reply_bytes += b.len();
                    Some((time_decode_quick(b), time_encode_quick(&msg)))
                })
                .collect();
            if !decoded.is_empty() {
                let n = decoded.len() as f64;
                p.decode_ns_by_type[slot] = decoded.iter().map(|d| d.0).sum::<f64>() / n;
                p.encode_ns_by_type[slot] = decoded.iter().map(|d| d.1).sum::<f64>() / n;
            }
        }
    }
    if reply_bytes > 0 {
        p.digest_bytes_share = digest_bytes as f64 / reply_bytes as f64;
    }
    probe_storage(nodes, trace, reply_budget, &mut p);
    probe_routing_and_lookup(nodes, alpha, &mut p);
    if let Message::FoundValue {
        blob,
        entries,
        truncated,
        version,
        ..
    } = &classes[2]
    {
        probe_cache(
            &FetchedValue {
                blob: blob.clone(),
                entries: entries.clone(),
                truncated: *truncated,
                version: *version,
                from_cache: false,
            },
            &mut p,
        );
    }
    probe_likir_and_keys(&mut p);
    probe_sys(&mut p);
    p
}

fn time_decode_quick(payload: &[u8]) -> f64 {
    min_of_n_ns(3, 16, || {
        std::hint::black_box(Message::decode_exact(std::hint::black_box(payload)).is_ok());
    })
}

fn time_encode_quick(msg: &Message) -> f64 {
    min_of_n_ns(3, 16, || {
        std::hint::black_box(std::hint::black_box(msg).encode_to_bytes());
    })
}

impl Probes {
    /// Writes the probe-backed per-layer metrics.
    pub fn write_metrics(&self, m: &mut Metrics) {
        for (i, class) in CODEC_CLASSES.iter().enumerate() {
            m.set(&format!("kad.codec.encode_ns.{class}"), self.encode_ns[i]);
            m.set(&format!("kad.codec.decode_ns.{class}"), self.decode_ns[i]);
            m.set(&format!("kad.codec.bytes.{class}"), self.bytes[i]);
        }
        m.set("kad.storage.append_ns", self.storage_append_ns);
        m.set("kad.storage.read_filtered_hub_ns", self.read_hub_ns);
        m.set("kad.storage.read_filtered_tail_ns", self.read_tail_ns);
        m.set("kad.routing.closest_ns", self.routing_closest_ns);
        m.set("kad.lookup.step_ns", self.lookup_step_ns);
        m.set("cache.hot.get_ns", self.cache_get_ns);
        m.set("cache.hot.insert_ns", self.cache_insert_ns);
        m.set("likir.sign_us", self.sign_us);
        m.set("likir.verify_us", self.verify_us);
        m.set("types.block_key_ns", self.block_key_ns);
        m.set("net.sys.send_ns_per_dgram", self.sys_send_ns);
        m.set("net.sys.recv_ns_per_dgram", self.sys_recv_ns);
        m.set("cache.fresh.digest_bytes_share", self.digest_bytes_share);
    }
}

/// One row of the ledger.
#[derive(Clone, Debug)]
pub struct Row {
    /// Layer (module) and function.
    pub layer: &'static str,
    /// Calls attributed.
    pub count: u64,
    /// Cost per call, ns.
    pub ns_per_unit: f64,
}

impl Row {
    fn ms(&self) -> f64 {
        self.count as f64 * self.ns_per_unit / 1e6
    }
}

/// What the ledger needs from a traced simulator phase beyond the trace
/// buffer: the phase's wall time, the time inside `step()`, and counts the
/// harness kept.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTotals {
    /// Host nanoseconds of the whole phase.
    pub phase_ns: u64,
    /// Host nanoseconds inside `step()` / `poll()`.
    pub step_ns: u64,
    /// Steps taken.
    pub steps: u64,
    /// Block operations issued.
    pub lookups: u64,
    /// Hot-cache lookups (hits + misses) during the phase.
    pub cache_gets: u64,
    /// Hot-cache insertions during the phase.
    pub cache_inserts: u64,
}

/// The ledger of one traced phase: the rows, and the share left over.
#[derive(Clone, Debug)]
pub struct Ledger {
    /// Attributed rows.
    pub rows: Vec<Row>,
    /// Handler time no probe accounts for, ms (negative when the probes
    /// overestimate).
    pub unattributed_ms: f64,
    /// The measured phase, ms.
    pub phase_ms: f64,
}

/// Attributes a traced phase. The phase splits exactly into harness time
/// (outside `step`), simulator dispatch (`step` minus the wrapped handler
/// calls), the tracing wrapper's own cost, and handler time; handler time
/// is then attributed to the layers by `calls × probed cost`, and what no
/// probe explains is `unattributed`. Rows plus `unattributed` sum to the
/// phase.
pub fn build_ledger(t: &TraceBuf, totals: PhaseTotals, p: &Probes) -> Ledger {
    let handler_ns: u64 = t.handled_ns.iter().sum::<u64>() + t.timer_ns;
    let wrapped_ns = handler_ns + t.wrapper_ns;
    let handled = |ty: u8| t.handled[usize::from(ty)];
    let sent = |ty: u8| t.sent[usize::from(ty)];
    let total_handled: u64 = t.handled.iter().sum();
    let total_sent: u64 = t.sent.iter().sum();
    let decode_ns: f64 = (1..TYPE_SLOTS)
        .map(|s| t.handled[s] as f64 * p.decode_ns_by_type[s])
        .sum();
    // A sent message of a type that was never sampled on delivery (lost,
    // or delivered before sampling began) costs the class mean.
    let encode_ns: f64 = (1..TYPE_SLOTS)
        .map(|s| t.sent[s] as f64 * p.encode_ns_by_type[s])
        .sum();
    let per = |total: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    let reads = sent(6);
    let read_ns = if p.read_sampled_ns > 0.0 {
        p.read_sampled_ns
    } else {
        p.read_tail_ns
    };
    let closest = (handled(3) + handled(5)).saturating_sub(sent(6)) + totals.lookups;
    let mut rows = vec![
        Row {
            layer: "bench.executor (outside step)",
            count: 1,
            ns_per_unit: totals.phase_ns.saturating_sub(totals.step_ns) as f64,
        },
        Row {
            layer: "bench.trace.wrapper",
            count: total_handled + t.timers,
            ns_per_unit: per(t.wrapper_ns as f64, total_handled + t.timers),
        },
        Row {
            layer: "net.sim.step (self)",
            count: totals.steps,
            ns_per_unit: per(
                totals.step_ns.saturating_sub(wrapped_ns) as f64,
                totals.steps,
            ),
        },
        Row {
            layer: "kad.codec.decode",
            count: total_handled,
            ns_per_unit: per(decode_ns, total_handled),
        },
        Row {
            layer: "kad.codec.encode",
            count: total_sent,
            ns_per_unit: per(encode_ns, total_sent),
        },
        Row {
            layer: "kad.storage.append",
            count: handled(7) + handled(8) + handled(10),
            ns_per_unit: p.storage_append_ns,
        },
        Row {
            layer: "kad.storage.read_filtered",
            count: reads,
            ns_per_unit: read_ns,
        },
        Row {
            layer: "kad.routing.closest",
            count: closest,
            ns_per_unit: p.routing_closest_ns,
        },
        Row {
            layer: "kad.lookup.step",
            count: handled(4),
            ns_per_unit: p.lookup_step_ns,
        },
        Row {
            layer: "cache.hot.get",
            count: totals.cache_gets,
            ns_per_unit: p.cache_get_ns,
        },
        Row {
            layer: "cache.hot.insert",
            count: totals.cache_inserts,
            ns_per_unit: p.cache_insert_ns,
        },
    ];
    // The first three rows are measured directly; the rest are carved out
    // of handler time.
    let carved: f64 = rows.iter().skip(3).map(Row::ms).sum();
    let unattributed_ms = handler_ns as f64 / 1e6 - carved;
    rows.retain(|r| r.count > 0);
    let phase_ms = totals.phase_ns as f64 / 1e6;
    Ledger {
        rows,
        unattributed_ms,
        phase_ms,
    }
}

impl Ledger {
    /// `unattributed` as a share of the phase.
    pub fn unattributed_share(&self) -> f64 {
        if self.phase_ms > 0.0 {
            self.unattributed_ms / self.phase_ms
        } else {
            0.0
        }
    }

    /// The table: `layer, count, ns/unit, attributed ms, share`, then the
    /// unattributed remainder and the total.
    pub fn lines(&self) -> Vec<String> {
        let share = |ms: f64| {
            if self.phase_ms > 0.0 {
                ms / self.phase_ms
            } else {
                0.0
            }
        };
        let mut out = vec![format!(
            "# ledger: {:<34} {:>10} {:>12} {:>12} {:>7}",
            "layer", "count", "ns/unit", "attrib ms", "share"
        )];
        for r in &self.rows {
            out.push(format!(
                "# ledger: {:<34} {:>10} {:>12.1} {:>12.3} {:>7.4}",
                r.layer,
                r.count,
                r.ns_per_unit,
                r.ms(),
                share(r.ms())
            ));
        }
        out.push(format!(
            "# ledger: {:<34} {:>10} {:>12} {:>12.3} {:>7.4}",
            "unattributed (handler remainder)",
            "",
            "",
            self.unattributed_ms,
            share(self.unattributed_ms)
        ));
        let total: f64 = self.rows.iter().map(Row::ms).sum::<f64>() + self.unattributed_ms;
        out.push(format!(
            "# ledger: {:<34} {:>10} {:>12} {:>12.3} {:>7.4}  (measured phase {:.3} ms)",
            "sum",
            "",
            "",
            total,
            share(total),
            self.phase_ms
        ));
        out
    }
}
