//! The DHARMA client: tagging primitives over the DHT (paper §IV).
//!
//! A [`DharmaClient`] is bound to one overlay node (its *home node*) and
//! drives the simulated network synchronously: each overlay lookup is
//! issued, the simulation is run until the operation completes, and the
//! client accounts one lookup on its [`OpCost`] receipt. This mirrors the
//! deployment model of the paper, where the tagging application sits on a
//! Likir node and performs blocking PUT/GET primitives.
//!
//! The **naive vs approximated** tagging split of §IV-B is a client-side
//! policy ([`ApproxPolicy`]): the DHT neither knows nor cares — which is the
//! point, since Approximation A only *bounds how many `τ̂` blocks the client
//! updates* and Approximation B only *changes the increment it appends*.

use dharma_folksonomy::{ApproxPolicy, BPolicy};
use dharma_kademlia::{KadOutput, KademliaNode, StoredEntry, ValueView};
use dharma_likir::{AuthenticatedRecord, Identity};
use dharma_net::SimNet;
use dharma_types::{block_key, BlockType, DharmaError, FxHashMap, Id160, Result, VersionStamp};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cost::OpCost;

dharma_types::config! {
    /// Client configuration.
    ///
    /// Marked `#[non_exhaustive]`: construct one with
    /// [`DharmaConfig::default`] or [`DharmaConfig::builder`] and adjust
    /// fields from there — new client knobs then stop being breaking struct
    /// literal changes for downstream crates.
    #[derive(Clone, Debug)]
    #[non_exhaustive]
    pub struct DharmaConfig => DharmaConfigBuilder {
        /// Approximation policy for tagging operations.
        policy: ApproxPolicy = ApproxPolicy::paper(1),
        /// Index-side filtering limit for search-step `GET t̂` (paper: 100).
        search_top_n: u32 = 100,
        /// Likir application namespace used when signing URI records.
        namespace: String as impl Into<String> = "dharma".into(),
        /// Client-side RNG seed (Approximation A subset selection).
        seed: u64 = 0,
        /// Safety cap on simulator events per blocking operation.
        max_events_per_op: u64 = 5_000_000,
        /// How many times a timed-out **idempotent** operation (GET, blob
        /// PUT) is reissued before the error surfaces. An overlay op can die
        /// with its coordinator (the home node crashes mid-lookup and its RPC
        /// timers die with it) or starve when every replica times out; under
        /// churn a fresh attempt usually routes around the corpses. APPENDs
        /// are **never** retried: replicas that applied the append before the
        /// timeout would double-count its tokens on a reissue. Each attempt
        /// is accounted as one more lookup on the receipt. 0 restores
        /// fail-fast.
        op_retries: u32 = 2,
    }
}

impl DharmaConfig {
    fn validate(&self) -> std::result::Result<(), String> {
        if self.namespace.is_empty() {
            return Err("namespace must be non-empty (it scopes record signatures)".into());
        }
        if self.max_events_per_op == 0 {
            return Err("max_events_per_op must be >= 1 (0 would time out every op)".into());
        }
        Ok(())
    }
}

/// The consistency level a [`DharmaClient::get`] read is served under.
///
/// [`Eventual`](Consistency::Eventual) is the classic read path — byte-
/// identical behaviour to a plain overlay GET. The session levels enforce
/// a *floor*: the read's served version must not fall below what this
/// client session has already observed ([`SessionToken`]); a below-floor
/// serve triggers one authoritative re-read ([`KademliaNode::get_view`]
/// with `fresh`), and if even that stays below the floor the read surfaces
/// [`DharmaError::StaleRead`] instead of silently going back in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// No session floor: caches serve freely, staleness is bounded only
    /// by the overlay's freshness machinery (TTL, gossip, push).
    #[default]
    Eventual,
    /// Reads reflect every write this client session has completed: a
    /// GET of a key the session wrote never serves a pre-write view.
    ReadYourWrites,
    /// Successive reads of a key never move backwards within this
    /// session, even across cache hits on different serving nodes.
    MonotonicReads,
}

/// The per-session consistency floor: the highest origin stamp this
/// client has observed for each key, through its own writes *and* reads.
///
/// One combined floor serves both session levels — it is the pointwise
/// maximum of what read-your-writes (own writes) and monotonic reads
/// (own reads) each require, so enforcing it yields both guarantees at
/// once, never a wrong serve. Bounded only by the number of distinct
/// keys the session touches; [`SessionToken::reset`] starts a new
/// session.
#[derive(Clone, Debug, Default)]
pub struct SessionToken {
    floors: FxHashMap<Id160, VersionStamp>,
}

impl SessionToken {
    /// The floor for `key`: the highest stamp observed, or the
    /// never-written [`VersionStamp::ZERO`] when the session has not
    /// touched the key (every serve passes a zero floor).
    pub fn floor(&self, key: &Id160) -> VersionStamp {
        self.floors.get(key).copied().unwrap_or(VersionStamp::ZERO)
    }

    /// Folds an observed stamp into the floor (monotone: only raises).
    pub fn observe(&mut self, key: Id160, stamp: VersionStamp) {
        let slot = self.floors.entry(key).or_insert(VersionStamp::ZERO);
        *slot = (*slot).max(stamp);
    }

    /// Number of keys this session has observed.
    pub fn tracked(&self) -> usize {
        self.floors.len()
    }

    /// Forgets every observation — the next read starts a fresh session.
    pub fn reset(&mut self) {
        self.floors.clear();
    }
}

/// What a tagging operation reports beyond its cost.
#[derive(Clone, Debug)]
pub struct TagReceipt {
    /// Lookup/message cost.
    pub cost: OpCost,
    /// `|Tags(r)|` as observed from the fetched `r̄` block (excluding `t`).
    pub neighborhood: usize,
    /// How many `τ̂` blocks were updated (≤ k under Approximation A).
    pub updated: usize,
    /// Whether `t` was newly attached to `r`.
    pub newly_attached: bool,
}

/// A fetched block, as the overlay delivered it: the value's validated
/// wire body ([`ValueView`]), read through borrowing accessors. Nothing is
/// decoded on receipt; a caller that keeps a name copies it out
/// (`to_owned`), and a caller that only looks names up — a search step
/// intersecting its running sets — never allocates one. The default is
/// the empty block (no entries, no blob), what a search step reads for a
/// key nobody holds.
#[derive(Clone, Debug, Default)]
pub struct BlockView(ValueView);

impl BlockView {
    /// Entries of the weighted set, `(name, weight)` in the holder's reply
    /// order, borrowed from the body.
    pub fn entries(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.0.entries()
    }

    /// True if the server cut the list (top-n filtering or MTU).
    pub fn truncated(&self) -> bool {
        self.0.truncated
    }

    /// Blob content, if the block stores one, borrowed from the body.
    pub fn blob(&self) -> Option<&[u8]> {
        self.0.blob()
    }
}

/// The DHARMA tagging client.
pub struct DharmaClient {
    home: dharma_net::NodeAddr,
    identity: Identity,
    cfg: DharmaConfig,
    rng: StdRng,
    /// Completions that arrived while waiting for other ops.
    stash: FxHashMap<u64, KadOutput>,
    /// Session-consistency floor: highest stamp observed per key, fed by
    /// every write receipt and every served read of this client.
    session: SessionToken,
}

impl DharmaClient {
    /// Binds a client to its home overlay node.
    pub fn new(home: dharma_net::NodeAddr, identity: Identity, cfg: DharmaConfig) -> Self {
        let seed = cfg.seed;
        DharmaClient {
            home,
            identity,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            stash: FxHashMap::default(),
            session: SessionToken::default(),
        }
    }

    /// The configured approximation policy.
    pub fn policy(&self) -> ApproxPolicy {
        self.cfg.policy
    }

    /// The home node's transport address.
    pub fn home(&self) -> dharma_net::NodeAddr {
        self.home
    }

    /// The session-consistency floor accumulated so far (every write
    /// receipt and served read raises it).
    pub fn session(&self) -> &SessionToken {
        &self.session
    }

    /// Starts a fresh session: forgets every observed stamp, so the next
    /// session-level read passes vacuously.
    pub fn reset_session(&mut self) {
        self.session.reset();
    }

    /// Merges another session's floors into this one — the causal-handoff
    /// path. A client resuming someone's session (same user, different
    /// home node or process) imports the token; its session-level reads
    /// then reflect everything the imported session observed.
    pub fn import_session(&mut self, token: &SessionToken) {
        // dharma-lint: allow(D3): observe() folds a max per key; order-independent
        for (key, stamp) in &token.floors {
            self.session.observe(*key, *stamp);
        }
    }

    /// A consistency-levelled block read: fetch the weighted set at `key`
    /// (index-side filtered to `top_n` heaviest entries when `top_n > 0`).
    ///
    /// [`Consistency::Eventual`] is exactly the read path every other
    /// client operation uses. The session levels check the served version
    /// against this session's floor ([`SessionToken`]); a below-floor
    /// serve escalates once to an authoritative re-read (cache-bypassing,
    /// one more accounted lookup), and surfaces
    /// [`DharmaError::StaleRead`] if the overlay still cannot meet the
    /// floor. Reads and writes by this client raise the floor as a side
    /// effect, whatever level they run at.
    pub fn get(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        key: Id160,
        top_n: u32,
        consistency: Consistency,
    ) -> Result<(Option<BlockView>, OpCost)> {
        let (served, cost) = self.get_stamped(net, key, top_n, consistency)?;
        Ok((served.map(|(view, _)| view), cost))
    }

    /// [`DharmaClient::get`], but the served view keeps its origin stamp.
    ///
    /// The stamp is what the session floor is made of — callers that hand
    /// a view to another process (or audit the consistency contract, as
    /// the session proptests do) need it alongside the payload: a
    /// successful session-level read always satisfies
    /// `stamp >= self.session().floor(&key)` as observed before the call.
    pub fn get_stamped(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        key: Id160,
        top_n: u32,
        consistency: Consistency,
    ) -> Result<(Option<(BlockView, VersionStamp)>, OpCost)> {
        let (served, mut cost) = self.run_get_stamped(net, key, top_n, false)?;
        let floor = self.session.floor(&key);
        let below = |s: &Option<(BlockView, VersionStamp)>| match s {
            // A missing value is below any real floor: the session saw a
            // write (or a written view) the responding holders lack.
            None => !floor.is_zero(),
            Some((_, stamp)) => *stamp < floor,
        };
        let enforce = matches!(
            consistency,
            Consistency::ReadYourWrites | Consistency::MonotonicReads
        );
        if !enforce || !below(&served) {
            return Ok((served, cost));
        }
        // Escalate: re-read refusing caches end-to-end, then re-check.
        let (served, retry_cost) = self.run_get_stamped(net, key, top_n, true)?;
        cost.absorb(retry_cost);
        if below(&served) {
            return Err(DharmaError::StaleRead(format!(
                "key {key:?}: authoritative re-read served {:?}, session floor is {floor:?}",
                served.map(|(_, s)| s).unwrap_or(VersionStamp::ZERO)
            )));
        }
        Ok((served, cost))
    }

    /// **Resource insertion** (§IV-A): publishes `r` with URI and tags,
    /// in `2 + 2m` lookups.
    ///
    /// 1. `PUT r̃` — the signed URI record;
    /// 2. `APPEND r̄` — all `m` tag entries at weight 1 (one block update);
    /// 3. per tag `tᵢ`: `APPEND t̄ᵢ` (the reverse edge) and `APPEND t̂ᵢ`
    ///    (the `m − 1` new FG arcs) — `2m` block updates.
    pub fn insert_resource(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        resource: &str,
        uri: &str,
        tags: &[&str],
    ) -> Result<OpCost> {
        let mut unique: Vec<&str> = tags.to_vec();
        unique.sort_unstable();
        unique.dedup();
        if unique.is_empty() {
            return Err(DharmaError::InvalidArgument(
                "a resource needs at least one tag".into(),
            ));
        }
        let mut cost = OpCost::default();

        // 1. r̃ — the URI record, signed by the author (Likir content
        //    authentication).
        let record =
            AuthenticatedRecord::sign(&self.identity, &self.cfg.namespace, uri.as_bytes().to_vec());
        let blob = dharma_types::WireEncode::encode_to_bytes(&record).to_vec();
        let key = block_key(resource, BlockType::ResourceUri);
        let (put_cost, stamp) =
            self.run_write(net, true, |n, ctx| n.put_blob(ctx, key, blob.clone()))?;
        self.session.observe(key, stamp);
        cost.absorb(put_cost);

        // 2. r̄ — all tags of the new resource in one block update.
        let key = block_key(resource, BlockType::ResourceTags);
        let entries: Vec<StoredEntry> = unique
            .iter()
            .map(|t| StoredEntry {
                name: (*t).to_owned(),
                weight: 1,
            })
            .collect();
        cost.absorb(self.run_append(net, key, entries)?);

        // 3. per tag: t̄ᵢ reverse edge + t̂ᵢ pairwise FG arcs.
        for &t in &unique {
            let key = block_key(t, BlockType::TagResources);
            let entry = vec![StoredEntry {
                name: resource.to_owned(),
                weight: 1,
            }];
            cost.absorb(self.run_append(net, key, entry)?);

            let key = block_key(t, BlockType::TagNeighbors);
            let arcs: Vec<StoredEntry> = unique
                .iter()
                .filter(|&&other| other != t)
                .map(|&other| StoredEntry {
                    name: other.to_owned(),
                    weight: 1,
                })
                .collect();
            // A single-tag resource has no arcs: the update is empty, but
            // the paper still counts the lookup (the block is touched).
            cost.absorb(self.run_append(net, key, arcs)?);
        }
        Ok(cost)
    }

    /// **Tag insertion** (§IV-A/B): attaches `t` to existing resource `r`.
    ///
    /// Naive policy: `4 + |Tags(r)|` lookups. Approximated: `4 + k`.
    ///
    /// 1. `APPEND r̄ (t, +1)`;
    /// 2. `APPEND t̄ (r, +1)`;
    /// 3. `GET r̄` — retrieve `Tags(r)` with weights;
    /// 4. `APPEND t̂` — forward arcs `(t, τ)` for **all** `τ ∈ Tags(r)` in
    ///    one block update (empty when `t` was already on `r`: the exact
    ///    model leaves `sim(t, ·)` unchanged in that case);
    /// 5. per selected `τ` (all of them naive, ≤ k under Approximation A):
    ///    `APPEND τ̂ (t, +1)` — the reverse arcs, one lookup each.
    ///
    /// Steps 1–3 plus the `t̂` touch make the constant 4; step 5 contributes
    /// `|Tags(r)|` or `k`. When `t` was already present, step 4 is a no-op
    /// append so the lookup count stays at the paper's constant.
    pub fn tag(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        resource: &str,
        tag: &str,
    ) -> Result<TagReceipt> {
        let mut cost = OpCost::default();

        // 1. u(t, r) += 1 on r̄.
        let r_bar = block_key(resource, BlockType::ResourceTags);
        let e = vec![StoredEntry {
            name: tag.to_owned(),
            weight: 1,
        }];
        cost.absorb(self.run_append(net, r_bar, e)?);

        // 2. u(t, r) += 1 on t̄.
        let t_bar = block_key(tag, BlockType::TagResources);
        let e = vec![StoredEntry {
            name: resource.to_owned(),
            weight: 1,
        }];
        cost.absorb(self.run_append(net, t_bar, e)?);

        // 3. Fetch Tags(r) from r̄ (unfiltered: tagging needs the full set;
        //    resources carry few tags compared to popular tags' blocks).
        let (view, get_cost) = self.run_get(net, r_bar, 0)?;
        cost.absorb(get_cost);
        let view = view.ok_or_else(|| {
            DharmaError::NotFound(format!("resource '{resource}' has no r̄ block"))
        })?;

        // The weight of t after our own step-1 increment tells us whether
        // this tagging attached t to r for the first time.
        let t_weight = view
            .entries()
            .find(|&(n, _)| n == tag)
            .map_or(1, |(_, w)| w);
        let newly_attached = t_weight <= 1;

        // Neighborhood τ ∈ Tags(r) \ {t}.
        let mut neighbors: Vec<(String, u64)> = view
            .entries()
            .filter(|&(n, _)| n != tag)
            .map(|(n, w)| (n.to_owned(), w))
            .collect();
        let neighborhood = neighbors.len();

        // 4. Forward arcs (t, τ) on t̂ — only when newly attached. This is a
        //    single block update whatever its entry count, so Approximation A
        //    does not subset it (Table I's constant-4 term); Approximation B
        //    replaces the u(τ, r) bulk increment with one token.
        let t_hat = block_key(tag, BlockType::TagNeighbors);
        let forward: Vec<StoredEntry> = if newly_attached {
            neighbors
                .iter()
                .map(|(name, u_tau_r)| {
                    let delta = match self.cfg.policy.b_policy {
                        BPolicy::Exact | BPolicy::LiteralB => *u_tau_r,
                        BPolicy::UnitIncrement => 1,
                    };
                    StoredEntry {
                        name: name.clone(),
                        weight: delta,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        cost.absorb(self.run_append(net, t_hat, forward)?);

        // Approximation A: the per-neighbor τ̂ updates below are each a full
        // overlay lookup, so they are capped at k random neighbors.
        if let Some(k) = self.cfg.policy.connection_k {
            if neighbors.len() > k {
                neighbors.partial_shuffle(&mut self.rng, k);
                neighbors.truncate(k);
            }
        }

        // 5. Reverse arcs (τ, t) on each τ̂ — the linear/k term.
        let mut updated = 0usize;
        for (name, _) in &neighbors {
            let tau_hat = block_key(name, BlockType::TagNeighbors);
            let e = vec![StoredEntry {
                name: tag.to_owned(),
                weight: 1,
            }];
            cost.absorb(self.run_append(net, tau_hat, e)?);
            updated += 1;
        }

        Ok(TagReceipt {
            cost,
            neighborhood,
            updated,
            newly_attached,
        })
    }

    /// One **faceted-search step** (§IV-A): fetch `t̂` (filtered to the top
    /// `search_top_n` by `sim`) and `t̄`. Two lookups; intersections happen
    /// locally in [`crate::search::DhtFacetedSearch`].
    pub fn search_step(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        tag: &str,
    ) -> Result<(BlockView, BlockView, OpCost)> {
        let mut cost = OpCost::default();
        let t_hat = block_key(tag, BlockType::TagNeighbors);
        let (nbrs, c1) = self.run_get(net, t_hat, self.cfg.search_top_n)?;
        cost.absorb(c1);
        let t_bar = block_key(tag, BlockType::TagResources);
        let (res, c2) = self.run_get(net, t_bar, 0)?;
        cost.absorb(c2);
        Ok((nbrs.unwrap_or_default(), res.unwrap_or_default(), cost))
    }

    /// Resolves a resource name to its signed URI record (`GET r̃`).
    pub fn resolve_uri(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        resource: &str,
    ) -> Result<(Option<Vec<u8>>, OpCost)> {
        let key = block_key(resource, BlockType::ResourceUri);
        let (view, cost) = self.run_get(net, key, 0)?;
        Ok((view.and_then(|v| v.blob().map(<[u8]>::to_vec)), cost))
    }

    /// Gracefully departs the overlay: the home node pushes a parting
    /// snapshot of every held key to its `k` closest peers and sends
    /// `Leave` notices so receivers purge it immediately, then it is
    /// removed from the network. The simulation is run briefly so the
    /// farewell datagrams land. Every subsequent operation on this client
    /// fails fast with [`DharmaError::NodeUnavailable`].
    pub fn leave(&mut self, net: &mut SimNet<KademliaNode>) -> Result<()> {
        if net.is_removed(self.home) {
            return Err(DharmaError::NodeUnavailable(format!(
                "home node {} already departed the overlay",
                self.home
            )));
        }
        // A crashed (suspended) node cannot execute a farewell — letting it
        // broadcast parting datagrams while every other op fails fast would
        // be inconsistent. Revive it first, or let it stay a crash.
        if !net.is_alive(self.home) {
            return Err(DharmaError::NodeUnavailable(format!(
                "home node {} is down (crashed or suspended)",
                self.home
            )));
        }
        net.leave(self.home, |n, ctx| n.leave(ctx));
        net.run_until(net.now_us() + 1_000_000);
        Ok(())
    }

    // ----- blocking operation drivers ---------------------------------

    /// Issues one operation on the home node and runs the net until it
    /// completes, reissuing on timeout (up to `op_retries`) when
    /// `retryable`. **Only idempotent operations may be retried**: a GET
    /// or a blob PUT can be repeated safely, but an `APPEND` that was
    /// applied at some replicas before the coordinator died would
    /// double-count its tokens if reissued — append callers pass
    /// `retryable = false` and surface the timeout instead. Each attempt
    /// counts as one overlay lookup on the receipt; cache hits are only
    /// meaningful (and only tallied) for reads.
    fn run_op(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        retryable: bool,
        count_cache_hits: bool,
        mut issue: impl FnMut(&mut KademliaNode, &mut dharma_net::Ctx<KadOutput>) -> u64,
    ) -> Result<(KadOutput, OpCost)> {
        let mut cost = OpCost::default();
        let mut attempt = 0u32;
        loop {
            if net.is_removed(self.home) {
                return Err(DharmaError::NodeUnavailable(format!(
                    "home node {} departed the overlay",
                    self.home
                )));
            }
            // A crashed (suspended) home is just as unusable as a departed
            // one: its timers are frozen, so every issued op would sit in
            // the queue forever and the client would burn all its retries
            // on timeouts before surfacing a generic error. Fail fast with
            // the distinct error instead; the caller can revive or rebind.
            if !net.is_alive(self.home) {
                return Err(DharmaError::NodeUnavailable(format!(
                    "home node {} is down (crashed or suspended)",
                    self.home
                )));
            }
            let before = net.counters().sent();
            let hits_before = net.counters().cache_hits();
            let op = net.with_node(self.home, &mut issue);
            let out = self.wait_for(net, op);
            cost.lookups += 1;
            cost.messages += net.counters().sent() - before;
            if count_cache_hits {
                cost.cache_hits += net.counters().cache_hits() - hits_before;
            }
            match out {
                Ok(out) => return Ok((out, cost)),
                Err(DharmaError::Timeout(_)) if retryable && attempt < self.cfg.op_retries => {
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Issues a write op on the home node, runs the net to completion and
    /// returns the write's origin stamp (minted by the coordinator) — what
    /// the caller folds into the session floor for the written key, the
    /// read-your-writes obligation. `retryable` must only be true for
    /// idempotent writes (blob PUTs, replication pushes) — see
    /// [`DharmaClient::run_op`].
    fn run_write(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        retryable: bool,
        issue: impl FnMut(&mut KademliaNode, &mut dharma_net::Ctx<KadOutput>) -> u64,
    ) -> Result<(OpCost, VersionStamp)> {
        let (out, cost) = self.run_op(net, retryable, false, issue)?;
        match out {
            KadOutput::Written { stamp, .. } => Ok((cost, stamp)),
            other => Err(DharmaError::Protocol(format!(
                "expected write completion, got {other:?}"
            ))),
        }
    }

    /// `APPEND entries` to the block at `key` (never retried: appends are
    /// not idempotent). An empty update only touches the block: holders
    /// apply nothing and keep its version, so the stamp minted for it is
    /// **not** folded into the session floor — no holder could ever serve
    /// that version, and the session's next `MonotonicReads` read of the
    /// block would fail with `StaleRead` although nothing is stale.
    fn run_append(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        key: Id160,
        entries: Vec<StoredEntry>,
    ) -> Result<OpCost> {
        let (cost, stamp) = self.run_write(net, false, |n, ctx| {
            n.append_many(ctx, key, entries.clone())
        })?;
        if !entries.is_empty() {
            self.session.observe(key, stamp);
        }
        Ok(cost)
    }

    /// Issues a filtered GET (idempotent, hence always retryable) and runs
    /// the net to completion.
    fn run_get(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        key: Id160,
        top_n: u32,
    ) -> Result<(Option<BlockView>, OpCost)> {
        let (served, cost) = self.run_get_stamped(net, key, top_n, false)?;
        Ok((served.map(|(view, _)| view), cost))
    }

    /// The stamped GET underneath every client read: a view GET
    /// ([`KademliaNode::get_view`]), so the block arrives as its wire body
    /// and no entry is built on the home node. `fresh` requests the
    /// cache-bypassing, authoritative-only lookup (the session-consistency
    /// escalation). Every served version raises the session floor: a
    /// later monotonic read may not go back behind it.
    fn run_get_stamped(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        key: Id160,
        top_n: u32,
        fresh: bool,
    ) -> Result<(Option<(BlockView, VersionStamp)>, OpCost)> {
        let (out, cost) =
            self.run_op(net, true, true, |n, ctx| n.get_view(ctx, key, top_n, fresh))?;
        match out {
            KadOutput::View { view, .. } => {
                let served = view.map(|v| {
                    let stamp = v.version;
                    (BlockView(v), stamp)
                });
                if let Some((_, stamp)) = &served {
                    self.session.observe(key, *stamp);
                }
                Ok((served, cost))
            }
            other => Err(DharmaError::Protocol(format!(
                "expected value completion, got {other:?}"
            ))),
        }
    }

    /// Runs the simulation until operation `op` completes.
    fn wait_for(&mut self, net: &mut SimNet<KademliaNode>, op: u64) -> Result<KadOutput> {
        if let Some(out) = self.stash.remove(&op) {
            return Ok(out);
        }
        let mut budget = self.cfg.max_events_per_op;
        loop {
            for (id, out) in net.take_completions() {
                self.stash.insert(id, out);
            }
            if let Some(out) = self.stash.remove(&op) {
                return Ok(out);
            }
            let stepped = net.run_until_idle(1024);
            if stepped == 0 {
                // Queue drained without completing: one more completion scan.
                for (id, out) in net.take_completions() {
                    self.stash.insert(id, out);
                }
                return self.stash.remove(&op).ok_or_else(|| {
                    DharmaError::Timeout(format!("operation {op} never completed"))
                });
            }
            budget = budget.saturating_sub(stepped);
            if budget == 0 {
                return Err(DharmaError::Timeout(format!(
                    "operation {op} exceeded the event budget"
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests;
