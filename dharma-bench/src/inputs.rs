//! Seeded input generation. Everything a workload feeds the program comes
//! from here and is a pure function of `--seed`: the Last.fm-shaped
//! dataset, the blocks bulk-loaded in set-up, and the stream of logical
//! operations (as client calls for driver (a), as scripts for driver (b)).

use dharma_dataset::{Dataset, Fenwick, GeneratorConfig, Zipf};
use dharma_folksonomy::{
    ApproxPolicy, BPolicy, FacetedSearch, Fg, Folksonomy, ResId, SearchConfig, Strategy, TagId, Trg,
};
use dharma_kademlia::StoredEntry;
use dharma_likir::{AuthenticatedRecord, CertificationAuthority, Identity};
use dharma_net::NodeAddr;
use dharma_types::{block_key, BlockType, Id160, WireEncode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::overlay::LoadBlock;
use crate::script::{BlockOp, Script, ScriptKind, Verdict};

/// Index-side filter width of a search step's `GET t̂` (paper: 100).
pub const SEARCH_TOP_N: u32 = 100;

/// Likir namespace the benchmark signs URI records under.
pub const NAMESPACE: &str = "dharma";

/// The name a tag goes by on the overlay. Zero-padded
/// [`TagId::tie_key`], so that name order equals the tie-break order the
/// in-memory model uses for equal weights — the storing node's top-100 cut
/// then keeps exactly the neighbours the model's does.
pub fn tag_name(t: TagId) -> String {
    format!("t{:010}", t.tie_key())
}

/// The name a resource goes by on the overlay.
pub fn res_name(r: ResId) -> String {
    format!("r{:07}", r.0)
}

/// Generates the Last.fm-shaped dataset of `resources` resources. The
/// values are those of `GeneratorConfig::lastfm_like(Scale::Tiny, _)` at
/// the commit that defined the benchmark, with the resource count (and
/// the topic count derived from it) set by the workload, and `|Tags(r)|`
/// capped at 40 instead of 150: at a few thousand resources one
/// 150-tag resource adds 22,000 folksonomy arcs on its own, which made
/// the size of the graph — and every cost that follows from it — swing
/// by a factor of two from seed to seed.
pub fn generate_dataset(resources: usize, seed: u64) -> Dataset {
    GeneratorConfig {
        resources,
        new_tag_rate: 0.04,
        topics: (resources / 400).clamp(12, 512),
        topic_mix: 0.6,
        topic_assignment_exponent: 0.75,
        singleton_resource_frac: 0.40,
        degree_max: 40,
        degree_mean: 5.0,
        multiplicity_extra_mean: 0.35,
        users: 500,
        user_exponent: 0.95,
        seed,
    }
    .generate()
}

/// Tags of `r` in the reference graph, ascending by id (the hash-map
/// iteration order of the graph is not part of the input contract).
fn sorted_tags(trg: &Trg, r: ResId) -> Vec<(TagId, u32)> {
    let mut v: Vec<(TagId, u32)> = trg.tags_of(r).collect();
    v.sort_unstable_by_key(|&(t, _)| t);
    v
}

fn entry(name: String, weight: u64) -> StoredEntry {
    StoredEntry { name, weight }
}

/// The `r̄` blocks of a graph: one per resource with tags.
pub fn resource_tag_blocks(trg: &Trg) -> Vec<LoadBlock> {
    (0..trg.num_resources() as u32)
        .map(ResId)
        .filter(|&r| trg.tag_degree(r) > 0)
        .map(|r| LoadBlock {
            key: block_key(&res_name(r), BlockType::ResourceTags),
            entries: sorted_tags(trg, r)
                .into_iter()
                .map(|(t, u)| entry(tag_name(t), u64::from(u)))
                .collect(),
        })
        .collect()
}

/// The `t̄` blocks of a graph: one per tag with resources.
pub fn tag_resource_blocks(trg: &Trg) -> Vec<LoadBlock> {
    (0..trg.num_tags() as u32)
        .map(TagId)
        .filter(|&t| trg.res_degree(t) > 0)
        .map(|t| {
            let mut res: Vec<(ResId, u32)> = trg.res_of(t).collect();
            res.sort_unstable_by_key(|&(r, _)| r);
            LoadBlock {
                key: block_key(&tag_name(t), BlockType::TagResources),
                entries: res
                    .into_iter()
                    .map(|(r, u)| entry(res_name(r), u64::from(u)))
                    .collect(),
            }
        })
        .collect()
}

/// The `t̂` blocks of a folksonomy graph: one per tag with neighbours.
pub fn tag_neighbor_blocks(fg: &Fg) -> Vec<LoadBlock> {
    (0..fg.num_tags() as u32)
        .map(TagId)
        .filter(|&t| fg.out_degree(t) > 0)
        .map(|t| {
            let mut nbrs: Vec<(TagId, u64)> = fg.neighbors(t).collect();
            nbrs.sort_unstable_by_key(|&(t2, _)| t2);
            LoadBlock {
                key: block_key(&tag_name(t), BlockType::TagNeighbors),
                entries: nbrs
                    .into_iter()
                    .map(|(t2, w)| entry(tag_name(t2), w))
                    .collect(),
            }
        })
        .collect()
}

/// The identity the benchmark's clients sign with.
pub fn bench_identity(slot: usize) -> Identity {
    CertificationAuthority::new(b"dharma-bench").register(&format!("bench-client-{slot}"), 0)
}

/// One logical operation of the tagging workload, as a client call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogicalOp {
    /// `insert_resource(res, uri, tags)` — Table I: `2 + 2m`.
    Insert {
        /// Resource name.
        res: String,
        /// Its URI.
        uri: String,
        /// Its `m` initial tags.
        tags: Vec<String>,
    },
    /// `tag(res, tag)` — Table I: `4 + k`.
    Tag {
        /// Resource name.
        res: String,
        /// Tag name.
        tag: String,
    },
    /// `get(r̄)` at `ReadYourWrites`.
    ReadResource {
        /// Resource name.
        res: String,
    },
    /// `get(t̂, top 100)` at `MonotonicReads`.
    ReadNeighbors {
        /// Tag name.
        tag: String,
    },
}

/// One operation of the tagging stream: which client slot runs it, the
/// client call, and (on request) the same operation as a script.
#[derive(Clone, Debug)]
pub struct TagOp {
    /// Client slot (round-robin over the clients).
    pub slot: usize,
    /// The client call.
    pub logical: LogicalOp,
    /// The same operation as block ops; `None` unless asked for.
    pub script: Option<Script>,
}

/// Writing clients (and home nodes) of the closed-loop client driver.
pub const CLIENTS: usize = 8;

/// Client sessions of the tagging stream: the writers, and one read-only
/// session that does the `t̂` reads at `MonotonicReads`.
///
/// Why a session of its own: `DharmaClient::tag` appends an *empty* entry
/// list to `t̂` when the tag was already attached, and raises its session
/// floor to the stamp minted for that append — but holders do not advance
/// a block's version on an empty append, so the floor ends up above
/// anything the overlay can serve and the writer's next session-level
/// read of that `t̂` fails with `StaleRead`. Found by this benchmark;
/// until a later change fixes it, session-level `t̂` reads come from a
/// session that has not written.
pub const SESSIONS: usize = CLIENTS + 1;

/// Operations per cycle of the tagging stream: one insert, ten tags, two
/// reads.
pub const TAG_CYCLE: u64 = 13;

/// The tagging stream (§V-B): resources enter one per cycle with up to
/// four of their reference tags; tagging events pick an inserted resource
/// in proportion to its reference popularity `|Tags(r)|` and one of its
/// reference tags in proportion to `u(t, r)`; after every tenth tag the
/// stream reads the resource's `r̄` and the tag's `t̂`.
///
/// The stream keeps the in-memory model of what it has emitted, which is
/// what the run's blocks are checked against afterwards.
pub struct TagStream {
    reference: Dataset,
    rng: StdRng,
    model: Folksonomy,
    popularity: Fenwick,
    next_resource: u32,
    emitted: u64,
    last_tagged: Option<(ResId, TagId)>,
    /// Tags whose `t̂` block is certainly non-empty: they entered a
    /// resource that already carried another tag (forward arcs are written
    /// in full under every policy).
    has_neighbors: dharma_types::FxHashSet<TagId>,
    /// The last tagged tag with a non-empty `t̂`, for the neighbour read.
    last_neighbored: Option<TagId>,
    homes: Vec<NodeAddr>,
    identities: Vec<Identity>,
    with_scripts: bool,
}

impl TagStream {
    /// A stream over a fresh `resources`-resource dataset. `homes` are the
    /// sessions' home nodes: the writers', then the read-only session's.
    /// `policy` is the approximation the scripts (and the model) tag
    /// under; the clients must be configured with the same one.
    pub fn new(
        resources: usize,
        seed: u64,
        homes: Vec<NodeAddr>,
        policy: ApproxPolicy,
        with_scripts: bool,
    ) -> Self {
        let reference = generate_dataset(resources, seed);
        let n = reference.trg.num_resources();
        TagStream {
            rng: StdRng::seed_from_u64(seed ^ 0x7A6_57EA),
            model: Folksonomy::with_capacity(policy, reference.trg.num_tags(), n),
            popularity: Fenwick::new(n),
            reference,
            next_resource: 0,
            emitted: 0,
            last_tagged: None,
            has_neighbors: Default::default(),
            last_neighbored: None,
            identities: (0..homes.len()).map(bench_identity).collect(),
            homes,
            with_scripts,
        }
    }

    /// The model of everything emitted so far.
    pub fn model(&self) -> &Folksonomy {
        &self.model
    }

    /// The reference dataset the stream draws from.
    pub fn reference(&self) -> &Dataset {
        &self.reference
    }

    /// The next operation.
    pub fn next_op(&mut self) -> TagOp {
        let phase = self.emitted % TAG_CYCLE;
        let writers = self.homes.len() - 1;
        let slot = (self.emitted % writers as u64) as usize;
        self.emitted += 1;
        let exhausted = self.next_resource as usize >= self.reference.trg.num_resources();
        match (phase, self.last_tagged, self.last_neighbored) {
            (0, _, _) if !exhausted => self.insert(slot),
            (11, Some((r, _)), _) => self.read(slot, Some(r), None),
            (12, _, Some(t)) => self.read(writers, None, Some(t)),
            _ => self.tag(slot),
        }
    }

    fn insert(&mut self, slot: usize) -> TagOp {
        let r = ResId(self.next_resource);
        self.next_resource += 1;
        let reference = sorted_tags(&self.reference.trg, r);
        let m = reference.len().min(1 + (r.0 as usize % 4));
        let tags: Vec<TagId> = reference.iter().take(m).map(|&(t, _)| t).collect();
        self.model.insert_resource(r, &tags);
        self.popularity.add(r.idx(), reference.len() as u64);
        if tags.len() > 1 {
            self.has_neighbors.extend(tags.iter().copied());
        }

        let res = res_name(r);
        let uri = format!("uri://{res}");
        let mut names: Vec<String> = tags.iter().map(|&t| tag_name(t)).collect();
        names.sort_unstable();
        let script = self.with_scripts.then(|| {
            let record = AuthenticatedRecord::sign(
                &self.identities[slot],
                NAMESPACE,
                uri.as_bytes().to_vec(),
            );
            let mut stages = vec![
                vec![BlockOp::PutBlob {
                    key: block_key(&res, BlockType::ResourceUri),
                    blob: record.encode_to_bytes().to_vec(),
                }],
                vec![BlockOp::Append {
                    key: block_key(&res, BlockType::ResourceTags),
                    entries: names.iter().map(|n| entry(n.clone(), 1)).collect(),
                }],
            ];
            for t in &names {
                stages.push(vec![BlockOp::Append {
                    key: block_key(t, BlockType::TagResources),
                    entries: vec![entry(res.clone(), 1)],
                }]);
                stages.push(vec![BlockOp::Append {
                    key: block_key(t, BlockType::TagNeighbors),
                    entries: names
                        .iter()
                        .filter(|o| *o != t)
                        .map(|o| entry(o.clone(), 1))
                        .collect(),
                }]);
            }
            Script {
                home: self.homes[slot],
                kind: ScriptKind::Insert,
                stages,
            }
        });
        TagOp {
            slot,
            logical: LogicalOp::Insert {
                res,
                uri,
                tags: names,
            },
            script,
        }
    }

    fn tag(&mut self, slot: usize) -> TagOp {
        let r = ResId(self.popularity.sample(&mut self.rng) as u32);
        let reference = sorted_tags(&self.reference.trg, r);
        let total: u64 = reference.iter().map(|&(_, u)| u64::from(u)).sum();
        let mut pick = self.rng.gen_range(0..total);
        let mut t = reference[0].0;
        for &(cand, u) in &reference {
            if pick < u64::from(u) {
                t = cand;
                break;
            }
            pick -= u64::from(u);
        }
        // Tags(r) \ {t} before the event, in the order the storing node
        // returns them (weight descending, then name).
        let mut before: Vec<(String, u32)> = self
            .model
            .trg()
            .tags_of(r)
            .filter(|&(tau, _)| tau != t)
            .map(|(tau, u)| (tag_name(tau), u))
            .collect();
        before.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let outcome = self.model.tag(r, t, &mut self.rng);
        self.last_tagged = Some((r, t));
        if outcome.previous_weight == 0 && outcome.neighborhood_size > 0 {
            self.has_neighbors.insert(t);
        }
        if self.has_neighbors.contains(&t) {
            self.last_neighbored = Some(t);
        }

        let (res, tag) = (res_name(r), tag_name(t));
        let script = self.with_scripts.then(|| {
            // Approximation B appends one token per forward arc; the exact
            // policies append u(τ, r), as the client does.
            let unit = self.model.policy().b_policy == BPolicy::UnitIncrement;
            let forward: Vec<StoredEntry> = if outcome.previous_weight == 0 {
                before
                    .iter()
                    .map(|(n, u)| entry(n.clone(), if unit { 1 } else { u64::from(*u) }))
                    .collect()
            } else {
                Vec::new()
            };
            let r_bar = block_key(&res, BlockType::ResourceTags);
            let mut stages = vec![
                vec![BlockOp::Append {
                    key: r_bar,
                    entries: vec![entry(tag.clone(), 1)],
                }],
                vec![BlockOp::Append {
                    key: block_key(&tag, BlockType::TagResources),
                    entries: vec![entry(res.clone(), 1)],
                }],
                vec![BlockOp::Get {
                    key: r_bar,
                    top_n: 0,
                }],
                vec![BlockOp::Append {
                    key: block_key(&tag, BlockType::TagNeighbors),
                    entries: forward,
                }],
            ];
            for tau in &outcome.updated_neighbors {
                stages.push(vec![BlockOp::Append {
                    key: block_key(&tag_name(*tau), BlockType::TagNeighbors),
                    entries: vec![entry(tag.clone(), 1)],
                }]);
            }
            Script {
                home: self.homes[slot],
                kind: ScriptKind::Tag,
                stages,
            }
        });
        TagOp {
            slot,
            logical: LogicalOp::Tag { res, tag },
            script,
        }
    }

    fn read(&mut self, slot: usize, r: Option<ResId>, t: Option<TagId>) -> TagOp {
        let (logical, key, top_n) = match (r, t) {
            (Some(r), _) => {
                let res = res_name(r);
                let key = block_key(&res, BlockType::ResourceTags);
                (LogicalOp::ReadResource { res }, key, 0)
            }
            (None, Some(t)) => {
                let tag = tag_name(t);
                let key = block_key(&tag, BlockType::TagNeighbors);
                (LogicalOp::ReadNeighbors { tag }, key, SEARCH_TOP_N)
            }
            (None, None) => unreachable!("a read names a resource or a tag"),
        };
        TagOp {
            slot,
            logical,
            script: self.with_scripts.then(|| Script {
                home: self.homes[slot],
                kind: ScriptKind::Read,
                stages: vec![vec![BlockOp::Get { key, top_n }]],
            }),
        }
    }
}

/// A faceted-search session worked out on the in-memory graphs: the tags
/// selected, in order, and the result it must end with.
#[derive(Clone, Debug)]
pub struct SessionPlan {
    /// Selected tags, seed first. One search step each.
    pub path: Vec<TagId>,
    /// Names of the resources left after the last step, ascending.
    pub resources: Vec<String>,
    /// Tags still displayed after the last step.
    pub displayed: usize,
}

/// Steps a search session may take (seed included).
pub const SESSION_MAX_STEPS: usize = 6;

/// The in-memory search the DHT sessions are checked against: top-100
/// neighbour sets, stop at ≤ 10 resources, ≤ 1 displayed tag or
/// [`SESSION_MAX_STEPS`] selections.
pub fn session_config() -> SearchConfig {
    SearchConfig {
        display_cap: Some(SEARCH_TOP_N as usize),
        resource_stop: 10,
        tag_stop: 1,
        max_steps: SESSION_MAX_STEPS,
    }
}

/// Inputs of the read-only workloads: a dataset, its exact folksonomy
/// graph, the popular tags searches start from, and a Zipf(1.0) sampler
/// over them.
pub struct SearchInputs {
    /// The dataset.
    pub dataset: Dataset,
    /// Its exact folksonomy graph.
    pub fg: Fg,
    /// Seed tags, most popular first.
    pub popular: Vec<TagId>,
    /// The session each seed tag leads to (same order as `popular`).
    pub plans: Vec<SessionPlan>,
    zipf: Zipf,
    rng: StdRng,
}

/// Seed of the corpus the bulk-loaded workloads search: a fixed dataset,
/// as a benchmark's data file would be. `--seed` decides everything drawn
/// *from* it — which tags are searched and re-tagged, on which resources,
/// from which nodes — and the overlay's ids. A corpus per seed was tried
/// first: its heavy tail (the size of a few hub blocks) moved cost per
/// operation by 15–18 % from corpus to corpus, which would have forced
/// bounds too wide to gate anything.
pub const CORPUS_SEED: u64 = 2010;

impl SearchInputs {
    /// Generates the corpus (from [`CORPUS_SEED`]), works out every seed
    /// tag's session, and seeds the session sampler with `seed`.
    pub fn new(resources: usize, popular_tags: usize, seed: u64) -> Self {
        let dataset = generate_dataset(resources, CORPUS_SEED);
        let fg = Fg::derive_exact(&dataset.trg);
        // Seeds are popular tags that have a `t̂` block to fetch: a tag
        // that only ever annotates single-tag resources has no neighbours,
        // and a search cannot start from it.
        let popular: Vec<TagId> = dataset
            .most_popular_tags(dataset.trg.num_tags())
            .into_iter()
            .filter(|&t| fg.out_degree(t) > 0)
            .take(popular_tags)
            .collect();
        let plans = {
            let search = FacetedSearch::new(&dataset.trg, &fg);
            let cfg = session_config();
            let mut unused = StdRng::seed_from_u64(0);
            popular
                .iter()
                .map(|&t0| {
                    let outcome = search.run(t0, Strategy::First, &cfg, &mut unused);
                    let mut left: Vec<ResId> = dataset.trg.res_of(t0).map(|(r, _)| r).collect();
                    for &t in &outcome.path[1..] {
                        left.retain(|&r| dataset.trg.weight(t, r) > 0);
                    }
                    left.sort_unstable();
                    debug_assert_eq!(left.len(), outcome.final_resources);
                    SessionPlan {
                        path: outcome.path,
                        resources: left.into_iter().map(res_name).collect(),
                        displayed: outcome.final_tags,
                    }
                })
                .collect()
        };
        SearchInputs {
            zipf: Zipf::new(popular.len(), 1.0),
            rng: StdRng::seed_from_u64(seed ^ 0x5EA_4C4),
            dataset,
            fg,
            popular,
            plans,
        }
    }

    /// The `t̄` and `t̂` blocks a search touches.
    pub fn search_blocks(&self) -> Vec<LoadBlock> {
        let mut blocks = tag_resource_blocks(&self.dataset.trg);
        blocks.extend(tag_neighbor_blocks(&self.fg));
        blocks
    }

    /// Restarts the session sampler from `seed` (loopback workers share a
    /// dataset but must not draw the same tags).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed ^ 0x5EA_4C4);
    }

    /// Draws the next session: the rank of its seed tag in `popular`.
    pub fn next_session(&mut self) -> usize {
        self.zipf.sample(&mut self.rng)
    }
}

/// One search step as a script: `GET t̂` (top 100) and `GET t̄`, one after
/// the other as the client issues them, or together.
pub fn search_step_script(home: NodeAddr, tag: &str, concurrent: bool) -> Script {
    let t_hat = BlockOp::Get {
        key: block_key(tag, BlockType::TagNeighbors),
        top_n: SEARCH_TOP_N,
    };
    let t_bar = BlockOp::Get {
        key: block_key(tag, BlockType::TagResources),
        top_n: 0,
    };
    Script {
        home,
        kind: ScriptKind::SearchStep,
        stages: if concurrent {
            vec![vec![t_hat, t_bar]]
        } else {
            vec![vec![t_hat], vec![t_bar]]
        },
    }
}

/// The mixed read/write stream of the `mixed_full` and `udp_search`
/// workloads: search steps on Zipf(1.0) tags, and re-tag scripts that add
/// one more annotation to an existing `(tag, resource)` edge — `APPEND r̄`,
/// `APPEND t̄`, `GET r̄`, `APPEND t̂` (empty: the tag was already attached)
/// and `APPEND` on one co-tag's `τ̂`.
pub struct MixStream {
    inputs: SearchInputs,
    rng: StdRng,
    retag_share: f64,
    homes: Vec<NodeAddr>,
}

impl MixStream {
    /// A stream over `inputs` whose scripts are homed uniformly on `homes`.
    pub fn new(inputs: SearchInputs, seed: u64, retag_share: f64, homes: Vec<NodeAddr>) -> Self {
        assert!(!homes.is_empty(), "a stream needs a home node");
        MixStream {
            inputs,
            rng: StdRng::seed_from_u64(seed ^ 0x313_D5EED),
            retag_share,
            homes,
        }
    }

    /// The dataset and graphs behind the stream.
    pub fn inputs(&self) -> &SearchInputs {
        &self.inputs
    }

    /// Every block the stream can touch: `r̄`, `t̄` and `t̂`.
    pub fn blocks(&self) -> Vec<LoadBlock> {
        let mut blocks = resource_tag_blocks(&self.inputs.dataset.trg);
        blocks.extend(self.inputs.search_blocks());
        blocks
    }

    /// The next script.
    pub fn next_script(&mut self) -> Script {
        let home = self.homes[self.rng.gen_range(0..self.homes.len())];
        let rank = self.inputs.next_session();
        let t = self.inputs.popular[rank];
        let tag = tag_name(t);
        if self.rng.gen::<f64>() >= self.retag_share {
            return search_step_script(home, &tag, true);
        }
        let trg = &self.inputs.dataset.trg;
        let mut res: Vec<ResId> = trg.res_of(t).map(|(r, _)| r).collect();
        res.sort_unstable();
        let r = res[self.rng.gen_range(0..res.len())];
        let res = res_name(r);
        let co_tags: Vec<TagId> = sorted_tags(trg, r)
            .into_iter()
            .map(|(tau, _)| tau)
            .filter(|&tau| tau != t)
            .collect();
        let r_bar = block_key(&res, BlockType::ResourceTags);
        let mut stages = vec![
            vec![BlockOp::Append {
                key: r_bar,
                entries: vec![entry(tag.clone(), 1)],
            }],
            vec![BlockOp::Append {
                key: block_key(&tag, BlockType::TagResources),
                entries: vec![entry(res, 1)],
            }],
            vec![BlockOp::Get {
                key: r_bar,
                top_n: 0,
            }],
            vec![BlockOp::Append {
                key: block_key(&tag, BlockType::TagNeighbors),
                entries: Vec::new(),
            }],
        ];
        if !co_tags.is_empty() {
            let tau = co_tags[self.rng.gen_range(0..co_tags.len())];
            stages.push(vec![BlockOp::Append {
                key: block_key(&tag_name(tau), BlockType::TagNeighbors),
                entries: vec![entry(tag, 1)],
            }]);
        }
        Script {
            home,
            kind: ScriptKind::Tag,
            stages,
        }
    }
}

/// What a run loaded, per block and entry: the record GET results are
/// checked against in the scripted workloads.
///
/// Weights are checked from below only. An upper bound (loaded plus
/// appended) does not hold at this commit: with maintenance on, a
/// `Replicate` snapshot that already contains an append can reach a node
/// before the `Append` itself does, and the node then counts those tokens
/// twice (found by this benchmark; merge-max snapshots and additive
/// appends do not commute).
#[derive(Clone, Default)]
pub struct BlockBook {
    blocks: dharma_types::FxHashMap<Id160, dharma_types::FxHashMap<String, u64>>,
}

impl BlockBook {
    /// A book of the loaded `blocks`.
    pub fn new(blocks: &[LoadBlock]) -> Self {
        let mut book = BlockBook::default();
        for b in blocks {
            let slot = book.blocks.entry(b.key).or_default();
            for e in &b.entries {
                slot.insert(e.name.clone(), e.weight);
            }
        }
        book
    }
}

impl crate::script::Verifier for BlockBook {
    fn on_append(&mut self, key: &Id160, entries: &[StoredEntry]) {
        let slot = self.blocks.entry(*key).or_default();
        for e in entries {
            slot.entry(e.name.clone()).or_insert(0);
        }
    }

    /// A served view is right when it is a weight-ordered prefix of the
    /// block: sorted by weight descending then name, every entry one the
    /// block has, never wider than asked. It is *behind* when a weight is
    /// under what was loaded, or when it is neither filtered nor cut yet
    /// misses loaded entries — a replica or a cache that has not seen
    /// everything.
    fn check_get(
        &mut self,
        key: &Id160,
        top_n: u32,
        v: &dharma_kademlia::messages::FetchedValue,
    ) -> Verdict {
        let Some(block) = self.blocks.get(key) else {
            return Verdict::Wrong;
        };
        let ordered = v.entries.windows(2).all(|w| {
            w[0].weight > w[1].weight || (w[0].weight == w[1].weight && w[0].name < w[1].name)
        });
        let known = v.entries.iter().all(|e| block.contains_key(&e.name));
        let width_ok = top_n == 0 || v.entries.len() <= top_n as usize;
        if !(ordered && known && width_ok) {
            return Verdict::Wrong;
        }
        let loaded = block.values().filter(|&&l| l > 0).count();
        let complete = top_n != 0 || v.truncated || v.entries.len() >= loaded;
        let current = v
            .entries
            .iter()
            .all(|e| block.get(&e.name).is_some_and(|&l| e.weight >= l));
        if complete && current {
            Verdict::Good
        } else {
            Verdict::Behind
        }
    }
}
