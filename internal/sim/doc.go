// Package sim implements the paper's computational model (Section 2):
// a population of anonymous agents placed on a graph, proceeding in
// discrete synchronous rounds. In each round every agent takes a step
// according to its movement policy, and can then sense the number of
// other agents at its position via count(position), the model's only
// communication primitive.
//
// # Determinism invariant
//
// The engine is deterministic: every agent draws from a private
// rng.Stream split from the world seed (stored contiguously, one
// value per agent), so the same Config produces the same byte-for-byte
// results regardless of scheduling. The invariant is load-bearing and
// guarded by property tests: for a fixed seed, positions and all count
// queries are identical for every shard count and stepping worker
// count, whether agents step through the batched path or the scalar
// per-agent path, and whether the occupancy index is dense or sparse.
//
// # Hot-state layout and batched randomness
//
// The per-round hot state is a strict structure of arrays (soa.go):
// positions, previous positions, and per-agent RNG streams are
// parallel flat slices indexed by agent id (World embeds hotState),
// so stepping kernels stream through contiguous memory with no
// per-agent pointer chasing. The random walk's batched kernels make
// one pass over that layout. On the torus, ring, hypercube and
// complete graph (RandomStepsInto) they advance each agent's stream,
// make its bounded draw inline (Lemire's method, as rng.Uint64nEach
// makes it), store the draw in a scratch buffer reused for the
// world's lifetime, and take the step with arithmetic only — no
// interface dispatch, no data-dependent branches on the torus — while
// the stream and the position are in registers. Every CSR world,
// regular or not, steps through (*topology.Adj).RandomSteps, which
// bounds each draw by the agent's own node's degree and needs no
// scratch. The Lazy and Biased kernels split a round into two passes:
// rng.FloatEach bulk-fills one float per agent stream, then a move
// pass applies them. Every kernel obeys a
// strict bit-identity contract: it advances each agent's stream
// exactly as the equivalent scalar draws would, including
// bounded-rejection behavior, so per-agent draw sequences — and
// therefore all positions and counts — are independent of which path
// executed. Scratch buffers are allocated once by ensureScratch
// (policy- and graph-gated), keeping the batched path at zero
// allocations per round.
//
// # Step paths
//
// A round moves every agent by one of exactly two paths. A world whose
// agents share one policy (no SetPolicy override) makes one batched
// dispatch (stepBatched) when the policy/topology pair has a kernel:
// the random walk, and Lazy with StayProb <= 0 (a plain random walk),
// on the torus, ring, hypercube, complete graph, and CSR graphs; Lazy
// with 0 < StayProb < 1 on those same graphs; and Biased on the
// arithmetic topologies. On every CSR graph, regular or not, the
// random walk needs no scratch: (*topology.Adj).RandomSteps bounds
// each agent's draw by its own node's degree, and makes the draw
// inline too, so its pass makes no call unless a draw's low product
// half falls below the degree (probability below degree/2^64). Every
// other world — per-agent overrides, Drift, Stationary, Lazy with
// StayProb >= 1, generic graphs — runs the scalar loop of Policy.Step
// calls, which is also the reference every batched kernel is tested
// against.
//
// # Parallelism is per shard
//
// The shard is the only parallel grain. Step on a sharded world
// spreads whole shards over min(shards, GOMAXPROCS) workers from a
// persistent pool (created lazily on first use, reused every round, so
// steady-state parallel stepping starts no goroutines and allocates
// nothing); an unsharded world always steps serially. With the index
// active, Step and Count run at zero allocations per round.
//
// # World shape
//
// A world's shape is a function of its inputs, decided once in
// NewWorld: the occupancy representation from the node and agent
// counts, the shard count from the agent count and GOMAXPROCS, and
// the step workers from the shard count and GOMAXPROCS. None of them
// changes a result, so nothing above Config can set them.
// Config.Shards and Config.Occupancy are explicit overrides for tests,
// benchmarks, and worlds injected into a Spec.
//
// # Spatial sharding (Config.Shards)
//
// Spatial domain decomposition (sharded.go, internal/shard):
// Config.Shards > 1 partitions the graph's node-id space into K
// contiguous slabs (shard.Partition, row bands on a torus) and each
// shard exclusively owns the agents currently positioned inside its
// slab — their positions, previous positions, and rng streams live in
// per-shard SoA slabs, and each shard keeps its own occupancy index
// over only its slab's node range. A sharded round runs in two
// phases: every shard steps its own agents through the same two step
// paths as the flat world, depositing agents that crossed a slab
// boundary into per-(src,dst) mailboxes; then each destination shard
// drains its mailboxes in fixed (source shard, insertion index) order.
// That fixed merge order, plus each agent carrying its private rng
// stream with it, makes sharded results bit-identical to the flat
// world for every shard and worker count — the property matrix steps
// shards ∈ {1,2,7} against the flat reference.
//
// Shards = 0 (ShardAuto) resolves to GOMAXPROCS for worlds of at least
// a million agents, else 1. Every count is capped at MaxShards (64):
// an explicit count above it is an error, because the per-(src,dst)
// mailboxes grow as K². The shard is the unit of multi-core work: with
// K shards, each of Step's workers owns whole shards, with no shared
// writes, no false sharing, and zero steady-state allocations.
//
// # Occupancy index selection
//
// count(position) queries are served from an occupancy index
// (occIndex, occindex.go) with two interchangeable representations.
// One index type serves both world shapes: the flat world keeps one
// over the whole graph, and each shard slab keeps one over its own
// node range. The world resolves the representation once, from its
// node count and population alone, and every slab inherits it, so the
// shard count never changes the representation or its memory; only
// the index's own methods branch on it. OccAuto picks the dense
// representation, a []int32 of per-node totals indexed by node offset
// in the span, when the world has at most max(1<<22, 32 × agents)
// nodes — max(16 MiB, 128 B per agent) of totals — and never above the
// 1<<26-node force limit. A second []int32 of tagged counts exists
// only once the world holds a tagged agent: the first such agent
// allocates it for every index of the world at once (ensureTagCounts),
// so density, quorum and netsize worlds never carry it and no Step
// ever allocates it. Larger worlds — including the paper's "A larger
// than the area agents traverse" regime with 10^12-node tori — use a
// sparse open-addressing table keyed by occupied node, stored as split
// key/cell arrays so probe loops touch 8-byte key slots and bulk
// queries batch their probe sequences (lookupInto). Config.Occupancy
// can force either choice (OccDense, OccSparse) for testing or tuning.
// Both representations are maintained incrementally while the world
// steps: once a count query has built the index, each subsequent round
// only decrements the count of the node an agent left and increments
// the count of the node it entered, so Count/CountTagged/CountInGroup
// never trigger an O(agents) rebuild and allocate nothing in steady
// state. The dense update is a plain in-order scatter on purpose — a
// branch-free pass over the totals, then a tag pass only when the tag
// counts exist and a group pass only when groups exist: a
// cache-blocked counting-sort variant was measured and lost at every
// reachable size (see applyMoves).
//
// # Observation pipeline
//
// Estimators consume rounds through the streaming observation
// pipeline (pipeline.go) instead of issuing n scalar Count calls per
// round: Run(w, rounds, obs...) advances the world and hands each
// Observer a Round snapshot whose Counts/TaggedCounts/GroupCounts
// accessors serve the whole round's per-agent counts from the bulk
// CountsAllInto family, computed at most once per round into buffers
// reused for the run's lifetime. A full pipeline round — step,
// incremental index update, snapshots, observer callbacks — allocates
// nothing in steady state (pinned by alloc regression tests).
//
// Early stopping has two granularities. An observer returning Stop
// retires itself, and the run ends once every observer has stopped —
// the per-run anytime usage of the paper's Section 6.2. For per-agent
// stopping times, observers retire individual agents through the
// shared active mask (Round.Deactivate); the run ends when no agent
// remains active, and each agent's decision round is its stopping
// time.
//
// The pipeline preserves the determinism invariant: observers cannot
// influence stepping or snapshot contents, so results are independent
// of observer count and order. The one piece of observer-visible
// shared state, the active mask, follows an ownership rule — each
// agent is deactivated (and has its Active bit read) by at most one
// observer — which keeps multi-observer runs order-independent too.
package sim
