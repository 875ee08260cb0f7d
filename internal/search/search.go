// Package search implements DiverseClustering (Algorithms 3–4 of the
// paper): the constraint graph, the backtracking coloring search, and the
// three node-selection strategies Basic, MinChoice and MaxFanOut.
//
// Each diversity constraint is a node; an edge joins two constraints whose
// target tuple sets overlap. A color for a node is one of the candidate
// clusterings enumerated by package cluster. An assignment of colors is
// consistent when (1) clusters of different nodes are pairwise disjoint
// unless identical, and (2) no constraint's upper bound is exceeded by the
// occurrences the assigned clusterings preserve. Following Section 3.3's
// "we update the candidate clusterings for their neighbors", candidates are
// recomputed against the rows still unclaimed whenever a node is visited,
// so condition (1) holds by construction for fresh clusters.
package search

import (
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/relation"
	"diva/internal/rowset"
	"diva/internal/trace"
)

// Strategy selects the next uncolored node during the search.
type Strategy uint8

const (
	// Basic picks a random uncolored node (DIVA-Basic in the paper).
	Basic Strategy = iota
	// MinChoice picks the uncolored node with the fewest candidate
	// clusterings still available against the current partial assignment
	// (most restrictive first).
	MinChoice
	// MaxFanOut picks the uncolored node with the most uncolored neighbors
	// (most interactions first), pruning unsatisfiable clusterings early.
	MaxFanOut
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	switch s {
	case Basic:
		return "Basic"
	case MinChoice:
		return "MinChoice"
	case MaxFanOut:
		return "MaxFanOut"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// ParseStrategy resolves a strategy name.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "Basic", "basic":
		return Basic, nil
	case "MinChoice", "minchoice":
		return MinChoice, nil
	case "MaxFanOut", "maxfanout":
		return MaxFanOut, nil
	}
	return Basic, fmt.Errorf("search: unknown strategy %q", name)
}

// Node is one constraint in the graph.
type Node struct {
	// Index is the node's position in Graph.Nodes and in the original
	// constraint set.
	Index int
	// Bound is the constraint the node represents.
	Bound *constraint.Bound
	// Enum produces candidate clusterings for the constraint against the
	// rows still available.
	Enum *cluster.Enumerator
	// Neighbors are indexes of nodes whose constraints share target tuples.
	Neighbors []int
}

// Graph is the constraint graph of Section 3.3.
type Graph struct {
	Nodes []*Node
	rel   *relation.Relation
	// poolNbrs is the pool-intersection relation: j is a pool neighbor of i
	// when the constraints' QI target pools (TargetQIRows — the rows
	// candidate enumeration draws from) overlap. It is a superset of the
	// Neighbors relation, which intersects the narrower full-target sets,
	// and it is the dependency closure conflict-driven learning blames: a
	// node's candidate list, and every preserved-occurrence count, is a
	// function of its pool neighbors' assignments alone. Built lazily by the
	// first learning search (poolOnce) so non-learning runs pay nothing.
	poolNbrs [][]int
	poolOnce sync.Once
}

// buildPoolNeighbors computes the pool-intersection relation (see
// Graph.poolNbrs).
func (g *Graph) buildPoolNeighbors() {
	pools := make([]*rowset.Set, len(g.Nodes))
	for i, n := range g.Nodes {
		pools[i] = rowset.FromSlice(g.rel.Len(), n.Bound.TargetQIRows(g.rel))
	}
	g.poolNbrs = make([][]int, len(g.Nodes))
	for i := range g.Nodes {
		for j := i + 1; j < len(g.Nodes); j++ {
			if pools[i].Intersects(pools[j]) {
				g.poolNbrs[i] = append(g.poolNbrs[i], j)
				g.poolNbrs[j] = append(g.poolNbrs[j], i)
			}
		}
	}
}

// BuildGraph constructs the constraint graph for the bound constraints over
// rel, preparing candidate enumeration per node with the given options.
func BuildGraph(rel *relation.Relation, bounds []*constraint.Bound, opts cluster.Options) *Graph {
	g := &Graph{rel: rel, Nodes: make([]*Node, len(bounds))}
	targets := make([]*rowset.Set, len(bounds))
	for i, b := range bounds {
		targets[i] = b.TargetSet(rel)
		g.Nodes[i] = &Node{
			Index: i,
			Bound: b,
			Enum:  cluster.NewEnumerator(rel, b, opts),
		}
	}
	for i := range g.Nodes {
		for j := i + 1; j < len(g.Nodes); j++ {
			if targets[i].Intersects(targets[j]) {
				g.Nodes[i].Neighbors = append(g.Nodes[i].Neighbors, j)
				g.Nodes[j].Neighbors = append(g.Nodes[j].Neighbors, i)
			}
		}
	}
	return g
}

// Describe emits the graph's shape into tr: one KindNode event per node
// (index, constraint label, neighbor count) and one KindEdge event per edge
// with the endpoints' target-set Jaccard overlap. Consumers such as the
// search profiler use these to label search-tree spans with constraints and
// to weight conflict-edge heat in infeasibility explanations; the engine
// calls it once during the build-graph phase.
func (g *Graph) Describe(tr trace.Tracer) { g.DescribeMapped(tr, nil) }

// DescribeMapped is Describe for a graph built over a subset of a larger
// constraint set: index maps this graph's node indexes to positions in the
// original set, so a per-component graph's events carry globally meaningful
// node ids (profilers and explainers key constraints by them). A nil index
// is the identity.
func (g *Graph) DescribeMapped(tr trace.Tracer, index []int) {
	if tr == nil || tr == trace.Nop {
		return
	}
	id := func(i int) int {
		if index != nil {
			return index[i]
		}
		return i
	}
	for _, n := range g.Nodes {
		tr.Trace(trace.Event{Kind: trace.KindNode, Node: id(n.Index), Label: n.Bound.String(), N: len(n.Neighbors)})
	}
	for _, n := range g.Nodes {
		for _, j := range n.Neighbors {
			if j <= n.Index {
				continue // each edge once, from its lower endpoint
			}
			tr.Trace(trace.Event{
				Kind:     trace.KindEdge,
				Node:     id(n.Index),
				N:        id(j),
				Conflict: constraint.PairConflict(g.rel, n.Bound, g.Nodes[j].Bound),
			})
		}
	}
}

// Stats reports search effort.
type Stats struct {
	// Steps counts color-assignment attempts.
	Steps int
	// Backtracks counts retracted assignments.
	Backtracks int
	// CandidatesTried counts consistency checks of candidate clusterings.
	CandidatesTried int
	// CacheHits and CacheMisses count the candidate-list requests of node
	// visits against the fingerprint-keyed candidate cache: a hit serves the
	// visited node's list without enumerating it, a miss enumerates and
	// materializes it. Entries are keyed by (node, used-set fingerprint), so
	// they survive backtracking — revisiting a previously seen used-row
	// state hits the cache. MinChoice's count-only probes of the uncolored
	// nodes share the cache but count as neither: a probe stores only the
	// candidate count, so the visited node's list is a miss the first time.
	CacheHits   int
	CacheMisses int
	// NogoodsLearned, NogoodHits, Backjumps and MaxBackjump report the
	// conflict-driven search (Options.Nogoods): conflict sets recorded into
	// the learned-nogood store, visits or candidates pruned because a
	// learned nogood refuted them, conflict-directed backjumps taken, and
	// the deepest single backjump in skipped chronological levels. All zero
	// when learning is disabled.
	NogoodsLearned int
	NogoodHits     int
	Backjumps      int
	MaxBackjump    int
	// Err records why an unsuccessful search stopped early: the context's
	// error on cancellation or deadline expiry, nil when the search space
	// was exhausted, the step budget ran out, or a coloring was found.
	Err error
	// nodeAssigns and nodeBacktracks count per-node search activity, indexed
	// by constraint-graph node. They travel inside Stats so ColorPortfolio
	// can replay the winning worker's counts into the run's tracer (worker
	// per-step events are suppressed while the portfolio races).
	nodeAssigns    []int
	nodeBacktracks []int
	// nodeNogoods and nodeBackjumps count learning activity per node: the
	// nogoods each exhausted visit derived and the backjumps that landed on
	// each node's visit. Nil when learning is disabled.
	nodeNogoods   []int
	nodeBackjumps []int
}

// Merge folds another search's scalar counters into s. The sharded engine
// sums per-component searches into one run-level Stats; the first non-nil
// Err wins (per-node slices are not merged — replay them with ReplayInto,
// which carries the node remapping the sum would lose).
func (s *Stats) Merge(o Stats) {
	s.Steps += o.Steps
	s.Backtracks += o.Backtracks
	s.CandidatesTried += o.CandidatesTried
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.NogoodsLearned += o.NogoodsLearned
	s.NogoodHits += o.NogoodHits
	s.Backjumps += o.Backjumps
	if o.MaxBackjump > s.MaxBackjump {
		s.MaxBackjump = o.MaxBackjump
	}
	if s.Err == nil {
		s.Err = o.Err
	}
}

// ReplayInto emits the per-node assign/backtrack counts of a completed
// search into tr as batched KindAssign/KindBacktrack events (Event.N carries
// the count; Span stays 0 — batched replays carry no tree structure). index,
// when non-nil, maps this search's node indexes to positions in a larger
// constraint set, exactly as in DescribeMapped; ColorPortfolio replays its
// winner with a nil index, the sharded engine replays each component with
// the component's index list.
func (s Stats) ReplayInto(tr trace.Tracer, index []int) {
	if tr == nil || tr == trace.Nop {
		return
	}
	emit := func(kind trace.EventKind, counts []int) {
		for node, n := range counts {
			if n == 0 {
				continue
			}
			if index != nil {
				node = index[node]
			}
			tr.Trace(trace.Event{Kind: kind, Node: node, N: n})
		}
	}
	emit(trace.KindAssign, s.nodeAssigns)
	emit(trace.KindBacktrack, s.nodeBacktracks)
	emit(trace.KindNogood, s.nodeNogoods)
	emit(trace.KindBackjump, s.nodeBackjumps)
}

// Options configures the coloring search.
type Options struct {
	Strategy Strategy
	// Rng drives the Basic strategy's random node choice. Required for
	// Basic; ignored by the deterministic strategies.
	Rng *rand.Rand
	// MaxSteps aborts the search after this many assignment attempts; zero
	// means the default of 1,000,000. An aborted search reports no coloring
	// found.
	MaxSteps int
	// Accept, when non-nil, is consulted once all nodes are colored with
	// the total number of rows used by the assignment; returning false
	// rejects the complete coloring and resumes the search. The DIVA driver
	// uses it to avoid leaving a remainder of fewer than k tuples for the
	// off-the-shelf anonymizer.
	Accept func(usedRows int) bool
	// Ctx, when non-nil, cancels the search at step granularity: a canceled
	// or expired context aborts with Stats.Err set to the context's error.
	Ctx context.Context
	// Tracer, when non-nil, receives per-node assign/backtrack,
	// candidate-enumeration and cache-hit events, plus KindProgress
	// heartbeats every HeartbeatEvery steps and once when the search ends.
	// ColorPortfolio suppresses the per-step events for its workers —
	// heartbeats still flow, concurrently — and emits the worker-win event
	// plus the winner's replayed per-node counts itself.
	Tracer trace.Tracer
	// HeartbeatEvery is the step cadence of KindProgress heartbeats; zero
	// means the default of 256 steps. The final heartbeat at search end is
	// emitted regardless.
	HeartbeatEvery int
	// Nogoods, when non-nil, enables conflict-driven search (CDCL-style
	// nogood learning with conflict-directed backjumping): every exhausted
	// visit derives a conflict set from the blocker constraints' pool
	// dependencies, records it in the store, and the search retreats
	// directly to the deepest assignment the conflict involves instead of
	// unwinding chronologically. The store is consulted before every visit
	// and candidate expansion, pruning partial colorings already refuted.
	// One store serves one coloring problem; ColorPortfolio shares it across
	// its workers so the strategies exchange conflict proofs. Nil runs the
	// classic chronological search.
	Nogoods *NogoodStore
	// cancel, when non-nil and set, aborts the search; used by
	// ColorPortfolio to stop losing workers.
	cancel *atomic.Bool
	// worker is 1 + the portfolio worker index, or 0 for a sequential
	// search; heartbeats report worker−1 (so −1 means sequential).
	worker int
}

// DefaultHeartbeatEvery is the default KindProgress cadence in search steps.
const DefaultHeartbeatEvery = 256

// Color runs the backtracking coloring (Algorithm 4). It returns the merged
// diverse clustering SΣ and search statistics. found is false when no
// consistent coloring exists within the step budget.
func (g *Graph) Color(opts Options) (sigma cluster.Clustering, stats Stats, found bool) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 1_000_000
	}
	if opts.HeartbeatEvery == 0 {
		opts.HeartbeatEvery = DefaultHeartbeatEvery
	}
	st := &state{
		g:          g,
		assigned:   make([]cluster.Clustering, len(g.Nodes)),
		colored:    make([]bool, len(g.Nodes)),
		used:       rowset.New(g.rel.Len()),
		active:     make(map[uint64]*activeCluster),
		preserve:   make([]int, len(g.Nodes)),
		candCache:  make(map[candKey]candEntry, 4*len(g.Nodes)),
		blockCount: make([]int, len(g.Nodes)),
		candsAt:    make([][]cluster.Clustering, len(g.Nodes)+1),
		opts:       opts,
	}
	st.stats.nodeAssigns = make([]int, len(g.Nodes))
	st.stats.nodeBacktracks = make([]int, len(g.Nodes))
	if opts.Rng != nil && opts.Strategy == Basic {
		// One salt draw keeps Basic's node choice a pure function of the
		// search state (see nextNode): learned-nogood pruning then preserves
		// the visit order of the surviving tree, so conflict-driven and
		// chronological runs find the same first accepted coloring.
		st.salt = opts.Rng.Uint64()
	}
	if opts.Nogoods != nil {
		st.learn = opts.Nogoods
		st.assignedFp = make([]uint64, len(g.Nodes))
		st.depthOf = make([]int, len(g.Nodes))
		st.conflAt = make([][]bool, len(g.Nodes)+1)
		st.failCS = make([]bool, len(g.Nodes))
		st.stats.nodeNogoods = make([]int, len(g.Nodes))
		st.stats.nodeBackjumps = make([]int, len(g.Nodes))
		g.poolOnce.Do(g.buildPoolNeighbors)
	}
	if opts.Ctx != nil {
		st.done = opts.Ctx.Done()
	}
	ok := st.color()
	// The final heartbeat carries the search's exact totals; tracers such as
	// trace.Recorder use it to converge their running counters, and the run
	// registry uses it to show the search's last known state.
	st.emitProgress()
	stats = st.stats
	if !ok {
		return nil, stats, false
	}
	// Merge distinct clusters into SΣ.
	seen := make(map[uint64]bool)
	for _, s := range st.assigned {
		for _, c := range s {
			fp := cluster.Fingerprint(c)
			if seen[fp] {
				continue
			}
			seen[fp] = true
			sigma = append(sigma, c)
		}
	}
	return sigma, stats, true
}

// activeCluster tracks one distinct cluster currently used by the partial
// assignment, with a reference count (several nodes may share an identical
// cluster).
type activeCluster struct {
	rows []int
	refs int
}

type state struct {
	g        *Graph
	assigned []cluster.Clustering
	colored  []bool
	nColored int
	// used is the bitset of rows claimed by the active clusters. Its Zobrist
	// fingerprint is maintained incrementally across assign/unassign and
	// keys the candidate cache.
	used *rowset.Set
	// active maps a cluster fingerprint to the active cluster it identifies
	// (several nodes may share an identical cluster).
	active map[uint64]*activeCluster
	// preserve[j] is the number of occurrences of constraint j's target
	// preserved by the distinct active clusters.
	preserve []int
	// candCache memoizes raw candidate enumerations keyed by (node,
	// used-set fingerprint). Enumeration is a pure function of the node and
	// the used-row set, so entries stay valid across backtracking: MinChoice
	// probes every uncolored node's count before picking one, and unwinding
	// to a previously explored used-state serves counts and lists without
	// redoing them. The cache is cleared wholesale if it ever exceeds
	// maxCandCacheEntries.
	candCache map[candKey]candEntry
	// enum is the candidate enumeration's working memory, owned by this
	// search alone.
	enum cluster.Scratch
	// candsAt reuses one candidate-list buffer per visit depth: a frame's
	// list stays live while the deeper frames build theirs. usable and
	// uncolored are sharedCandidates' and nextNode's reusable scratch.
	candsAt   [][]cluster.Clustering
	usable    []sharedCluster
	uncolored []int
	// newClusters is isConsistent's reusable scratch for the genuinely new
	// clusters of a candidate (candidatesFor finishes with it before the
	// search recurses, so one buffer per state suffices).
	newClusters [][]int
	// blockCount is candidatesFor's reusable scratch counting, per node, how
	// many candidates of the current visit the node's upper bound rejected;
	// the maximum entry names the visit's dominant blocker.
	blockCount []int
	// spanSeq and spanStack maintain search-tree span identities for the
	// tracer: each assignment opens a span (unique, monotone id) whose parent
	// is the enclosing assignment's span, and the matching backtrack closes
	// it. Maintained only when a tracer is attached.
	spanSeq   uint64
	spanStack []uint64
	// salt seeds Basic's state-pure node choice, drawn once per search.
	salt uint64
	// learn is the learned-nogood store (nil when learning is disabled); the
	// fields below exist only while it is non-nil.
	learn *NogoodStore
	// assignFp is the incremental Zobrist fingerprint of the partial
	// assignment: XOR over colored nodes of mixAssign(node, clustering
	// fingerprint). Order-independent, so equivalent partial colorings
	// reached in different orders (by different portfolio strategies) key
	// the same exhausted-visit records.
	assignFp uint64
	// assignedFp and depthOf record, per colored node, its clustering
	// fingerprint and assignment order.
	assignedFp []uint64
	depthOf    []int
	// conflAt reuses one conflict-set buffer per visit depth; failCS carries
	// a failed subtree's conflict set to the enclosing frame, and passLevels
	// counts the frames a backjump has skipped so far.
	conflAt    [][]bool
	failCS     []bool
	passLevels int
	// pendingFp stages the candidate clustering fingerprint computed during
	// the store probe so assign reuses it.
	pendingFp uint64
	// done is the context's cancellation channel (nil when no context).
	done    <-chan struct{}
	opts    Options
	stats   Stats
	aborted bool
}

// candKey identifies one cached enumeration: the node and the fingerprint
// of the used-row set it was enumerated against.
type candKey struct {
	node int
	fp   uint64
}

// candEntry is one cached enumeration: the candidate count, and the list
// itself once a visit asked for it (listed). MinChoice probes fill only the
// count.
type candEntry struct {
	count  int
	list   []cluster.Clustering
	listed bool
}

// maxCandCacheEntries bounds candCache; deep searches over many used-states
// would otherwise grow it without limit. Exceeding it drops the whole cache
// (entries are cheap to rebuild — one enumeration each).
const maxCandCacheEntries = 4096

// canceled polls the portfolio stop flag and the context; it latches into
// aborted so an interrupted search unwinds without further work.
func (st *state) canceled() bool {
	if st.aborted {
		return true
	}
	if st.opts.cancel != nil && st.opts.cancel.Load() {
		st.aborted = true
		return true
	}
	if st.done != nil {
		select {
		case <-st.done:
			st.aborted = true
			st.stats.Err = st.opts.Ctx.Err()
			return true
		default:
		}
	}
	return false
}

// rawCandidates returns node v's candidate enumeration against the current
// used-row set, served from the fingerprint-keyed cache when possible.
func (st *state) rawCandidates(v int) []cluster.Clustering {
	key := candKey{node: v, fp: st.used.Fingerprint()}
	entry, ok := st.candCache[key]
	if ok && entry.listed {
		st.stats.CacheHits++
		if st.opts.Tracer != nil {
			st.opts.Tracer.Trace(trace.Event{Kind: trace.KindCacheHit, Node: v, N: len(entry.list), Parent: st.topSpan(), Depth: st.nColored})
		}
		return entry.list
	}
	cands := st.g.Nodes[v].Enum.Candidates(st.opts.Ctx, st.used, &st.enum)
	st.cache(key, ok, candEntry{count: len(cands), list: cands, listed: true})
	st.stats.CacheMisses++
	if st.opts.Tracer != nil {
		st.opts.Tracer.Trace(trace.Event{Kind: trace.KindCandidates, Node: v, N: len(cands), Parent: st.topSpan(), Depth: st.nColored})
	}
	return cands
}

// candidateCount returns the number of node v's raw candidates against the
// current used-row set — len(rawCandidates(v)) — counting them without
// materializing the list unless the cache already holds it.
func (st *state) candidateCount(v int) int {
	key := candKey{node: v, fp: st.used.Fingerprint()}
	if entry, ok := st.candCache[key]; ok {
		return entry.count
	}
	n := st.g.Nodes[v].Enum.Count(st.opts.Ctx, st.used, &st.enum)
	st.cache(key, false, candEntry{count: n})
	return n
}

// cache stores entry under key; present says the key is already cached
// (the entry is being completed), otherwise a full cache is dropped first.
func (st *state) cache(key candKey, present bool, entry candEntry) {
	if !present && len(st.candCache) >= maxCandCacheEntries {
		clear(st.candCache)
	}
	st.candCache[key] = entry
}

// visit aggregates one node-visit's candidate accounting, reported on the
// KindExhausted event when the visit runs dry: how many candidates were
// considered, why the consistency check rejected the ones it did, and which
// node's upper bound did most of the rejecting.
type visit struct {
	// enumerated counts the candidates considered at this visit: the raw
	// enumeration against the current used-row set plus the shared-cluster
	// proposals that fell within the node's bounds.
	enumerated int
	// rejOverlap and rejUpper count consistency-check rejections: partial
	// overlap with an active cluster vs. an upper-bound violation.
	rejOverlap, rejUpper int
	// blocker is the node whose upper bound rejected the most candidates
	// (−1 when rejUpper is 0).
	blocker int
}

// candidatesFor regenerates node v's candidates against the rows still
// available and filters them through the upper-bound consistency check.
// Clusters already assigned to other nodes may be shared when they lie
// inside v's target set ("for every pair of clusters … either disjoint or
// equal", Section 3.2); shared candidates come first since they cost no
// additional suppression. The returned visit records the rejection
// breakdown for exhaustion reporting.
func (st *state) candidatesFor(v int) ([]cluster.Clustering, visit) {
	vs := visit{blocker: -1}
	node := st.g.Nodes[v]
	out := st.sharedCandidates(node, st.candsAt[st.nColored][:0])
	vs.enumerated = len(out)
	raw := st.rawCandidates(v)
	vs.enumerated += len(raw)
	out = slices.Grow(out, len(raw))
	// Blocker attribution feeds the KindExhausted event and, under learning,
	// the conflict-set derivation (conflFor reads st.blockCount right after
	// this visit's enumeration); the scratch bookkeeping is skipped when
	// neither consumer is attached.
	traced := st.opts.Tracer != nil
	attrib := traced || st.learn != nil
	if attrib {
		clear(st.blockCount)
	}
	for _, cand := range raw {
		st.stats.CandidatesTried++
		ok, overlap, blocker := st.isConsistent(cand)
		switch {
		case ok:
			out = append(out, cand)
		case overlap:
			vs.rejOverlap++
		default:
			vs.rejUpper++
			if attrib {
				st.blockCount[blocker]++
			}
		}
	}
	if traced {
		best := 0
		for j, c := range st.blockCount {
			if c > best {
				best, vs.blocker = c, j
			}
		}
	}
	st.candsAt[st.nColored] = out
	return out, vs
}

// sharedCluster is an active cluster that preserves some of a node's
// target occurrences.
type sharedCluster struct {
	rows      []int
	preserved int
}

// sharedCandidates proposes clusterings built from clusters other nodes
// already activated, appended to out: every active cluster (or combination
// of active clusters) whose preserved occurrences of the node's target land
// within the node's frequency range is a zero-cost color for the node.
func (st *state) sharedCandidates(node *Node, out []cluster.Clustering) []cluster.Clustering {
	b := node.Bound
	usable := st.usable[:0]
	for _, ac := range st.active {
		if p := preservedIn(st.g.rel, b, ac.rows); p > 0 {
			usable = append(usable, sharedCluster{rows: ac.rows, preserved: p})
		}
	}
	st.usable = usable
	// Map iteration order is random; keep the search deterministic. Active
	// clusters are disjoint, so first rows are distinct and the order is
	// total.
	slices.SortFunc(usable, func(x, y sharedCluster) int { return cmp.Compare(x.rows[0], y.rows[0]) })
	// Single shared clusters.
	for _, s := range usable {
		st.stats.CandidatesTried++
		if s.preserved >= b.Lower && s.preserved <= b.Upper {
			out = append(out, cluster.Clustering{s.rows})
		}
	}
	// Greedy combination of all usable shared clusters.
	if len(usable) > 1 {
		var combo cluster.Clustering
		total := 0
		for _, s := range usable {
			if total+s.preserved > b.Upper {
				continue
			}
			combo = append(combo, s.rows)
			total += s.preserved
		}
		st.stats.CandidatesTried++
		if len(combo) > 1 && total >= b.Lower && total <= b.Upper {
			out = append(out, combo)
		}
	}
	return out
}

// color is the recursive Coloring routine (Algorithm 4), extended with
// conflict-driven nogood learning and backjumping when Options.Nogoods is
// set. Every failing frame leaves its conflict set in st.failCS; a frame
// whose assignment the conflict does not involve skips its remaining
// candidates and passes the set through unchanged (a backjump), while a
// frame the conflict does involve absorbs it and continues. DESIGN.md §13
// documents the soundness argument.
func (st *state) color() bool {
	if st.nColored == len(st.g.Nodes) {
		// All nodes colored; lower bounds hold by construction (each node's
		// own clustering preserves ≥ λl occurrences) and upper bounds were
		// enforced on every assignment.
		if st.opts.Accept == nil || st.opts.Accept(st.used.Len()) {
			return true
		}
		if st.learn != nil {
			// The Accept hook judges the total used-row count, so every
			// assignment participates in its rejection: blame the full
			// trail, and unwinding stays chronological.
			copy(st.failCS, st.colored)
		}
		return false
	}
	if st.canceled() {
		return false
	}
	v := st.nextNode()
	if st.learn != nil {
		if ng := st.learn.probeVisit(v, st.assignFp); ng != nil {
			// This visit, under an equivalent partial assignment, was
			// already proven to exhaust — prune it in O(1) and fail with the
			// recorded conflict set.
			st.stats.NogoodHits++
			st.failFromMembers(ng)
			return false
		}
	}
	cands, vs := st.candidatesFor(v)
	var confl []bool
	if st.learn != nil {
		confl = st.conflFor(st.nColored, v)
	}
	descended := 0
	for _, cand := range cands {
		if st.learn != nil {
			fp := clusteringFingerprint(cand)
			if ng := st.learn.probeCandidate(v, fp, st.colored, st.assignedFp); ng != nil {
				// Assigning this candidate would complete a learned nogood:
				// the subtree is already refuted. Its other members blame
				// v's exhaustion.
				st.stats.NogoodHits++
				for _, m := range ng.members {
					if m.node != v {
						confl[m.node] = true
					}
				}
				continue
			}
			st.pendingFp = fp
		}
		st.stats.Steps++
		if st.stats.Steps > st.opts.MaxSteps {
			st.aborted = true
			return false
		}
		if st.stats.Steps%st.opts.HeartbeatEvery == 0 {
			st.emitProgress()
		}
		if st.canceled() {
			return false
		}
		descended++
		st.assign(v, cand)
		st.stats.nodeAssigns[v]++
		if st.opts.Tracer != nil {
			parent := st.topSpan()
			st.spanSeq++
			st.spanStack = append(st.spanStack, st.spanSeq)
			st.opts.Tracer.Trace(trace.Event{Kind: trace.KindAssign, Node: v, Span: st.spanSeq, Parent: parent, Depth: st.nColored})
		}
		if st.color() {
			return true
		}
		jumping := false
		if st.learn != nil && !st.aborted {
			if st.failCS[v] {
				// The conflict below involves v's assignment: absorb it
				// (minus v) and try v's next candidate.
				for j, in := range st.failCS {
					if in && j != v {
						confl[j] = true
					}
				}
			} else {
				// v's assignment is irrelevant to the conflict: re-coloring
				// v cannot repair it, so skip the remaining candidates and
				// keep unwinding. st.failCS passes through unchanged.
				jumping = true
			}
		}
		st.unassign(v, cand)
		st.stats.Backtracks++
		st.stats.nodeBacktracks[v]++
		if st.opts.Tracer != nil {
			span := st.topSpan()
			st.spanStack = st.spanStack[:len(st.spanStack)-1]
			st.opts.Tracer.Trace(trace.Event{Kind: trace.KindBacktrack, Node: v, Span: span, Parent: st.topSpan(), Depth: st.nColored})
		}
		if st.aborted {
			return false
		}
		if jumping {
			st.passLevels++
			return false
		}
		if st.learn != nil && st.passLevels > 0 {
			// A backjump initiated below just landed on this visit.
			st.stats.Backjumps++
			if st.passLevels > st.stats.MaxBackjump {
				st.stats.MaxBackjump = st.passLevels
			}
			st.stats.nodeBackjumps[v]++
			if st.opts.Tracer != nil {
				st.opts.Tracer.Trace(trace.Event{Kind: trace.KindBackjump, Node: v, Skipped: st.passLevels, Parent: st.topSpan(), Depth: st.nColored})
			}
			st.passLevels = 0
		}
	}
	if st.learn != nil && !st.aborted {
		st.learnFrom(v, confl)
	}
	// The visit ran out of candidates: every one was rejected up front or
	// descended into and backtracked out of. Report why, so profilers can
	// attribute the retreat to concrete constraints.
	if st.opts.Tracer != nil {
		st.opts.Tracer.Trace(trace.Event{
			Kind:            trace.KindExhausted,
			Node:            v,
			N:               descended,
			Parent:          st.topSpan(),
			Depth:           st.nColored,
			Enumerated:      vs.enumerated,
			RejectedOverlap: vs.rejOverlap,
			RejectedUpper:   vs.rejUpper,
			Blocker:         vs.blocker,
		})
	}
	return false
}

// conflFor clears and returns the conflict-set buffer for a visit of v at
// the given depth, seeded with the assignments v's exhaustion depends on
// up front: v's assigned pool neighbors (they determine the rows candidate
// enumeration draws from and the clusters available for sharing) and, for
// every node whose upper bound rejected a candidate this visit, that
// blocker's preserved-occurrence dependencies — its assigned pool
// neighbors and itself. Callers must invoke it immediately after
// candidatesFor, while st.blockCount still describes this visit.
func (st *state) conflFor(depth, v int) []bool {
	confl := st.conflAt[depth]
	if confl == nil {
		confl = make([]bool, len(st.g.Nodes))
		st.conflAt[depth] = confl
	} else {
		clear(confl)
	}
	for _, j := range st.g.poolNbrs[v] {
		if st.colored[j] {
			confl[j] = true
		}
	}
	for j, c := range st.blockCount {
		if c == 0 {
			continue
		}
		if st.colored[j] {
			confl[j] = true
		}
		for _, a := range st.g.poolNbrs[j] {
			if st.colored[a] {
				confl[a] = true
			}
		}
	}
	return confl
}

// failFromMembers publishes a recorded nogood's members as the current
// failure's conflict set.
func (st *state) failFromMembers(ng *nogood) {
	clear(st.failCS)
	for _, m := range ng.members {
		if st.colored[m.node] {
			st.failCS[m.node] = true
		}
	}
}

// learnFrom records v's exhausted visit: the accumulated conflict set
// becomes a learned nogood keyed by (v, assignment fingerprint), and is
// published in st.failCS for the enclosing frame to direct its retreat.
func (st *state) learnFrom(v int, confl []bool) {
	n := 0
	for _, in := range confl {
		if in {
			n++
		}
	}
	members := make([]nogoodMember, 0, n)
	for j, in := range confl {
		if in {
			members = append(members, nogoodMember{node: j, fp: st.assignedFp[j], depth: st.depthOf[j]})
		}
	}
	st.learn.learn(v, st.assignFp, members)
	st.stats.NogoodsLearned++
	st.stats.nodeNogoods[v]++
	if st.opts.Tracer != nil {
		st.opts.Tracer.Trace(trace.Event{Kind: trace.KindNogood, Node: v, Members: len(members), Parent: st.topSpan(), Depth: st.nColored})
	}
	copy(st.failCS, confl)
}

// clusteringFingerprint is the order-independent fingerprint of one
// candidate clustering: XOR of its clusters' row-set fingerprints over a
// nonzero base (so the empty clustering still marks its node as assigned).
func clusteringFingerprint(cand cluster.Clustering) uint64 {
	fp := uint64(0x9e3779b97f4a7c15)
	for _, c := range cand {
		fp ^= cluster.Fingerprint(c)
	}
	return fp
}

// mixAssign hashes one (node, clustering fingerprint) assignment for the
// XOR-combined partial-assignment fingerprint.
func mixAssign(node int, fp uint64) uint64 {
	return mix64(uint64(node)*0x9e3779b97f4a7c15 ^ fp)
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// topSpan returns the innermost open search-tree span (0 at the root).
func (st *state) topSpan() uint64 {
	if n := len(st.spanStack); n > 0 {
		return st.spanStack[n-1]
	}
	return 0
}

// emitProgress sends a KindProgress heartbeat carrying the search's
// cumulative counters, its current depth and the emitting worker.
func (st *state) emitProgress() {
	if st.opts.Tracer == nil {
		return
	}
	st.opts.Tracer.Trace(trace.Event{
		Kind:        trace.KindProgress,
		Steps:       st.stats.Steps,
		Backtracks:  st.stats.Backtracks,
		Candidates:  st.stats.CandidatesTried,
		CacheHits:   st.stats.CacheHits,
		CacheMisses: st.stats.CacheMisses,
		Nogoods:     st.stats.NogoodsLearned,
		NogoodHits:  st.stats.NogoodHits,
		Backjumps:   st.stats.Backjumps,
		MaxBackjump: st.stats.MaxBackjump,
		Depth:       st.nColored,
		Worker:      st.opts.worker - 1,
	})
}

// nextNode implements NextNode for the three strategies.
func (st *state) nextNode() int {
	switch st.opts.Strategy {
	case MinChoice:
		best, bestCount := -1, -1
		for i := range st.g.Nodes {
			if st.colored[i] {
				continue
			}
			count := st.candidateCount(i)
			if best == -1 || count < bestCount {
				best, bestCount = i, count
			}
		}
		return best
	case MaxFanOut:
		best, bestFan := -1, -1
		for i, node := range st.g.Nodes {
			if st.colored[i] {
				continue
			}
			fan := 0
			for _, n := range node.Neighbors {
				if !st.colored[n] {
					fan++
				}
			}
			if fan > bestFan {
				best, bestFan = i, fan
			}
		}
		return best
	default: // Basic
		uncolored := st.uncolored[:0]
		for i := range st.g.Nodes {
			if !st.colored[i] {
				uncolored = append(uncolored, i)
			}
		}
		st.uncolored = uncolored
		if st.opts.Rng != nil {
			// State-pure random choice: hash the per-search salt with the
			// current used-row fingerprint and depth instead of consuming
			// the Rng stream per visit. The choice stays pseudorandom across
			// salts but is a pure function of the search state, so pruning
			// solution-free subtrees (Options.Nogoods) cannot desynchronize
			// the visit order of the surviving tree — conflict-driven and
			// chronological searches find the same first accepted coloring.
			h := mix64(st.salt ^ st.used.Fingerprint() ^ uint64(st.nColored)<<32 ^ uint64(len(uncolored)))
			return uncolored[h%uint64(len(uncolored))]
		}
		return uncolored[0]
	}
}

// isConsistent checks the two search conditions of Section 3.2 for a
// candidate clustering against the current partial assignment:
// disjoint-unless-equal clusters, and no upper-bound violation. When the
// candidate is rejected, overlap distinguishes a disjointness violation
// (condition 1) from an upper-bound one, and blocker names the first node
// whose upper bound the candidate would exceed (−1 on overlap rejections) —
// the attribution the infeasibility explainer aggregates.
func (st *state) isConsistent(cand cluster.Clustering) (ok, overlap bool, blocker int) {
	// Condition 1: each cluster is either identical to an active cluster or
	// disjoint from all of them. Dynamically enumerated candidates are
	// disjoint by construction; the check protects externally supplied
	// clusterings too.
	newClusters := st.newClusters[:0]
	defer func() { st.newClusters = newClusters[:0] }()
	for _, c := range cand {
		fp := cluster.Fingerprint(c)
		if _, shared := st.active[fp]; shared {
			continue // identical cluster already active: sharing is allowed
		}
		if st.used.IntersectsAny(c) {
			return false, true, -1 // partial overlap with a different cluster
		}
		newClusters = append(newClusters, c)
	}
	// Condition 2: adding the genuinely new clusters must not push any
	// constraint's preserved occurrences above its upper bound.
	for j, node := range st.g.Nodes {
		add := 0
		for _, c := range newClusters {
			add += preservedIn(st.g.rel, node.Bound, c)
		}
		if add > 0 && st.preserve[j]+add > node.Bound.Upper {
			return false, false, j
		}
	}
	return true, false, -1
}

func (st *state) assign(v int, cand cluster.Clustering) {
	st.assigned[v] = cand
	st.colored[v] = true
	st.nColored++
	if st.learn != nil {
		st.assignedFp[v] = st.pendingFp
		st.depthOf[v] = st.nColored - 1
		st.assignFp ^= mixAssign(v, st.pendingFp)
	}
	for _, c := range cand {
		fp := cluster.Fingerprint(c)
		if ac, ok := st.active[fp]; ok {
			ac.refs++
			continue
		}
		st.active[fp] = &activeCluster{rows: c, refs: 1}
		st.used.AddSlice(c) // incremental fingerprint update
		for j, node := range st.g.Nodes {
			st.preserve[j] += preservedIn(st.g.rel, node.Bound, c)
		}
	}
}

func (st *state) unassign(v int, cand cluster.Clustering) {
	st.assigned[v] = nil
	st.colored[v] = false
	st.nColored--
	if st.learn != nil {
		st.assignFp ^= mixAssign(v, st.assignedFp[v])
		st.assignedFp[v] = 0
	}
	for _, c := range cand {
		fp := cluster.Fingerprint(c)
		ac := st.active[fp]
		ac.refs--
		if ac.refs > 0 {
			continue
		}
		delete(st.active, fp)
		st.used.RemoveSlice(c)
		for j, node := range st.g.Nodes {
			st.preserve[j] -= preservedIn(st.g.rel, node.Bound, c)
		}
	}
}

// preservedIn returns the number of occurrences of b's target that
// Suppress would preserve in cluster c: if the cluster is uniform on every
// QI target attribute with exactly the target values, each row matching the
// full target (including sensitive target attributes, which are never
// suppressed) contributes one occurrence; otherwise the QI target cells are
// suppressed (or hold other values) and the cluster contributes none.
func preservedIn(rel *relation.Relation, b *constraint.Bound, c []int) int {
	if len(c) == 0 {
		return 0
	}
	schema := rel.Schema()
	for idx, a := range b.Attrs {
		if schema.Attr(a).Role != relation.QI {
			continue
		}
		for _, row := range c {
			if rel.Code(row, a) != b.Codes[idx] {
				return 0
			}
		}
	}
	n := 0
	for _, row := range c {
		if b.Matches(rel.Row(row)) {
			n++
		}
	}
	return n
}
