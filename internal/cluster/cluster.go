// Package cluster implements the Clusterings(σ, R) routine of the DIVA
// algorithm: enumerating candidate clusterings whose suppression satisfies a
// single diversity constraint (Definition 3.2 of the paper).
//
// A candidate clustering S for σ = (X[t], λl, λr) consists of disjoint
// clusters of tuples drawn from the target set Iσ (the tuples of R holding
// the target values, so the target values survive suppression), each cluster
// holding at least k tuples (so it becomes a QI-group), with the total
// number of tuples — the preserved occurrences — within [λl, λr].
//
// The full candidate space is exponential; following the paper's polynomial
// bound, candidates are enumerated as contiguous windows over Iσ sorted by
// QI similarity, plus pairwise compositions of disjoint windows, capped at a
// configurable budget and ordered by increasing suppression cost so the
// search tries cheap clusterings first.
//
// The coloring search recomputes candidates as rows are claimed by other
// constraints ("we update the candidate clusterings for their neighbors",
// Section 3.3): Enumerator.Candidates takes the bitset of rows already in
// use and enumerates over the remaining target rows only, so returned
// clusters never collide with active ones. Candidates and Count share one
// window-scoring pass; Count stops there and returns exactly
// len(Candidates) without sorting or materializing, which is all MinChoice
// node selection needs. Working buffers live in a caller-owned Scratch (the
// coloring search owns one per search), and the returned clusterings are
// carved from a per-call arena sized exactly from the picked windows, so
// the search's hottest loop stays nearly allocation-free.
package cluster

import (
	"cmp"
	"context"
	"slices"

	"diva/internal/constraint"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/rowset"
)

// Clustering is a set of disjoint clusters, each a sorted slice of row
// indexes into the underlying relation — the sorted-slice view at the API
// edge of the engine's bitset row-set core.
type Clustering [][]int

// Tuples returns the total number of tuples across all clusters.
func (s Clustering) Tuples() int {
	n := 0
	for _, c := range s {
		n += len(c)
	}
	return n
}

// Rows returns all row indexes across all clusters, sorted ascending.
func (s Clustering) Rows() []int {
	out := make([]int, 0, s.Tuples())
	for _, c := range s {
		out = append(out, c...)
	}
	slices.Sort(out)
	return out
}

// RowSet returns all row indexes across all clusters as a bitset over the
// universe [0, n).
func (s Clustering) RowSet(n int) *rowset.Set {
	set := rowset.New(n)
	for _, c := range s {
		set.AddSlice(c)
	}
	return set
}

// Fingerprint returns the canonical 64-bit identity of one sorted cluster,
// used for the "disjoint unless equal" consistency rule and for SΣ
// deduplication. It is the rowset Zobrist fingerprint: allocation-free,
// equal for equal row sets, colliding with probability ~2⁻⁶⁴.
func Fingerprint(c []int) uint64 { return rowset.Fingerprint(c) }

// Options bounds the candidate enumeration.
type Options struct {
	// K is the privacy parameter: every cluster must hold at least K tuples.
	K int
	// MaxCandidates caps the number of clusterings returned per constraint.
	// Zero means the default of 64.
	MaxCandidates int
	// MaxWindowSizes caps how many distinct cluster sizes are explored above
	// the minimum. Zero means the default of 8.
	MaxWindowSizes int
	// Criterion, when non-nil, is an additional privacy requirement every
	// candidate cluster must satisfy (e.g. distinct l-diversity); see the
	// privacy package.
	Criterion privacy.Criterion
}

func (o Options) withDefaults() Options {
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 64
	}
	if o.MaxWindowSizes == 0 {
		o.MaxWindowSizes = 8
	}
	if o.K < 1 {
		o.K = 1
	}
	return o
}

// Enumerator produces candidate clusterings for one constraint. The target
// rows are sorted once by QI similarity at construction; every Candidates
// call filters them against the rows currently in use and enumerates windows
// over the remainder.
type Enumerator struct {
	rel  *relation.Relation
	b    *constraint.Bound
	opts Options
	qi   []int
	// sorted is Iσ ordered lexicographically by QI code vector, so similar
	// tuples are adjacent and contiguous windows are cheap clusters.
	sorted []int
}

// NewEnumerator prepares candidate enumeration for b over rel.
func NewEnumerator(rel *relation.Relation, b *constraint.Bound, opts Options) *Enumerator {
	opts = opts.withDefaults()
	e := &Enumerator{rel: rel, b: b, opts: opts, qi: rel.Schema().QIIndexes()}
	// The pool is the rows matching the target's QI components: a cluster
	// preserves occurrences iff it is uniform on those (mixed targets
	// count their sensitive components per row within the cluster).
	e.sorted = slices.Clone(b.TargetQIRows(rel))
	slices.SortFunc(e.sorted, func(x, y int) int {
		rx, ry := rel.Row(x), rel.Row(y)
		for _, a := range e.qi {
			if rx[a] != ry[a] {
				return cmp.Compare(rx[a], ry[a])
			}
		}
		return cmp.Compare(x, y)
	})
	return e
}

// TargetSize returns |Iσ|.
func (e *Enumerator) TargetSize() int { return len(e.sorted) }

// scored is one enumerated candidate before materialization: a window
// [lo1, hi1) and optionally a second disjoint window (hi2 == 0 means
// single-cluster), with its suppression cost.
type scored struct {
	lo1, hi1 int
	lo2, hi2 int
	cost     int
}

// tuples is the candidate's total cluster size.
func (c scored) tuples() int { return (c.hi1 - c.lo1) + (c.hi2 - c.lo2) }

// clusters is the candidate's number of clusters.
func (c scored) clusters() int {
	if c.hi2 > 0 {
		return 2
	}
	return 1
}

// byCostThenSize orders candidates by increasing suppression cost, then by
// fewer tuples; Candidates sorts stably with it, so ties keep enumeration
// order.
func byCostThenSize(x, y scored) int {
	if x.cost != y.cost {
		return cmp.Compare(x.cost, y.cost)
	}
	return cmp.Compare(x.tuples(), y.tuples())
}

type scoredWindow struct {
	lo1, hi1 int
	cost     int
}

// Scratch holds the working buffers of Candidates and Count. A Scratch
// serves one goroutine at a time: the coloring search owns one per search
// (sequential, portfolio worker or shard component), so its steady-state
// enumeration allocates only the clusterings it returns. Nothing in a
// Scratch is referenced by a returned value. The zero value is ready to use.
type Scratch struct {
	avail []int
	fm    []int
	chg   [][]int32
	sizes []int
	cands []scored
	base  []scoredWindow
	// picked holds the winners Candidates materializes; rows is Count's
	// buffer for criterion checks.
	picked []scored
	rows   []int
	// mixed records whether the last scan ran over a mixed target (the only
	// case in which two scored entries can share a window key); seen
	// deduplicates keys then.
	mixed bool
	seen  map[[4]int]bool
}

// arenaChunk caps one backing array of a result arena. Results needing more
// rows are carved from several chunks, so one cache-retained candidate list
// never pins a single oversized slab.
const arenaChunk = 4096

// resultArena carves the returned clusterings out of backing arrays sized
// from the picked windows, so a full enumeration costs a handful of
// allocations instead of one per cluster. Arenas are per call and owned by
// the result — never reused.
type resultArena struct {
	ints     []int
	left     int // rows still to be carved, including those left in ints
	clusters [][]int
}

func newArena(rows, clusters int) resultArena {
	return resultArena{left: rows, clusters: make([][]int, clusters)}
}

func (a *resultArena) rows(n int) []int {
	if len(a.ints) < n {
		a.ints = make([]int, max(n, min(a.left, arenaChunk)))
	}
	out := a.ints[:n:n]
	a.ints = a.ints[n:]
	a.left -= n
	return out
}

func (a *resultArena) clustering(n int) Clustering {
	out := a.clusters[:n:n]
	a.clusters = a.clusters[n:]
	return Clustering(out)
}

// empty is 1 when the empty clustering is a candidate (the constraint's
// lower bound is zero), else 0.
func (e *Enumerator) empty() int {
	if e.b.Lower == 0 {
		return 1
	}
	return 0
}

// limit is how many non-empty clusterings Candidates returns at most: the
// MaxCandidates budget less the empty clustering, but always at least one.
func (e *Enumerator) limit() int { return max(e.opts.MaxCandidates-e.empty(), 1) }

// Candidates enumerates candidate clusterings over the target rows not in
// used (used == nil means all target rows are available), ordered by
// increasing suppression cost, then by fewer tuples. The empty clustering
// is included (first) iff the constraint's lower bound is zero. An empty
// result means no clustering within the enumeration budget satisfies the
// constraint on the available rows.
//
// ctx bounds the enumeration: when it is canceled, Candidates returns early
// with whatever was enumerated so far (the coloring search re-checks the
// context at its next step and aborts the run). A nil ctx never cancels.
// sc supplies the working buffers; nil means a fresh Scratch.
func (e *Enumerator) Candidates(ctx context.Context, used *rowset.Set, sc *Scratch) []Clustering {
	if sc == nil {
		sc = new(Scratch)
	}
	avail, cands := e.scan(ctx, used, sc)
	picked := e.pick(sc, avail, cands)
	n := e.empty() + len(picked)
	if n == 0 {
		return nil
	}
	out := make([]Clustering, 0, n)
	if e.empty() == 1 {
		out = append(out, Clustering{})
	}
	if len(picked) == 0 {
		return out
	}
	// Materialize the winners into an arena sized from them. The returned
	// clusterings are retained by the search's candidate cache, so the arena
	// is owned by the result; everything else lives in the scratch.
	rows, clusters := 0, 0
	for _, c := range picked {
		rows += c.tuples()
		clusters += c.clusters()
	}
	ar := newArena(rows, clusters)
	for _, c := range picked {
		s := ar.clustering(c.clusters())
		s[0] = materialize(ar.rows(c.hi1-c.lo1), avail, c.lo1)
		if c.hi2 > 0 {
			s[1] = materialize(ar.rows(c.hi2-c.lo2), avail, c.lo2)
		}
		out = append(out, s)
	}
	return out
}

// Count returns exactly len(e.Candidates(ctx, used, sc)) without sorting
// or materializing the candidates (with a Criterion, it checks the winners
// in a scratch buffer instead). MinChoice node selection needs only this
// count per uncolored node.
func (e *Enumerator) Count(ctx context.Context, used *rowset.Set, sc *Scratch) int {
	if sc == nil {
		sc = new(Scratch)
	}
	avail, cands := e.scan(ctx, used, sc)
	if e.opts.Criterion != nil {
		return e.empty() + len(e.pick(sc, avail, cands))
	}
	// Without a criterion every distinct window key is a winner, whatever
	// the order, so the count is the distinct keys up to the budget.
	limit := e.limit()
	n := 0
	clear(sc.seen)
	for _, c := range cands {
		if sc.firstSeen(c) {
			n++
			if n == limit {
				break
			}
		}
	}
	return e.empty() + n
}

// firstSeen reports whether c's window key is new in the current
// enumeration. Only a mixed target can repeat a key — a window anchored on
// a matching row may coincide with a strided window or another anchor —
// so otherwise every entry is distinct and the map is skipped. Callers
// clear sc.seen before a pass.
func (sc *Scratch) firstSeen(c scored) bool {
	if !sc.mixed {
		return true
	}
	if sc.seen == nil {
		sc.seen = make(map[[4]int]bool, 64)
	}
	key := [4]int{c.lo1, c.hi1, c.lo2, c.hi2}
	if sc.seen[key] {
		return false
	}
	sc.seen[key] = true
	return true
}

// pick orders cands by cost and returns the winners Candidates
// materializes, in order: distinct window keys that satisfy the Criterion
// (if any), at most e.limit() of them. The result lives in sc.picked.
func (e *Enumerator) pick(sc *Scratch, avail []int, cands []scored) []scored {
	slices.SortStableFunc(cands, byCostThenSize)
	crit := e.opts.Criterion
	limit := e.limit()
	picked := slices.Grow(sc.picked[:0], min(len(cands), limit))
	clear(sc.seen)
	for _, c := range cands {
		if !sc.firstSeen(c) {
			continue
		}
		if crit != nil && !(e.holds(sc, crit, avail, c.lo1, c.hi1) &&
			(c.hi2 == 0 || e.holds(sc, crit, avail, c.lo2, c.hi2))) {
			continue
		}
		picked = append(picked, c)
		if len(picked) >= limit {
			break
		}
	}
	sc.picked = picked
	return picked
}

// holds reports whether the cluster avail[lo:hi] satisfies crit, checking
// the sorted rows in the scratch's buffer.
func (e *Enumerator) holds(sc *Scratch, crit privacy.Criterion, avail []int, lo, hi int) bool {
	sc.rows = append(sc.rows[:0], avail[lo:hi]...)
	slices.Sort(sc.rows)
	return crit.Holds(e.rel, sc.rows)
}

// scan is the window-scoring pass Candidates and Count share: it filters
// the target rows against used and scores every single window, matching-row
// anchor and window pair within the enumeration budget, in enumeration
// order. Both results live in sc. cands is empty when no non-empty
// clustering is possible, or when ctx was canceled before the single
// windows were scored.
func (e *Enumerator) scan(ctx context.Context, used *rowset.Set, sc *Scratch) (avail []int, cands []scored) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	canceled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	avail = e.sorted
	if used != nil {
		sc.avail = slices.Grow(sc.avail[:0], len(e.sorted))
		for _, row := range e.sorted {
			if !used.Contains(row) {
				sc.avail = append(sc.avail, row)
			}
		}
		avail = sc.avail
	}

	m := len(avail)

	// Prefix full-match counts: fm[i] counts rows in avail[:i] holding the
	// complete target (QI and sensitive components). A window [lo, hi)
	// preserves fm[hi] − fm[lo] occurrences. For targets without sensitive
	// components every pool row matches and preserved == window size.
	if cap(sc.fm) < m+1 {
		sc.fm = make([]int, m+1)
	}
	fm := sc.fm[:m+1]
	fm[0] = 0
	for i, row := range avail {
		fm[i+1] = fm[i]
		if e.b.Matches(e.rel.Row(row)) {
			fm[i+1]++
		}
	}
	mixed := fm[m] < m
	sc.mixed = mixed
	preserved := func(lo, hi int) int { return fm[hi] - fm[lo] }

	minSize := e.b.Lower
	if minSize < e.opts.K {
		minSize = e.opts.K
	}
	maxSize := e.b.Upper
	if mixed {
		// Mixed targets dilute occurrences with non-matching pool rows, so
		// windows may exceed the upper bound in *size* while staying within
		// it in preserved occurrences.
		maxSize = e.b.Upper + e.b.Upper + e.opts.K
	}
	if maxSize > m {
		maxSize = m
	}
	if minSize > maxSize || fm[m] < e.b.Lower {
		return avail, nil // only the empty clustering (if any) is possible
	}

	// Prefix change counts: chg[a][i] counts positions j in (0, i] where
	// avail[j] and avail[j-1] differ on QI attribute a. A window [lo, hi)
	// is uniform on a iff chg[a][hi-1] == chg[a][lo]. This makes window
	// suppression costs O(|QI|) each after an O(m·|QI|) scan.
	if cap(sc.chg) < len(e.qi) {
		sc.chg = make([][]int32, len(e.qi))
	}
	chg := sc.chg[:len(e.qi)]
	for ai, a := range e.qi {
		col := chg[ai]
		if cap(col) < m {
			col = make([]int32, m)
		}
		col = col[:m]
		if m > 0 {
			col[0] = 0
		}
		for i := 1; i < m; i++ {
			col[i] = col[i-1]
			if e.rel.Code(avail[i], a) != e.rel.Code(avail[i-1], a) {
				col[i]++
			}
		}
		chg[ai] = col
	}
	sc.chg = chg[:len(e.qi)]
	// cost of window [lo, hi): per non-uniform QI attribute the whole
	// cluster loses that column.
	cost := func(lo, hi int) int {
		size := hi - lo
		c := 0
		for ai := range e.qi {
			if chg[ai][hi-1] != chg[ai][lo] {
				c += size
			}
		}
		return c
	}

	rawBudget := e.opts.MaxCandidates * 4
	// At most rawBudget single windows, MaxCandidates anchors and
	// MaxCandidates pairs: reserve them all at once.
	cands = slices.Grow(sc.cands[:0], rawBudget+2*e.opts.MaxCandidates)
	defer func() { sc.cands = cands[:0] }()

	// Single-cluster windows, smallest (most minimal) sizes first.
	inRange := func(lo, hi int) bool {
		p := preserved(lo, hi)
		return p >= e.b.Lower && p <= e.b.Upper
	}
	sc.sizes = windowSizes(sc.sizes, minSize, maxSize, e.opts.MaxWindowSizes)
	sizes := sc.sizes
	for _, s := range sizes {
		if canceled() {
			return avail, nil
		}
		nWindows := m - s + 1
		if nWindows <= 0 {
			continue
		}
		perSize := rawBudget / len(sizes)
		if perSize < 1 {
			perSize = 1
		}
		stride := 1
		if nWindows > perSize {
			stride = nWindows / perSize
		}
		for lo := 0; lo+s <= m; lo += stride {
			if !inRange(lo, lo+s) {
				continue
			}
			cands = append(cands, scored{lo1: lo, hi1: lo + s, cost: cost(lo, lo+s)})
			if len(cands) >= rawBudget {
				break
			}
		}
		if len(cands) >= rawBudget {
			break
		}
	}

	// Mixed targets: stride sampling can skip past the sparse full-match
	// rows, so additionally anchor windows of the minimal size on each
	// matching row (capped by the budget).
	if mixed && maxSize >= minSize {
		budget := e.opts.MaxCandidates
		for i := 0; i < m && budget > 0; i++ {
			if fm[i+1] == fm[i] {
				continue
			}
			lo := i - minSize/2
			if lo+minSize > m {
				lo = m - minSize
			}
			if lo < 0 {
				lo = 0
			}
			if inRange(lo, lo+minSize) {
				cands = append(cands, scored{lo1: lo, hi1: lo + minSize, cost: cost(lo, lo+minSize)})
				budget--
			}
		}
	}

	// Pairwise compositions: two disjoint windows of size k (the minimal
	// legal cluster) or larger whose total lands within [λl, λr]. These
	// matter when splitting one large cluster into two tighter ones reduces
	// suppression and give the search more options under conflicts.
	if maxSize >= 2*e.opts.K && m >= 2*e.opts.K {
		base := e.baseWindows(sc, m, cost)
		budget := e.opts.MaxCandidates
	pairing:
		for i := 0; i < len(base); i++ {
			if canceled() {
				break pairing
			}
			for j := i + 1; j < len(base); j++ {
				wi, wj := base[i], base[j]
				if wi.hi1 > wj.lo1 && wj.hi1 > wi.lo1 {
					continue // overlapping ranges
				}
				total := preserved(wi.lo1, wi.hi1) + preserved(wj.lo1, wj.hi1)
				if total < e.b.Lower || total > e.b.Upper {
					continue
				}
				cands = append(cands, scored{
					lo1: wi.lo1, hi1: wi.hi1,
					lo2: wj.lo1, hi2: wj.hi1,
					cost: wi.cost + wj.cost,
				})
				budget--
				if budget == 0 {
					break pairing
				}
			}
		}
	}
	return avail, cands
}

// baseWindows gathers the cheapest windows of exactly size K for pairwise
// composition, in the scratch's reusable buffer.
func (e *Enumerator) baseWindows(sc *Scratch, m int, cost func(lo, hi int) int) []scoredWindow {
	k := e.opts.K
	nWindows := m - k + 1
	if nWindows <= 0 {
		return nil
	}
	budget := e.opts.MaxCandidates
	stride := 1
	if nWindows > budget*2 {
		stride = nWindows / (budget * 2)
	}
	ws := slices.Grow(sc.base[:0], (nWindows+stride-1)/stride)
	for lo := 0; lo+k <= m; lo += stride {
		ws = append(ws, scoredWindow{lo1: lo, hi1: lo + k, cost: cost(lo, lo+k)})
	}
	sc.base = ws
	// Window starts are distinct, so the order is total.
	slices.SortFunc(ws, func(x, y scoredWindow) int {
		if x.cost != y.cost {
			return cmp.Compare(x.cost, y.cost)
		}
		return cmp.Compare(x.lo1, y.lo1)
	})
	if len(ws) > budget {
		ws = ws[:budget]
	}
	return ws
}

// materialize fills c with the window of avail starting at lo (len(c) rows)
// and returns it sorted by row index.
func materialize(c, avail []int, lo int) []int {
	copy(c, avail[lo:lo+len(c)])
	slices.Sort(c)
	return c
}

// windowSizes picks the cluster sizes to explore, appended to dst[:0]: all
// sizes from min to max if few, otherwise dense near the minimum (minimal
// clusterings first) plus a spread up to the maximum.
func windowSizes(dst []int, minSize, maxSize, budget int) []int {
	sizes := slices.Grow(dst[:0], min(maxSize-minSize+1, budget))
	if maxSize-minSize+1 <= budget {
		for s := minSize; s <= maxSize; s++ {
			sizes = append(sizes, s)
		}
		return sizes
	}
	dense := budget / 2
	for s := minSize; s < minSize+dense; s++ {
		sizes = append(sizes, s)
	}
	rest := budget - dense
	span := maxSize - (minSize + dense)
	for i := 1; i <= rest; i++ {
		sizes = append(sizes, minSize+dense+span*i/rest)
	}
	return sizes
}

// Candidates enumerates candidates for b over rel with all target rows
// available. It is shorthand for
// NewEnumerator(rel, b, opts).Candidates(nil, nil, nil).
func Candidates(rel *relation.Relation, b *constraint.Bound, opts Options) []Clustering {
	return NewEnumerator(rel, b, opts).Candidates(nil, nil, nil)
}
