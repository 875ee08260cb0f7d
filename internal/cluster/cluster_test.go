package cluster

import (
	"strconv"
	"testing"

	"diva/internal/constraint"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/rowset"
	"diva/internal/testutil"
)

func smallRelation(t testing.TB) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema(
		relation.Attribute{Name: "GEN", Role: relation.QI},
		relation.Attribute{Name: "ETH", Role: relation.QI},
		relation.Attribute{Name: "CTY", Role: relation.QI},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	)
	rel := relation.New(schema)
	rows := [][]string{
		{"Male", "Caucasian", "Calgary", "Flu"},
		{"Male", "African", "Winnipeg", "Flu"},
		{"Male", "African", "Vancouver", "Cold"},
		{"Female", "Asian", "Vancouver", "Flu"},
		{"Female", "Asian", "Winnipeg", "Cold"},
		{"Female", "Asian", "Vancouver", "Flu"},
		{"Male", "Asian", "Vancouver", "Cold"},
		{"Female", "Asian", "Calgary", "Flu"},
	}
	for _, r := range rows {
		rel.MustAppendValues(r...)
	}
	return rel
}

func mustBind(t testing.TB, rel *relation.Relation, c constraint.Constraint) *constraint.Bound {
	t.Helper()
	b, err := c.Bound(rel)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkSatisfies verifies the Clusterings contract: clusters drawn from Iσ,
// each of size ≥ k, pairwise disjoint, total within [λl, λr].
func checkSatisfies(t *testing.T, rel *relation.Relation, b *constraint.Bound, s Clustering, k int) {
	t.Helper()
	seen := make(map[int]bool)
	total := 0
	for _, c := range s {
		if len(c) < k {
			t.Fatalf("cluster %v smaller than k=%d", c, k)
		}
		for _, row := range c {
			if seen[row] {
				t.Fatalf("row %d in two clusters of one clustering", row)
			}
			seen[row] = true
			if !b.Matches(rel.Row(row)) {
				t.Fatalf("row %d not in Iσ of %s", row, b)
			}
		}
		total += len(c)
	}
	if total != 0 || b.Lower == 0 {
		if total < b.Lower || total > b.Upper {
			if !(total == 0 && b.Lower == 0) {
				t.Fatalf("clustering preserves %d occurrences outside [%d, %d]", total, b.Lower, b.Upper)
			}
		}
	}
}

func TestCandidatesPaperExample(t *testing.T) {
	rel := smallRelation(t)
	// ETH[Asian] has 5 target rows (3,4,5,6,7); bounds [2,5] with k=2.
	b := mustBind(t, rel, constraint.New("ETH", "Asian", 2, 5))
	cands := Candidates(rel, b, Options{K: 2})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, s := range cands {
		checkSatisfies(t, rel, b, s, 2)
	}
	// Minimality ordering: the first candidate must be among the cheapest;
	// a zero-cost pair exists (rows 3 and 5 agree on all QI attributes).
	first := cands[0]
	if first.Tuples() != 2 {
		t.Fatalf("first candidate has %d tuples, want a minimal pair (candidates: %v)", first.Tuples(), cands[:3])
	}
}

func TestCandidatesEmptyClusteringWhenLowerZero(t *testing.T) {
	rel := smallRelation(t)
	b := mustBind(t, rel, constraint.New("ETH", "Asian", 0, 5))
	cands := Candidates(rel, b, Options{K: 2})
	if len(cands) == 0 || len(cands[0]) != 0 {
		t.Fatal("empty clustering missing or not first")
	}
}

func TestCandidatesInfeasible(t *testing.T) {
	rel := smallRelation(t)
	// Only 2 African rows; demanding 3 preserved is impossible.
	b := mustBind(t, rel, constraint.New("ETH", "African", 3, 5))
	if cands := Candidates(rel, b, Options{K: 2}); len(cands) != 0 {
		t.Fatalf("infeasible constraint produced %d candidates", len(cands))
	}
	// k larger than the target set.
	b2 := mustBind(t, rel, constraint.New("ETH", "African", 1, 2))
	if cands := Candidates(rel, b2, Options{K: 3}); len(cands) != 0 {
		t.Fatalf("k > |Iσ| produced %d candidates", len(cands))
	}
}

func TestCandidatesUnseenValue(t *testing.T) {
	rel := smallRelation(t)
	b := mustBind(t, rel, constraint.New("ETH", "Martian", 1, 5))
	if cands := Candidates(rel, b, Options{K: 2}); len(cands) != 0 {
		t.Fatal("unseen value produced candidates")
	}
	b0 := mustBind(t, rel, constraint.New("ETH", "Martian", 0, 5))
	cands := Candidates(rel, b0, Options{K: 2})
	if len(cands) != 1 || len(cands[0]) != 0 {
		t.Fatal("unseen value with zero lower bound must yield exactly the empty clustering")
	}
}

func TestCandidatesExcludeUsedRows(t *testing.T) {
	rel := smallRelation(t)
	b := mustBind(t, rel, constraint.New("ETH", "Asian", 2, 5))
	e := NewEnumerator(rel, b, Options{K: 2})
	used := rowset.FromSlice(rel.Len(), []int{3, 5, 7}) // three of five Asian rows
	cands := e.Candidates(nil, used, nil)
	if len(cands) == 0 {
		t.Fatal("no candidates on remaining rows")
	}
	for _, s := range cands {
		for _, c := range s {
			for _, row := range c {
				if used.Contains(row) {
					t.Fatalf("candidate uses excluded row %d", row)
				}
			}
		}
	}
	// Only rows 4 and 6 remain: the sole candidate is {4, 6}.
	if len(cands) != 1 || len(cands[0]) != 1 || len(cands[0][0]) != 2 {
		t.Fatalf("cands = %v, want exactly {{4,6}}", cands)
	}
}

func TestCandidatesCostOrdering(t *testing.T) {
	rel := smallRelation(t)
	b := mustBind(t, rel, constraint.New("ETH", "Asian", 2, 5))
	cands := Candidates(rel, b, Options{K: 2})
	cost := func(s Clustering) int {
		qi := rel.Schema().QIIndexes()
		total := 0
		for _, c := range s {
			for _, a := range qi {
				uniform := true
				for _, row := range c[1:] {
					if rel.Code(row, a) != rel.Code(c[0], a) {
						uniform = false
						break
					}
				}
				if !uniform {
					total += len(c)
				}
			}
		}
		return total
	}
	prev := -1
	for _, s := range cands {
		c := cost(s)
		if prev >= 0 && c < prev {
			t.Fatalf("candidates not cost-ordered: %d after %d", c, prev)
		}
		prev = c
	}
}

func TestMaxCandidatesCap(t *testing.T) {
	rel := smallRelation(t)
	b := mustBind(t, rel, constraint.New("ETH", "Asian", 2, 5))
	cands := Candidates(rel, b, Options{K: 2, MaxCandidates: 3})
	if len(cands) > 3 {
		t.Fatalf("cap ignored: %d candidates", len(cands))
	}
}

func TestClusteringHelpers(t *testing.T) {
	s := Clustering{{5, 9}, {1, 2, 3}}
	if s.Tuples() != 5 {
		t.Fatalf("Tuples = %d", s.Tuples())
	}
	rows := s.Rows()
	want := []int{1, 2, 3, 5, 9}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("Rows = %v", rows)
		}
	}
	if Fingerprint([]int{1, 2}) == Fingerprint([]int{1, 3}) {
		t.Fatal("distinct clusters share a fingerprint")
	}
	if Fingerprint([]int{1, 2}) != Fingerprint([]int{1, 2}) {
		t.Fatal("equal clusters have different fingerprints")
	}
	set := s.RowSet(10)
	if set.Len() != 5 || !set.Contains(9) || set.Contains(0) {
		t.Fatalf("RowSet = %v", set.Slice())
	}
}

func TestWindowSizes(t *testing.T) {
	all := windowSizes(nil, 2, 5, 8)
	if len(all) != 4 || all[0] != 2 || all[3] != 5 {
		t.Fatalf("windowSizes(2,5,8) = %v", all)
	}
	capped := windowSizes(nil, 10, 1000, 8)
	if len(capped) != 8 {
		t.Fatalf("windowSizes(10,1000,8) = %v", capped)
	}
	if capped[0] != 10 {
		t.Fatalf("first size must be the minimum: %v", capped)
	}
	for _, s := range capped {
		if s < 10 || s > 1000 {
			t.Fatalf("size %d out of range", s)
		}
	}
}

// TestCandidatesMixedTarget: a target spanning a QI and a sensitive
// attribute draws clusters from the QI-part pool; preserved occurrences
// count full-target rows only.
func TestCandidatesMixedTarget(t *testing.T) {
	rel := smallRelation(t)
	// (ETH[Asian], DIAG[Cold]): Asian pool is rows {3,4,5,6,7}; Cold
	// matches within it are rows {4, 6}. Preserve exactly one.
	b := mustBind(t, rel, constraint.NewMulti([]string{"ETH", "DIAG"}, []string{"Asian", "Cold"}, 1, 1))
	cands := Candidates(rel, b, Options{K: 2})
	if len(cands) == 0 {
		t.Fatal("no candidates for a satisfiable mixed target")
	}
	for _, s := range cands {
		preserved := 0
		for _, c := range s {
			if len(c) < 2 {
				t.Fatalf("cluster %v below k", c)
			}
			for _, row := range c {
				eth, _ := rel.Schema().Index("ETH")
				if rel.Value(row, eth) != "Asian" {
					t.Fatalf("cluster row %d outside the QI-part pool", row)
				}
				if b.Matches(rel.Row(row)) {
					preserved++
				}
			}
		}
		if preserved != 1 {
			t.Fatalf("candidate %v preserves %d occurrences, want exactly 1", s, preserved)
		}
	}
}

// TestCandidatesMixedTargetInfeasible: demanding more mixed occurrences
// than exist yields nothing.
func TestCandidatesMixedTargetInfeasible(t *testing.T) {
	rel := smallRelation(t)
	b := mustBind(t, rel, constraint.NewMulti([]string{"ETH", "DIAG"}, []string{"Asian", "Cold"}, 3, 5))
	if cands := Candidates(rel, b, Options{K: 2}); len(cands) != 0 {
		t.Fatalf("infeasible mixed target produced %d candidates", len(cands))
	}
}

// Property: on random relations and random feasible constraints, every
// candidate satisfies the Clusterings contract.
func TestCandidatesContractProperty(t *testing.T) {
	rng := testutil.Rng(t)
	schema := relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
		relation.Attribute{Name: "C", Role: relation.Sensitive},
	)
	for trial := 0; trial < 80; trial++ {
		rel := relation.New(schema)
		n := 5 + rng.IntN(80)
		for i := 0; i < n; i++ {
			rel.MustAppendValues(
				"a"+strconv.Itoa(rng.IntN(4)),
				"b"+strconv.Itoa(rng.IntN(6)),
				"c"+strconv.Itoa(rng.IntN(3)),
			)
		}
		k := 1 + rng.IntN(4)
		value := "a" + strconv.Itoa(rng.IntN(4))
		freq := 0
		aIdx, _ := schema.Index("A")
		if code, ok := rel.Dict(aIdx).Lookup(value); ok {
			freq = rel.Count(aIdx, code)
		}
		lo := rng.IntN(freq + 2)
		hi := lo + rng.IntN(freq+2)
		c := constraint.New("A", value, lo, hi)
		b, err := c.Bound(rel)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range Candidates(rel, b, Options{K: k}) {
			checkSatisfies(t, rel, b, s, k)
		}
	}
}

// Property: Count returns exactly len(Candidates) — the contract MinChoice
// node selection relies on to pick the same node from counts alone — on
// random relations, random used sets, plain and mixed (QI + sensitive)
// targets, zero lower bounds, small MaxCandidates caps and a distinct
// l-diversity criterion. One Scratch serves every call, as in the search.
func TestCountMatchesCandidatesProperty(t *testing.T) {
	rng := testutil.Rng(t)
	schema := relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
		relation.Attribute{Name: "C", Role: relation.Sensitive},
	)
	var sc Scratch
	var seen struct{ mixed, lowerZero, capped, criterion, used int }
	for trial := 0; trial < 400; trial++ {
		rel := relation.New(schema)
		n := 5 + rng.IntN(150)
		for i := 0; i < n; i++ {
			rel.MustAppendValues(
				"a"+strconv.Itoa(rng.IntN(3)),
				"b"+strconv.Itoa(rng.IntN(5)),
				"c"+strconv.Itoa(rng.IntN(3)),
			)
		}
		a := "a" + strconv.Itoa(rng.IntN(3))
		var c constraint.Constraint
		mixed := rng.IntN(2) == 0
		if mixed {
			c = constraint.NewMulti([]string{"A", "C"}, []string{a, "c" + strconv.Itoa(rng.IntN(3))}, 0, 0)
			seen.mixed++
		} else {
			c = constraint.New("A", a, 0, 0)
		}
		freq := mustBind(t, rel, c).CountIn(rel)
		c.Lower = rng.IntN(freq/2 + 2)
		if rng.IntN(4) == 0 {
			c.Lower = 0
		}
		c.Upper = c.Lower + rng.IntN(freq+2)
		b := mustBind(t, rel, c)
		opts := Options{K: 1 + rng.IntN(4)}
		if rng.IntN(3) == 0 {
			opts.MaxCandidates = 1 + rng.IntN(6)
		}
		if rng.IntN(3) == 0 {
			opts.Criterion = privacy.DistinctLDiversity{L: 2}
			seen.criterion++
		}
		var used *rowset.Set
		if rng.IntN(3) != 0 {
			used = rowset.New(rel.Len())
			for row := 0; row < rel.Len(); row++ {
				if rng.IntN(4) == 0 {
					used.Add(row)
				}
			}
			seen.used++
		}
		e := NewEnumerator(rel, b, opts)
		cands := e.Candidates(nil, used, &sc)
		if got := e.Count(nil, used, &sc); got != len(cands) {
			t.Fatalf("trial %d (%s, %+v): Count = %d, len(Candidates) = %d", trial, b, opts, got, len(cands))
		}
		if got := e.Count(nil, used, nil); got != len(cands) {
			t.Fatalf("trial %d: Count with a fresh scratch = %d, want %d", trial, got, len(cands))
		}
		if c.Lower == 0 && len(cands) > 0 {
			seen.lowerZero++
		}
		if opts.MaxCandidates > 0 && len(cands) >= opts.MaxCandidates {
			seen.capped++
		}
		for _, s := range cands {
			if !mixed {
				checkSatisfies(t, rel, b, s, opts.K)
			}
			for _, cl := range s {
				if opts.Criterion != nil && !opts.Criterion.Holds(rel, cl) {
					t.Fatalf("trial %d: cluster %v fails %s", trial, cl, opts.Criterion.Name())
				}
				if used != nil && used.IntersectsAny(cl) {
					t.Fatalf("trial %d: cluster %v uses a used row", trial, cl)
				}
			}
		}
	}
	// The generator must actually reach every case the property is about.
	if seen.mixed == 0 || seen.lowerZero == 0 || seen.capped == 0 || seen.criterion == 0 || seen.used == 0 {
		t.Fatalf("property cases not all exercised: %+v", seen)
	}
}
