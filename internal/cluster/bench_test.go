package cluster

import (
	"fmt"
	"testing"

	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/rowset"
)

// zipfTarget binds the benchmark constraint over a Zipfian PopSyn sample:
// the most frequent ethnicity, the largest target set.
func zipfTarget(b *testing.B, rows int) (*Enumerator, string) {
	b.Helper()
	rel := dataset.PopSyn(dataset.Zipfian).Generate(rows, 3)
	eth, _ := rel.Schema().Index("ETH")
	var best uint32
	bestN := 0
	for code, n := range rel.ValueFrequencies(eth) {
		if n > bestN {
			best, bestN = code, n
		}
	}
	value := rel.Dict(eth).Value(best)
	bound, err := constraint.New("ETH", value, bestN/10, bestN).Bound(rel)
	if err != nil {
		b.Fatal(err)
	}
	return NewEnumerator(rel, bound, Options{K: 10}), fmt.Sprintf("rows=%d/target=%d", rows, bestN)
}

func BenchmarkCandidates(b *testing.B) {
	for _, rows := range []int{2000, 20000} {
		e, name := zipfTarget(b, rows)
		b.Run(name, func(b *testing.B) {
			var sc Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(e.Candidates(nil, nil, &sc)) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}

// BenchmarkCount is BenchmarkCandidates' count-only probe (MinChoice node
// selection): the same scoring pass without sorting or materializing.
func BenchmarkCount(b *testing.B) {
	for _, rows := range []int{2000, 20000} {
		e, name := zipfTarget(b, rows)
		b.Run(name, func(b *testing.B) {
			var sc Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if e.Count(nil, nil, &sc) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}

func BenchmarkCandidatesWithExclusions(b *testing.B) {
	rel := dataset.PopSyn(dataset.Uniform).Generate(20000, 3)
	gen, _ := rel.Schema().Index("GEN")
	code, _ := rel.Dict(gen).Lookup("Male")
	n := rel.Count(gen, code)
	bound, err := constraint.New("GEN", "Male", n/10, n).Bound(rel)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEnumerator(rel, bound, Options{K: 10})
	used := rowset.New(rel.Len()) // a third of rows taken
	for row := 0; row < rel.Len(); row += 3 {
		used.Add(row)
	}
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer() // exclude the relation and used-set set-up
	for i := 0; i < b.N; i++ {
		if len(e.Candidates(nil, used, &sc)) == 0 {
			b.Fatal("no candidates")
		}
	}
}
