package maskcache

import (
	"math/rand"
	"slices"
	"testing"

	"xgrammar/internal/bitset"
	"xgrammar/internal/matcher"
	"xgrammar/internal/pda"
	"xgrammar/internal/tokenizer"
)

// fabricateCache builds a Cache over synthetic per-node accept sets, skipping
// grammar compilation entirely: each node's context-independent accept set is
// given directly, routed through the real makeNodeMask selection and the real
// canonical materialization, so the fused merge runs over genuine
// AcceptList/RejectList/WordMask nodes (with and without canonical masks).
func fabricateCache(tok *tokenizer.Tokenizer, acceptSets [][]int32, canonicalBudget int64) *Cache {
	nodes := make([]pda.Node, len(acceptSets))
	for i := range nodes {
		nodes[i] = pda.Node{Edges: []pda.Edge{{}}}
	}
	c := &Cache{
		P:     &pda.PDA{Nodes: nodes},
		Tok:   tok,
		Vocab: tok.VocabSize(),
		Nodes: make([]NodeMask, len(acceptSets)),
	}
	c.buildAllWords()
	// SortedRegularIDs is byte-lexicographic; DiffSorted needs id order.
	byID := append([]int32(nil), tok.SortedRegularIDs()...)
	slices.Sort(byID)
	for i, acc := range acceptSets {
		accByID := append([]int32(nil), acc...)
		slices.Sort(accByID)
		rej := bitset.DiffSorted(nil, byID, accByID)
		c.Nodes[i] = makeNodeMask(accByID, rej, nil, c.Vocab)
	}
	c.materializeCanonical(canonicalBudget)
	return c
}

// FuzzFillMerge drives the fused word-level merge over fabricated node sets
// of every density and cross-checks the mask (and its fused popcount) against
// the naive reference: the union of the per-node accept sets. Context
// resolution is exercised by the full-scan grammar tests; this fuzz isolates
// the representation dispatch and the running-count invariant.
func FuzzFillMerge(f *testing.F) {
	f.Add(int64(1), uint8(1), false)
	f.Add(int64(2), uint8(3), true)
	f.Add(int64(99), uint8(4), false)
	tok := tokenizer.BuildDefault(300)
	sorted := tok.SortedRegularIDs()

	f.Fuzz(func(t *testing.T, seed int64, numNodes uint8, canonical bool) {
		n := int(numNodes%4) + 1
		rng := rand.New(rand.NewSource(seed))
		sets := make([][]int32, n)
		densities := []float64{0.01, 0.3, 0.6, 0.99}
		for i := range sets {
			p := densities[rng.Intn(len(densities))]
			for _, id := range sorted {
				if rng.Float64() < p {
					sets[i] = append(sets[i], id)
				}
			}
		}
		var budget int64 = -1
		if canonical {
			budget = DefaultCanonicalBudget
		}
		c := fabricateCache(tok, sets, budget)

		// Reference: union of the accept sets over the regular vocabulary.
		want := bitset.New(c.Vocab)
		for _, s := range sets {
			want.SetList(s)
		}

		// Duplicate states so the unique-node dedupe is exercised too.
		var states []matcher.State
		for i := 0; i < n; i++ {
			states = append(states, matcher.State{Node: int32(i)})
			if rng.Intn(2) == 0 {
				states = append(states, matcher.State{Node: int32(i)})
			}
		}
		got := bitset.New(c.Vocab)
		fc := NewFillContext()
		st := c.FillMask(nil, states, got, false, fc)

		if !got.Equal(want) {
			t.Fatalf("fused merge mask differs from union reference (%d nodes, canonical=%v)", n, canonical)
		}
		if st.Accepted != want.Count() {
			t.Fatalf("fused Accepted = %d, reference popcount = %d", st.Accepted, want.Count())
		}
		if st.UniqueNodes != n {
			t.Fatalf("UniqueNodes = %d, want %d", st.UniqueNodes, n)
		}
	})
}

// TestFillFastPathSingleCanonical checks that a lone node with a canonical
// mask takes the memcpy fast path and that the result is still exact.
func TestFillFastPathSingleCanonical(t *testing.T) {
	tok := tokenizer.BuildDefault(300)
	sorted := tok.SortedRegularIDs()
	// Dense set -> RejectList with a materialized canonical mask.
	dense := append([]int32(nil), sorted[:len(sorted)-3]...)
	c := fabricateCache(tok, [][]int32{dense}, DefaultCanonicalBudget)
	if c.Nodes[0].Kind != RejectList || c.Nodes[0].canonical == nil {
		t.Fatalf("fabricated node: kind %v canonical=%v, want reject-list with canonical", c.Nodes[0].Kind, c.Nodes[0].canonical != nil)
	}

	got := bitset.New(c.Vocab)
	// Pre-dirty the mask: the fast path overwrites, it must not OR.
	got.SetAll()
	fc := NewFillContext()
	st := c.FillMask(nil, []matcher.State{{Node: 0}}, got, false, fc)
	if !st.FastPath {
		t.Fatal("single canonical node did not take the fast path")
	}
	want := bitset.New(c.Vocab)
	want.SetList(dense)
	if !got.Equal(want) || st.Accepted != len(dense) {
		t.Fatalf("fast path mask wrong: accepted %d, want %d", st.Accepted, len(dense))
	}

	// With canonicals disabled the same cache must produce the same mask via
	// the except-list path.
	c2 := fabricateCache(tok, [][]int32{dense}, -1)
	got2 := bitset.New(c.Vocab)
	st2 := c2.FillMask(nil, []matcher.State{{Node: 0}}, got2, false, fc)
	if st2.FastPath {
		t.Fatal("fast path taken without a canonical mask")
	}
	if !got2.Equal(want) || st2.Accepted != len(dense) {
		t.Fatal("except-list path disagrees with canonical fast path")
	}
}

// TestSortByBytesZeroAllocs pins the slices.SortFunc-based byte-rank sort at
// zero allocations per call.
func TestSortByBytesZeroAllocs(t *testing.T) {
	tok := tokenizer.BuildDefault(500)
	c := &Cache{Tok: tok, Vocab: tok.VocabSize()}
	ids := append([]int32(nil), tok.SortedRegularIDs()...)
	shuffled := append([]int32(nil), ids...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	allocs := testing.AllocsPerRun(50, func() {
		copy(ids, shuffled)
		c.sortByBytes(ids)
	})
	if allocs != 0 {
		t.Fatalf("sortByBytes allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkSortByBytes measures the hot ctx-ordering sort; the companion test
// above asserts it stays allocation-free.
func BenchmarkSortByBytes(b *testing.B) {
	tok := tokenizer.BuildDefault(2000)
	c := &Cache{Tok: tok, Vocab: tok.VocabSize()}
	ids := append([]int32(nil), tok.SortedRegularIDs()...)
	shuffled := append([]int32(nil), ids...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	c.sortByBytes(ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(ids, shuffled)
		c.sortByBytes(ids)
	}
}
