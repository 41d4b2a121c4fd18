package maskcache

import (
	"slices"

	"xgrammar/internal/bitset"
	"xgrammar/internal/matcher"
)

// FillContext holds reusable scratch buffers for mask generation; one per
// concurrent decoding sequence. Every buffer (including the prefix-sharing
// simulator for context-dependent tokens) is reused across steps, so
// steady-state mask generation performs no heap allocations.
type FillContext struct {
	nodes  []int32
	ctxIDs []int32
	ctxTmp []int32 // union scratch for the per-node ctx lists
	// Dense-merge scratch: reject-list nodes without a canonical mask, and
	// double-buffered except-list intersection.
	rejNodes   []int32
	excA, excB []int32
	excU       []int32
	sim        prefixSim
}

// FillStats describes one mask-generation step.
type FillStats struct {
	States      int
	UniqueNodes int
	CtxChecked  int
	CtxAccepted int
	// Accepted is the popcount of the finished mask, maintained by the fused
	// merge as it goes (no final re-scan).
	Accepted int
	// FastPath is true when the merge was skipped entirely and a canonical
	// precomputed mask was copied word-for-word.
	FastPath bool
}

// NewFillContext returns an empty scratch context; its buffers grow on
// first use.
func NewFillContext() *FillContext { return &FillContext{} }

// FillMask computes the complete token mask for the current (closed) state
// set. The context-independent phase is a fused word-level merge: the final
// mask is the union of each unique node's CI accept set, built with whole-word
// OR/AndNot/popcount ops — a node with a canonical precomputed mask
// contributes one OR pass (and a lone such node is a straight memcpy), sparse
// accept-lists contribute a counted SetList, and dense reject-lists are
// intersected and subtracted from the full-vocabulary identity in a single
// pass. Context-dependent tokens are then resolved by executing the PDA with
// the real stacks (prefix-shared, §3.3) and can only turn bits on: a token
// CI-accepted by any node is necessarily alive under the full state set, so
// no contribution is ever retracted. Special tokens never enter the identity
// mask, so they need no final clearing; stop tokens are set iff canTerminate.
//
//xg:hotpath
func (c *Cache) FillMask(exec *matcher.Exec, states []matcher.State, mask *bitset.Bitset, canTerminate bool, fc *FillContext) FillStats {
	st := FillStats{States: len(states)}
	// Unique stack-top nodes that can consume input.
	fc.nodes = fc.nodes[:0]
	for _, s := range states {
		if len(c.P.Nodes[s.Node].Edges) == 0 {
			continue
		}
		dup := false
		for _, n := range fc.nodes {
			if n == s.Node {
				dup = true
				break
			}
		}
		if !dup {
			fc.nodes = append(fc.nodes, s.Node)
		}
	}
	st.UniqueNodes = len(fc.nodes)

	// Context-independent phase. The running count invariant: word-level ops
	// over the whole mask return the absolute popcount (assign), list ops
	// return the newly-set delta (add) — correct under any interleaving
	// because the mask starts cleared.
	count := 0
	if len(fc.nodes) == 1 && c.Nodes[fc.nodes[0]].canonical != nil {
		count = mask.CopyWordsCount(c.Nodes[fc.nodes[0]].canonical)
		st.FastPath = true
	} else {
		mask.ClearAll()
		fc.rejNodes = fc.rejNodes[:0]
		for _, n := range fc.nodes {
			nm := &c.Nodes[n]
			switch {
			case nm.canonical != nil:
				count = mask.OrWordsCount(nm.canonical)
			case nm.Kind == AcceptList:
				count += mask.SetListCount(nm.Tokens)
			default:
				fc.rejNodes = append(fc.rejNodes, n)
			}
		}
		if len(fc.rejNodes) > 0 {
			// Union over dense nodes of (ALL \ E_i) = ALL \ ∩E_i where
			// E_i = Rejected_i ∪ Ctx_i: intersect the except-lists, then one
			// fused pass over the identity words.
			nm0 := &c.Nodes[fc.rejNodes[0]]
			a := bitset.UnionSorted(fc.excA[:0], nm0.Tokens, nm0.Ctx)
			b := fc.excB[:0]
			for _, n := range fc.rejNodes[1:] {
				nm := &c.Nodes[n]
				fc.excU = bitset.UnionSorted(fc.excU[:0], nm.Tokens, nm.Ctx)
				b = bitset.IntersectSorted(b[:0], a, fc.excU)
				a, b = b, a
			}
			count = mask.OrExceptList(c.allWords, a)
			fc.excA, fc.excB = a, b
		}
	}

	// Context-dependent phase: union the per-node ctx lists, then resolve
	// each token against the real stacks. Set-only — see the invariant above.
	fc.ctxIDs = fc.ctxIDs[:0]
	for _, n := range fc.nodes {
		fc.ctxTmp = append(fc.ctxTmp[:0], fc.ctxIDs...)
		fc.ctxIDs = bitset.UnionSorted(fc.ctxIDs[:0], fc.ctxTmp, c.Nodes[n].Ctx)
	}
	if len(fc.ctxIDs) > 0 {
		c.sortByBytes(fc.ctxIDs)
		sim := &fc.sim
		sim.init(exec, exec.CloneSetInto(exec.GetSet(), states))
		for _, id := range fc.ctxIDs {
			_, alive := sim.run(c.Tok.TokenBytes(id))
			st.CtxChecked++
			if alive {
				st.CtxAccepted++
				if !mask.Get(int(id)) {
					mask.Set(int(id))
					count++
				}
			}
		}
		sim.release()
	}

	// Stop tokens (special tokens are never set by the merge: the identity
	// mask, canonical masks, and all stored lists exclude them).
	if canTerminate {
		for _, id := range c.Tok.StopIDs() {
			if !mask.Get(int(id)) {
				mask.Set(int(id))
				count++
			}
		}
	}
	st.Accepted = count
	return st
}

// sortByBytes orders token ids by the lexicographic rank of their bytes, the
// order that maximizes prefix sharing during resolution. slices.SortFunc on
// the id slice with the tokenizer's shared rank table is allocation-free.
func (c *Cache) sortByBytes(ids []int32) {
	rank := c.Tok.ByteRanks()
	slices.SortFunc(ids, func(a, b int32) int { return int(rank[a]) - int(rank[b]) })
}
