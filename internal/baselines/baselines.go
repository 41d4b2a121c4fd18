// Package baselines reimplements the constrained-decoding approaches the
// paper compares against (§4.1, §5):
//
//   - llama.cpp grammars: a PDA interpreter that deep-copies stack vectors
//     on every nondeterministic branch and scans the full vocabulary at
//     every step (LlamaCpp).
//   - Outlines: regex-to-DFA token indexing with per-state caching for
//     schema tasks (RegexFSM); for CFGs, a full-vocabulary interpreted scan
//     (the lexer+parser path, approximated with the shared-prefix PDA scan).
//   - lm-format-enforcer: per-step token-trie × DFA walk with no
//     precomputation; regex-representable tasks only (CharWalk).
//
// Every comparator implements the runtime grammar-session contract
// (serve.Grammar / serve.GrammarSession), the same one XGrammar's own
// serve.SessionPool implements, so the experiment harness and the
// differential oracle tests swap them freely.
package baselines

import (
	"fmt"

	"xgrammar/internal/bitset"
	"xgrammar/internal/grammar"
	"xgrammar/internal/tokenizer"
)

// ErrUnsupported is returned by backends that cannot handle a grammar class
// (e.g. recursion in regex-based engines).
type ErrUnsupported struct {
	Backend string
	Reason  string
}

func (e *ErrUnsupported) Error() string {
	return fmt.Sprintf("%s: unsupported grammar: %s", e.Backend, e.Reason)
}

// finishMask applies the shared stop/special token policy: special tokens
// are cleared, stop tokens set iff the grammar can complete.
func finishMask(mask *bitset.Bitset, tok *tokenizer.Tokenizer, canTerm bool) {
	for _, id := range tok.SpecialIDs() {
		mask.Clear(int(id))
	}
	if canTerm {
		for _, id := range tok.StopIDs() {
			mask.Set(int(id))
		}
	}
}

// IsRecursive reports whether the grammar is recursive (not representable by
// a finite automaton via inlining).
func IsRecursive(g *grammar.Grammar) bool {
	n := len(g.Rules)
	// Build the rule-reference graph and look for any cycle.
	adj := make([][]int, n)
	for i, r := range g.Rules {
		seen := map[int]bool{}
		walkAllRefs(r.Body, func(idx int) {
			if !seen[idx] {
				seen[idx] = true
				adj[i] = append(adj[i], idx)
			}
		})
	}
	color := make([]int, n)
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = 1
		for _, v := range adj[u] {
			if color[v] == 1 {
				return true
			}
			if color[v] == 0 && dfs(v) {
				return true
			}
		}
		color[u] = 2
		return false
	}
	for i := 0; i < n; i++ {
		if color[i] == 0 && dfs(i) {
			return true
		}
	}
	return false
}

func walkAllRefs(e grammar.Expr, f func(int)) {
	switch v := e.(type) {
	case *grammar.Seq:
		for _, it := range v.Items {
			walkAllRefs(it, f)
		}
	case *grammar.Choice:
		for _, a := range v.Alts {
			walkAllRefs(a, f)
		}
	case *grammar.Repeat:
		walkAllRefs(v.Sub, f)
	case *grammar.RuleRef:
		f(v.Index)
	}
}
