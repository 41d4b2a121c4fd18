package baselines

import (
	"fmt"

	"xgrammar/internal/bitset"
	"xgrammar/internal/fsa"
	"xgrammar/internal/pda"
	"xgrammar/internal/serve"
	"xgrammar/internal/tokenizer"
)

// LlamaCpp is a llama.cpp-grammar-style engine: the PDA is interpreted with
// plain stack vectors that are deep-copied on every nondeterministic branch,
// and every decoding step checks the entire vocabulary token by token. No
// caching, no prefix sharing, no persistent stacks — this is the "PDA
// Baseline" row of Table 3.
type LlamaCpp struct {
	p   *pda.PDA
	tok *tokenizer.Tokenizer
}

// NewLlamaCpp compiles g without structure optimizations (faithful to the
// baseline) unless optimized is true (the "+ node merging" ablation row).
func NewLlamaCpp(p *pda.PDA, tok *tokenizer.Tokenizer) *LlamaCpp {
	return &LlamaCpp{p: p, tok: tok}
}

// Name implements serve.Grammar.
func (l *LlamaCpp) Name() string { return "llama.cpp-grammar" }

// vecState is a plain stack: elements are return nodes, the last element is
// the current node. Copied wholesale on every branch, as llama.cpp does.
type vecState []int32

// NewSession implements serve.Grammar.
func (l *LlamaCpp) NewSession() serve.GrammarSession {
	s := &llamaSession{l: l}
	s.states = s.closure([]vecState{{l.p.RuleStart[l.p.Root]}})
	return s
}

type llamaSession struct {
	l          *LlamaCpp
	states     []vecState
	terminated bool
}

func eqVec(a, b vecState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsVec(set []vecState, v vecState) bool {
	for _, x := range set {
		if eqVec(x, v) {
			return true
		}
	}
	return false
}

// closure expands pushes and pops, copying stacks eagerly.
func (s *llamaSession) closure(set []vecState) []vecState {
	p := s.l.p
	for i := 0; i < len(set); i++ {
		st := set[i]
		cur := st[len(st)-1]
		node := &p.Nodes[cur]
		if node.Final && len(st) > 1 {
			// Pop: copy without the top element.
			ns := make(vecState, len(st)-1)
			copy(ns, st[:len(st)-1])
			if !containsVec(set, ns) {
				set = append(set, ns)
			}
		}
		for _, e := range node.Edges {
			if e.Kind != fsa.EdgeRule {
				continue
			}
			ns := make(vecState, len(st)+1)
			copy(ns, st[:len(st)-1])
			ns[len(st)-1] = e.To
			ns[len(st)] = p.RuleStart[e.Rule]
			if !containsVec(set, ns) {
				set = append(set, ns)
			}
		}
	}
	return set
}

func (s *llamaSession) stepByte(set []vecState, b byte) []vecState {
	p := s.l.p
	var out []vecState
	for _, st := range set {
		cur := st[len(st)-1]
		for _, e := range p.Nodes[cur].Edges {
			if e.Kind == fsa.EdgeByte && b >= e.Lo && b <= e.Hi {
				ns := make(vecState, len(st))
				copy(ns, st)
				ns[len(ns)-1] = e.To
				if !containsVec(out, ns) {
					out = append(out, ns)
				}
			}
		}
	}
	return out
}

// matchToken reports whether the token's bytes are consumable from the
// current states. Fresh copies every time — the llama.cpp cost model.
func (s *llamaSession) matchToken(tb []byte) bool {
	set := make([]vecState, len(s.states))
	for i, st := range s.states {
		c := make(vecState, len(st))
		copy(c, st)
		set[i] = c
	}
	for _, b := range tb {
		set = s.closure(set)
		set = s.stepByte(set, b)
		if len(set) == 0 {
			return false
		}
	}
	return true
}

// FillMask implements serve.GrammarSession by scanning the whole vocabulary.
func (s *llamaSession) FillMask(mask *bitset.Bitset) {
	mask.ClearAll()
	if s.terminated {
		return
	}
	vocab := s.l.tok.VocabSize()
	for id := int32(0); id < int32(vocab); id++ {
		if s.l.tok.IsSpecial(id) {
			continue
		}
		if s.matchToken(s.l.tok.TokenBytes(id)) {
			mask.Set(int(id))
		}
	}
	finishMask(mask, s.l.tok, s.CanTerminate())
}

// CanTerminate implements serve.GrammarSession.
func (s *llamaSession) CanTerminate() bool {
	for _, st := range s.states {
		if len(st) == 1 && s.l.p.Nodes[st[0]].Final {
			return true
		}
	}
	return false
}

// IsTerminated implements serve.GrammarSession.
func (s *llamaSession) IsTerminated() bool { return s.terminated }

// Accept implements serve.GrammarSession.
func (s *llamaSession) Accept(id int32) error {
	if s.terminated {
		return fmt.Errorf("llama.cpp-grammar: already terminated")
	}
	if id == tokenizer.EosID {
		if !s.CanTerminate() {
			return fmt.Errorf("llama.cpp-grammar: premature EOS")
		}
		s.terminated = true
		return nil
	}
	set := s.states
	for _, b := range s.l.tok.TokenBytes(id) {
		set = s.closure(set)
		set = s.stepByte(set, b)
		if len(set) == 0 {
			return fmt.Errorf("llama.cpp-grammar: token %d violates grammar", id)
		}
	}
	s.states = s.closure(set)
	return nil
}
