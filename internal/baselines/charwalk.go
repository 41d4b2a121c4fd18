package baselines

import (
	"fmt"

	"xgrammar/internal/bitset"
	"xgrammar/internal/fsa"
	"xgrammar/internal/grammar"
	"xgrammar/internal/serve"
	"xgrammar/internal/tokenizer"
	"xgrammar/internal/trie"
)

// CharWalk is an lm-format-enforcer-style engine: regex-representable
// schemas only, and every decoding step performs a fresh character-level
// walk of the vocabulary trie against the DFA — no caching, so the per-step
// cost stays high (the Figure 9 lm-format-enforcer column).
type CharWalk struct {
	dfa  *fsa.DFA
	tok  *tokenizer.Tokenizer
	trie *trie.Trie
}

// NewCharWalk lowers a non-recursive grammar for trie-walking.
func NewCharWalk(g *grammar.Grammar, tok *tokenizer.Tokenizer) (*CharWalk, error) {
	d, err := FlattenToDFA(g, "lm-format-enforcer")
	if err != nil {
		return nil, err
	}
	tokens := make([][]byte, tok.VocabSize())
	for id := 0; id < tok.VocabSize(); id++ {
		if !tok.IsSpecial(int32(id)) {
			tokens[id] = tok.TokenBytes(int32(id))
		}
	}
	return &CharWalk{dfa: d, tok: tok, trie: trie.Build(tokens)}, nil
}

// Name implements serve.Grammar.
func (c *CharWalk) Name() string { return "lm-format-enforcer" }

// NewSession implements serve.Grammar.
func (c *CharWalk) NewSession() serve.GrammarSession {
	return &charWalkSession{c: c, cur: c.dfa.Start}
}

type charWalkSession struct {
	c          *CharWalk
	cur        int32
	terminated bool
}

func (s *charWalkSession) FillMask(mask *bitset.Bitset) {
	mask.ClearAll()
	if s.terminated {
		return
	}
	var walk func(tn int32, ds int32)
	walk = func(tn int32, ds int32) {
		s.c.trie.Children(tn, func(b byte, child int32) {
			nd := s.c.dfa.Next(ds, b)
			if nd < 0 {
				return
			}
			if id := s.c.trie.Token(child); id >= 0 && !s.c.tok.IsSpecial(id) {
				mask.Set(int(id))
			}
			walk(child, nd)
		})
	}
	walk(s.c.trie.Root(), s.cur)
	finishMask(mask, s.c.tok, s.CanTerminate())
}

func (s *charWalkSession) CanTerminate() bool {
	return !s.terminated && s.c.dfa.Accept[s.cur]
}

func (s *charWalkSession) IsTerminated() bool { return s.terminated }

func (s *charWalkSession) Accept(id int32) error {
	if s.terminated {
		return fmt.Errorf("lm-format-enforcer: already terminated")
	}
	if id == tokenizer.EosID {
		if !s.CanTerminate() {
			return fmt.Errorf("lm-format-enforcer: premature EOS")
		}
		s.terminated = true
		return nil
	}
	if s.c.tok.IsSpecial(id) {
		return fmt.Errorf("lm-format-enforcer: special token %d", id)
	}
	cur := s.cur
	for _, b := range s.c.tok.TokenBytes(id) {
		cur = s.c.dfa.Next(cur, b)
		if cur < 0 {
			return fmt.Errorf("lm-format-enforcer: token %d violates grammar", id)
		}
	}
	s.cur = cur
	return nil
}
