package baselines

import (
	"fmt"
	"sync"

	"xgrammar/internal/bitset"
	"xgrammar/internal/fsa"
	"xgrammar/internal/grammar"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/matcher"
	"xgrammar/internal/pda"
	"xgrammar/internal/serve"
	"xgrammar/internal/tokenizer"
	"xgrammar/internal/trie"
)

// FlattenToDFA lowers a non-recursive grammar to a single byte DFA by
// inlining every rule into the root and determinizing — the "schema as
// regex" lowering that regex-based engines rely on.
func FlattenToDFA(g *grammar.Grammar, backend string) (*fsa.DFA, error) {
	if IsRecursive(g) {
		return nil, &ErrUnsupported{Backend: backend, Reason: "recursive grammar (CFG) cannot be expressed as a regular expression"}
	}
	big := grammar.InlineOptions{MaxRuleSize: 1 << 30, MaxResultSize: 1 << 30}
	ig := grammar.Inline(g, big)
	if len(ig.Rules) != 1 {
		return nil, &ErrUnsupported{Backend: backend, Reason: "grammar did not flatten to a single rule"}
	}
	f, err := fsa.BuildRule(ig.Rules[ig.Root].Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", backend, err)
	}
	f = fsa.RemoveEpsilon(f)
	d, err := fsa.Determinize(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", backend, err)
	}
	return d, nil
}

// RegexFSM is an Outlines-style engine: the schema is lowered to a DFA over
// bytes, and for every visited DFA state the engine computes (once, then
// caches) the token-level transition table: which tokens are allowed and
// where each leads. Mask generation after warm-up is a table lookup.
//
// The lazy index is guarded by a mutex because the serving engine fills the
// masks of a whole batch concurrently (Overlap mode), and sessions share
// the backend's index.
type RegexFSM struct {
	dfa   *fsa.DFA
	tok   *tokenizer.Tokenizer
	trie  *trie.Trie
	words int
	mu    sync.Mutex
	masks map[int32][]uint64
	next  map[int64]int32
}

// NewRegexFSM builds the Outlines-style index for a non-recursive grammar.
func NewRegexFSM(g *grammar.Grammar, tok *tokenizer.Tokenizer) (*RegexFSM, error) {
	d, err := FlattenToDFA(g, "outlines-fsm")
	if err != nil {
		return nil, err
	}
	tokens := make([][]byte, tok.VocabSize())
	for id := 0; id < tok.VocabSize(); id++ {
		if tok.IsSpecial(int32(id)) {
			tokens[id] = nil // never matched
		} else {
			tokens[id] = tok.TokenBytes(int32(id))
		}
	}
	return &RegexFSM{
		dfa:   d,
		tok:   tok,
		trie:  trie.Build(tokens),
		words: bitset.WordsFor(tok.VocabSize()),
		masks: map[int32][]uint64{},
		next:  map[int64]int32{},
	}, nil
}

// Name implements serve.Grammar.
func (r *RegexFSM) Name() string { return "outlines-fsm" }

// PrecomputeAll walks every reachable DFA state eagerly (Outlines builds its
// index offline); returns the number of states indexed.
func (r *RegexFSM) PrecomputeAll() int {
	seen := map[int32]bool{r.dfa.Start: true}
	work := []int32{r.dfa.Start}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		r.index(s)
		// Successor states via token transitions.
		for id := 0; id < r.tok.VocabSize(); id++ {
			if ns, ok := r.nextState(s, int32(id)); ok && !seen[ns] {
				seen[ns] = true
				work = append(work, ns)
			}
		}
	}
	return len(seen)
}

// nextState returns the indexed token transition for (state, id), if known.
func (r *RegexFSM) nextState(state, id int32) (int32, bool) {
	r.mu.Lock()
	ns, ok := r.next[int64(state)<<32|int64(id)]
	r.mu.Unlock()
	return ns, ok
}

// index computes (and caches) the allowed-token mask and token transitions
// for DFA state s by walking the vocabulary trie against the DFA.
func (r *RegexFSM) index(s int32) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.masks[s]; ok {
		return m
	}
	mask := make([]uint64, r.words)
	bs := bitset.FromWords(mask, r.tok.VocabSize())
	// The special-token trie entries are nil (empty), ending at the root;
	// skip the root's token check.
	var walk func(tn int32, ds int32)
	walk = func(tn int32, ds int32) {
		r.trie.Children(tn, func(b byte, child int32) {
			nd := r.dfa.Next(ds, b)
			if nd < 0 {
				return
			}
			if id := r.trie.Token(child); id >= 0 && !r.tok.IsSpecial(id) {
				bs.Set(int(id))
				r.next[int64(s)<<32|int64(id)] = nd
			}
			walk(child, nd)
		})
	}
	walk(r.trie.Root(), s)
	r.masks[s] = mask
	return mask
}

// NewSession implements serve.Grammar.
func (r *RegexFSM) NewSession() serve.GrammarSession {
	return &fsmSession{r: r, cur: r.dfa.Start}
}

type fsmSession struct {
	r          *RegexFSM
	cur        int32
	terminated bool
}

func (s *fsmSession) FillMask(mask *bitset.Bitset) {
	if s.terminated {
		mask.ClearAll()
		return
	}
	cached := s.r.index(s.cur)
	copy(mask.Words(), cached)
	finishMask(mask, s.r.tok, s.CanTerminate())
}

func (s *fsmSession) CanTerminate() bool {
	return !s.terminated && s.r.dfa.Accept[s.cur]
}

func (s *fsmSession) IsTerminated() bool { return s.terminated }

// JumpForward returns the DFA's unique forced continuation (Appendix B):
// bytes are appended while exactly one outgoing byte exists and the state
// does not accept.
func (s *fsmSession) JumpForward() string {
	if s.terminated {
		return ""
	}
	var out []byte
	cur := s.cur
	for len(out) < 4096 {
		if s.r.dfa.Accept[cur] {
			break
		}
		next := int32(-1)
		var nb byte
		count := 0
		for b := 0; b < 256; b++ {
			if n := s.r.dfa.Next(cur, byte(b)); n >= 0 {
				count++
				if count > 1 {
					break
				}
				next, nb = n, byte(b)
			}
		}
		if count != 1 {
			break
		}
		out = append(out, nb)
		cur = next
	}
	return string(out)
}

// AcceptString advances the session by raw bytes (jump-forward insertion).
func (s *fsmSession) AcceptString(text string) error {
	cur := s.cur
	for i := 0; i < len(text); i++ {
		cur = s.r.dfa.Next(cur, text[i])
		if cur < 0 {
			return fmt.Errorf("outlines-fsm: string %q violates grammar", text)
		}
	}
	s.cur = cur
	return nil
}

func (s *fsmSession) Accept(id int32) error {
	if s.terminated {
		return fmt.Errorf("outlines-fsm: already terminated")
	}
	if id == tokenizer.EosID {
		if !s.CanTerminate() {
			return fmt.Errorf("outlines-fsm: premature EOS")
		}
		s.terminated = true
		return nil
	}
	if s.r.tok.IsSpecial(id) {
		return fmt.Errorf("outlines-fsm: special token %d", id)
	}
	// Use the indexed transition when available, else walk the bytes.
	if ns, ok := s.r.nextState(s.cur, id); ok {
		s.cur = ns
		return nil
	}
	cur := s.cur
	for _, b := range s.r.tok.TokenBytes(id) {
		cur = s.r.dfa.Next(cur, b)
		if cur < 0 {
			return fmt.Errorf("outlines-fsm: token %d violates grammar", id)
		}
	}
	s.cur = cur
	return nil
}

// OutlinesCFG approximates Outlines' lexer+parser CFG path: an interpreted
// full-vocabulary scan per step (with shared-prefix walking but no token
// mask cache), which is why Outlines' CFG latency is orders of magnitude
// above its FSM latency in Figure 9.
type OutlinesCFG struct {
	p   *pda.PDA
	tok *tokenizer.Tokenizer
}

// NewOutlinesCFG wraps a compiled PDA.
func NewOutlinesCFG(p *pda.PDA, tok *tokenizer.Tokenizer) *OutlinesCFG {
	return &OutlinesCFG{p: p, tok: tok}
}

// Name implements serve.Grammar.
func (o *OutlinesCFG) Name() string { return "outlines-cfg" }

// NewSession implements serve.Grammar.
func (o *OutlinesCFG) NewSession() serve.GrammarSession {
	exec := matcher.NewExec(o.p)
	return &outlinesCFGSession{o: o, exec: exec, m: matcher.New(exec, 0)}
}

type outlinesCFGSession struct {
	o          *OutlinesCFG
	exec       *matcher.Exec
	m          *matcher.Matcher
	terminated bool
}

func (s *outlinesCFGSession) FillMask(mask *bitset.Bitset) {
	if s.terminated {
		mask.ClearAll()
		return
	}
	maskcache.FullScanMask(s.exec, s.o.tok, s.m.States(), mask, s.m.CanTerminate(), true)
	finishMask(mask, s.o.tok, s.m.CanTerminate())
}

func (s *outlinesCFGSession) CanTerminate() bool { return !s.terminated && s.m.CanTerminate() }

func (s *outlinesCFGSession) IsTerminated() bool { return s.terminated }

func (s *outlinesCFGSession) Accept(id int32) error {
	if s.terminated {
		return fmt.Errorf("outlines-cfg: already terminated")
	}
	if id == tokenizer.EosID {
		if !s.m.CanTerminate() {
			return fmt.Errorf("outlines-cfg: premature EOS")
		}
		s.terminated = true
		return nil
	}
	if s.o.tok.IsSpecial(id) {
		return fmt.Errorf("outlines-cfg: special token %d", id)
	}
	if !s.m.Advance(s.o.tok.TokenBytes(id)) {
		return fmt.Errorf("outlines-cfg: token %d violates grammar", id)
	}
	return nil
}
