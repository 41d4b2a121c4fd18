package baselines

import (
	"sync"
	"testing"

	"xgrammar/internal/bitset"
	"xgrammar/internal/builtin"
	"xgrammar/internal/grammar"
	"xgrammar/internal/jsonschema"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/pda"
	"xgrammar/internal/serve"
	"xgrammar/internal/tokenizer"
	"xgrammar/internal/workload"
)

func testTok(t testing.TB) *tokenizer.Tokenizer {
	t.Helper()
	return tokenizer.BuildDefault(500)
}

func compilePDA(t testing.TB, g *grammar.Grammar) *pda.PDA {
	t.Helper()
	p, err := pda.Compile(g, pda.AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// allBackendsFor builds every applicable backend for a grammar.
func allBackendsFor(t *testing.T, g *grammar.Grammar, tok *tokenizer.Tokenizer) []serve.Grammar {
	t.Helper()
	p := compilePDA(t, g)
	cache := maskcache.Build(p, tok, maskcache.Options{ContextExpansion: true})
	backends := []serve.Grammar{
		serve.NewSessionPool(p, cache, tok, 0),
		NewLlamaCpp(p, tok),
		NewOutlinesCFG(p, tok),
	}
	if fsm, err := NewRegexFSM(g, tok); err == nil {
		backends = append(backends, fsm)
	}
	if cw, err := NewCharWalk(g, tok); err == nil {
		backends = append(backends, cw)
	}
	return backends
}

// replay drives a session along the token ids of a known-valid document,
// checking mask agreement across backends at every step.
func TestBackendsAgreeOnSchemaTask(t *testing.T) {
	tok := testTok(t)
	task := workload.SchemaTasks(1, 42)[0]
	g, err := jsonschema.Compile(task.Schema, jsonschema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	backends := allBackendsFor(t, g, tok)
	if len(backends) != 5 {
		t.Fatalf("expected 5 backends (incl. regex ones), got %d", len(backends))
	}
	sessions := make([]serve.GrammarSession, len(backends))
	for i, b := range backends {
		sessions[i] = b.NewSession()
	}
	ids := tok.Encode(task.Instance)
	masks := make([]*bitset.Bitset, len(backends))
	for i := range masks {
		masks[i] = bitset.New(tok.VocabSize())
	}
	for step := 0; step <= len(ids); step++ {
		for i, s := range sessions {
			s.FillMask(masks[i])
			if i > 0 && !masks[i].Equal(masks[0]) {
				for b := 0; b < tok.VocabSize(); b++ {
					if masks[i].Get(b) != masks[0].Get(b) {
						t.Errorf("step %d: token %q: %s=%v %s=%v", step,
							tok.TokenBytes(int32(b)), backends[0].Name(), masks[0].Get(b),
							backends[i].Name(), masks[i].Get(b))
						break
					}
				}
				t.Fatalf("step %d: %s mask differs from %s", step, backends[i].Name(), backends[0].Name())
			}
		}
		if step < len(ids) {
			for i, s := range sessions {
				if err := s.Accept(ids[step]); err != nil {
					t.Fatalf("%s: %v (instance %q)", backends[i].Name(), err, task.Instance)
				}
			}
		}
	}
	for i, s := range sessions {
		if !s.CanTerminate() {
			t.Fatalf("%s cannot terminate after full instance", backends[i].Name())
		}
		if err := s.Accept(tokenizer.EosID); err != nil {
			t.Fatalf("%s: EOS rejected: %v", backends[i].Name(), err)
		}
		if !s.IsTerminated() {
			t.Fatalf("%s not terminated", backends[i].Name())
		}
	}
}

func TestBackendsAgreeOnCFG(t *testing.T) {
	tok := testTok(t)
	g := builtin.JSON()
	p := compilePDA(t, g)
	cache := maskcache.Build(p, tok, maskcache.Options{ContextExpansion: true})
	backends := []serve.Grammar{
		serve.NewSessionPool(p, cache, tok, 0),
		NewLlamaCpp(p, tok),
		NewOutlinesCFG(p, tok),
	}
	sessions := make([]serve.GrammarSession, len(backends))
	for i, b := range backends {
		sessions[i] = b.NewSession()
	}
	doc := `{"k": [1, true, "s"]}`
	ids := tok.Encode(doc)
	masks := make([]*bitset.Bitset, len(backends))
	for i := range masks {
		masks[i] = bitset.New(tok.VocabSize())
	}
	for step := 0; step <= len(ids); step++ {
		for i, s := range sessions {
			s.FillMask(masks[i])
			if i > 0 && !masks[i].Equal(masks[0]) {
				t.Fatalf("step %d: %s mask differs", step, backends[i].Name())
			}
		}
		if step < len(ids) {
			for i, s := range sessions {
				if err := s.Accept(ids[step]); err != nil {
					t.Fatalf("%s: %v", backends[i].Name(), err)
				}
			}
		}
	}
}

func TestRegexBackendsRejectCFG(t *testing.T) {
	tok := testTok(t)
	if _, err := NewRegexFSM(builtin.JSON(), tok); err == nil {
		t.Fatal("RegexFSM accepted a recursive grammar")
	}
	if _, err := NewCharWalk(builtin.JSON(), tok); err == nil {
		t.Fatal("CharWalk accepted a recursive grammar")
	}
}

func TestIsRecursive(t *testing.T) {
	if !IsRecursive(builtin.JSON()) {
		t.Fatal("JSON grammar not detected as recursive")
	}
	flat := jsonschema.MustCompile([]byte(`{"type": "object", "properties": {"a": {"type": "integer"}}, "required": ["a"]}`), jsonschema.Options{})
	if IsRecursive(flat) {
		t.Fatal("flat schema detected as recursive")
	}
}

func TestRegexFSMPrecompute(t *testing.T) {
	tok := testTok(t)
	g := jsonschema.MustCompile([]byte(`{"type": "object", "properties": {"x": {"type": "boolean"}}, "required": ["x"]}`), jsonschema.Options{})
	fsm, err := NewRegexFSM(g, tok)
	if err != nil {
		t.Fatal(err)
	}
	n := fsm.PrecomputeAll()
	if n < 2 {
		t.Fatalf("precomputed only %d states", n)
	}
	// After precompute, a session must replay without recomputation errors.
	s := fsm.NewSession()
	for _, id := range tok.Encode(`{"x": true}`) {
		if err := s.Accept(id); err != nil {
			t.Fatal(err)
		}
	}
	if !s.CanTerminate() {
		t.Fatal("cannot terminate")
	}
}

func TestErrUnsupportedMessage(t *testing.T) {
	e := &ErrUnsupported{Backend: "b", Reason: "r"}
	if e.Error() == "" {
		t.Fatal("empty error")
	}
}

func TestLlamaCppRejectsInvalidToken(t *testing.T) {
	tok := testTok(t)
	p := compilePDA(t, builtin.JSON())
	s := NewLlamaCpp(p, tok).NewSession()
	// A letter token can't start JSON (except t/f/n).
	var bad int32 = -1
	for id := 0; id < tok.VocabSize(); id++ {
		b := tok.TokenBytes(int32(id))
		if len(b) > 0 && b[0] == 'z' && !tok.IsSpecial(int32(id)) {
			bad = int32(id)
			break
		}
	}
	if bad < 0 {
		t.Skip("no z token")
	}
	if err := s.Accept(bad); err == nil {
		t.Fatal("invalid token accepted")
	}
	if err := s.Accept(tokenizer.EosID); err == nil {
		t.Fatal("premature EOS accepted")
	}
}

// TestRegexFSMConcurrentFills drives many FSM sessions at different DFA
// states from concurrent goroutines without PrecomputeAll, so the lazy
// index (masks/next maps) is written under contention — the Overlap-mode
// batch-fill pattern of the serving engine. Run with -race.
func TestRegexFSMConcurrentFills(t *testing.T) {
	tok := testTok(t)
	task := workload.SchemaTasks(1, 11)[0]
	g, err := jsonschema.Compile(task.Schema, jsonschema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fsm, err := NewRegexFSM(g, tok)
	if err != nil {
		t.Skipf("schema not regular: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := fsm.NewSession()
			mask := bitset.New(tok.VocabSize())
			emitted := 0
			for !sess.IsTerminated() {
				sess.FillMask(mask)
				var next int32
				if emitted >= len(task.Instance) {
					next = tokenizer.EosID
				} else {
					next = tok.Encode(task.Instance[emitted:])[0]
				}
				if !mask.Get(int(next)) {
					t.Errorf("worker %d: target token masked out", w)
					return
				}
				if err := sess.Accept(next); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				emitted += len(tok.TokenBytes(next))
			}
		}(w)
	}
	wg.Wait()
}
