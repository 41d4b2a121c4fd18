package maskcache

import (
	"math/rand"
	"testing"

	"xgrammar/internal/bitset"
	"xgrammar/internal/ebnf"
	"xgrammar/internal/matcher"
	"xgrammar/internal/pda"
	"xgrammar/internal/tokenizer"
)

const jsonGrammar = `
root    ::= ws value ws
value   ::= object | array | string | number | "true" | "false" | "null"
object  ::= "{" ws ( member ( "," ws member )* )? "}"
member  ::= string ws ":" ws value ws
array   ::= "[" ws ( value ws ( "," ws value ws )* )? "]"
string  ::= "\"" char* "\""
char    ::= [^"\\\x00-\x1f] | "\\" escape
escape  ::= ["\\/bfnrt] | "u" hex hex hex hex
hex     ::= [0-9a-fA-F]
number  ::= "-"? int frac? exp?
int     ::= "0" | [1-9] [0-9]*
frac    ::= "." [0-9]+
exp     ::= [eE] [-+]? [0-9]+
ws      ::= [ \t\n\r]*
`

func buildAll(t testing.TB, src string, vocab int, copts Options, popts pda.Options) (*pda.PDA, *tokenizer.Tokenizer, *Cache) {
	t.Helper()
	g, err := ebnf.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pda.Compile(g, popts)
	if err != nil {
		t.Fatal(err)
	}
	tok := tokenizer.BuildDefault(vocab)
	c := Build(p, tok, copts)
	return p, tok, c
}

// TestMaskMatchesFullScan is the load-bearing correctness test: on every
// decoding step of several JSON documents, the cached mask (with and without
// context expansion, with and without PDA optimizations) must exactly equal
// the ground-truth full-vocabulary scan.
func TestMaskMatchesFullScan(t *testing.T) {
	docs := []string{
		`{"name": "bob", "age": 42}`,
		`[1, 2.5, -3e+7, true, false, null]`,
		`{"nested": {"a": ["x", {"b": []}]}}`,
		`"string with \"escape\" and é"`,
	}
	configs := []struct {
		name  string
		copts Options
		popts pda.Options
	}{
		{"plain", Options{}, pda.Options{}},
		{"ctxexp", Options{ContextExpansion: true}, pda.Options{}},
		{"allopts", Options{ContextExpansion: true}, pda.AllOptimizations},
		{"inline-only", Options{}, pda.Options{RuleInlining: true}},
	}
	for _, cfg := range configs {
		p, tok, c := buildAll(t, jsonGrammar, 800, cfg.copts, cfg.popts)
		_ = p
		exec := matcher.NewExec(c.P)
		fc := NewFillContext()
		got := bitset.New(tok.VocabSize())
		want := bitset.New(tok.VocabSize())
		for _, doc := range docs {
			m := matcher.New(exec, 0)
			for i := 0; i <= len(doc); i++ {
				canTerm := m.CanTerminate()
				c.FillMask(exec, m.States(), got, canTerm, fc)
				FullScanMask(exec, tok, m.States(), want, canTerm, true)
				if !got.Equal(want) {
					diff := 0
					for b := 0; b < tok.VocabSize() && diff < 5; b++ {
						if got.Get(b) != want.Get(b) {
							t.Errorf("cfg %s doc %q pos %d: token %d %q cache=%v scan=%v",
								cfg.name, doc, i, b, tok.TokenBytes(int32(b)), got.Get(b), want.Get(b))
							diff++
						}
					}
					t.Fatalf("cfg %s: mask mismatch at %q pos %d", cfg.name, doc, i)
				}
				if i < len(doc) {
					if !m.Advance([]byte{doc[i]}) {
						t.Fatalf("cfg %s: doc %q rejected at %d", cfg.name, doc, i)
					}
				}
			}
		}
	}
}

// TestFullScanSharedEqualsNaive checks that prefix-shared scanning is a pure
// optimization.
func TestFullScanSharedEqualsNaive(t *testing.T) {
	_, tok, c := buildAll(t, jsonGrammar, 500, Options{}, pda.AllOptimizations)
	exec := matcher.NewExec(c.P)
	m := matcher.New(exec, 0)
	m.Advance([]byte(`{"key`))
	a := bitset.New(tok.VocabSize())
	b := bitset.New(tok.VocabSize())
	FullScanMask(exec, tok, m.States(), a, m.CanTerminate(), true)
	FullScanMask(exec, tok, m.States(), b, m.CanTerminate(), false)
	if !a.Equal(b) {
		t.Fatal("shared and naive scans disagree")
	}
}

func TestMaskedTokensActuallyAdvance(t *testing.T) {
	// Property: every token allowed by the mask must be Advance-able, and a
	// sample of disallowed tokens must not be.
	_, tok, c := buildAll(t, jsonGrammar, 600, Options{ContextExpansion: true}, pda.AllOptimizations)
	exec := matcher.NewExec(c.P)
	fc := NewFillContext()
	mask := bitset.New(tok.VocabSize())
	m := matcher.New(exec, 0)
	rng := rand.New(rand.NewSource(7))

	doc := `{"a": [1, "two"]}`
	for i := 0; i <= len(doc); i++ {
		c.FillMask(exec, m.States(), mask, m.CanTerminate(), fc)
		checked := 0
		for id := 0; id < tok.VocabSize() && checked < 40; id++ {
			if tok.IsSpecial(int32(id)) {
				continue
			}
			if rng.Intn(10) != 0 {
				continue
			}
			checked++
			can := m.CanAdvance(tok.TokenBytes(int32(id)))
			if mask.Get(id) != can {
				t.Fatalf("pos %d token %q: mask=%v CanAdvance=%v", i, tok.TokenBytes(int32(id)), mask.Get(id), can)
			}
		}
		if i < len(doc) {
			if !m.Advance([]byte{doc[i]}) {
				t.Fatalf("doc rejected at %d", i)
			}
		}
	}
}

func TestStopTokenOnlyAtTermination(t *testing.T) {
	_, tok, c := buildAll(t, jsonGrammar, 400, Options{ContextExpansion: true}, pda.AllOptimizations)
	exec := matcher.NewExec(c.P)
	fc := NewFillContext()
	mask := bitset.New(tok.VocabSize())
	m := matcher.New(exec, 0)

	c.FillMask(exec, m.States(), mask, m.CanTerminate(), fc)
	if mask.Get(int(tokenizer.EosID)) {
		t.Fatal("EOS allowed before any input")
	}
	if !m.Advance([]byte(`[1]`)) {
		t.Fatal("advance failed")
	}
	c.FillMask(exec, m.States(), mask, m.CanTerminate(), fc)
	if !mask.Get(int(tokenizer.EosID)) {
		t.Fatal("EOS not allowed at complete document")
	}
	if mask.Get(int(tokenizer.PadID)) || mask.Get(int(tokenizer.BosID)) {
		t.Fatal("non-stop specials allowed")
	}
}

func TestContextExpansionReducesCtxTokens(t *testing.T) {
	_, _, plain := buildAll(t, jsonGrammar, 800, Options{}, pda.AllOptimizations)
	_, _, expanded := buildAll(t, jsonGrammar, 800, Options{ContextExpansion: true}, pda.AllOptimizations)
	ps, es := plain.Stats(), expanded.Stats()
	if es.CtxDependent >= ps.CtxDependent {
		t.Fatalf("context expansion did not reduce ctx tokens: %d -> %d", ps.CtxDependent, es.CtxDependent)
	}
	// The paper reports ~90% reduction for JSON; require at least half.
	if float64(es.CtxDependent) > 0.5*float64(ps.CtxDependent) {
		t.Errorf("weak reduction: %d -> %d", ps.CtxDependent, es.CtxDependent)
	}
}

func TestCtxTokensAreMinority(t *testing.T) {
	_, tok, c := buildAll(t, jsonGrammar, 800, Options{ContextExpansion: true}, pda.AllOptimizations)
	s := c.Stats()
	total := s.CIAccepted + s.CIRejected + s.CtxDependent
	if total == 0 {
		t.Fatal("no classifications")
	}
	frac := float64(s.CtxDependent) / float64(total)
	if frac > 0.05 {
		t.Fatalf("ctx-dependent fraction %.3f too high (paper: <1%%)", frac)
	}
	_ = tok
}

func TestAdaptiveStorageSavesMemory(t *testing.T) {
	// The paper's 0.2% figure is at a 128k vocabulary; the absolute saving
	// grows with vocabulary size, so at test scale we require a 2x saving.
	_, _, c := buildAll(t, jsonGrammar, 8000, Options{ContextExpansion: true}, pda.AllOptimizations)
	s := c.Stats()
	if s.StorageBytes*2 > s.FullBitsetBytes {
		t.Errorf("weak saving: %d vs %d", s.StorageBytes, s.FullBitsetBytes)
	}
}

func TestPrefixSharingSavesChars(t *testing.T) {
	_, _, c := buildAll(t, jsonGrammar, 800, Options{}, pda.AllOptimizations)
	s := c.Stats()
	if s.CharsStepped >= s.CharsTotal {
		t.Fatalf("prefix sharing saved nothing: %d vs %d", s.CharsStepped, s.CharsTotal)
	}
	if float64(s.CharsStepped) > 0.8*float64(s.CharsTotal) {
		t.Errorf("weak sharing: %d/%d", s.CharsStepped, s.CharsTotal)
	}
}

func TestStorageKindSelection(t *testing.T) {
	// makeNodeMask takes ownership of its slices, so each case builds fresh
	// inputs. vocab 320 -> 5 words -> listCap = 10 ids.
	vocab := 320
	manyIDs := func(lo, n int32) []int32 {
		out := make([]int32, 0, n)
		for i := int32(0); i < n; i++ {
			out = append(out, lo+i)
		}
		return out
	}
	// Mostly accepted: the reject-list is the sparse side.
	nm := makeNodeMask(manyIDs(0, 300), []int32{301, 302}, []int32{303}, vocab)
	if nm.Kind != RejectList {
		t.Fatalf("kind = %v, want reject-list", nm.Kind)
	}
	if nm.NumAccepted() != 300 {
		t.Fatalf("NumAccepted = %d, want 300", nm.NumAccepted())
	}
	// Mostly rejected: store the short accept-list.
	nm = makeNodeMask([]int32{1, 2}, manyIDs(3, 300), nil, vocab)
	if nm.Kind != AcceptList {
		t.Fatalf("kind = %v, want accept-list", nm.Kind)
	}
	// Balanced: both lists exceed listCap, the word mask wins
	// (vocab/8 = 40 bytes < 4*160).
	nm = makeNodeMask(manyIDs(0, 160), manyIDs(160, 160), nil, vocab)
	if nm.Kind != WordMask {
		t.Fatalf("kind = %v, want word-mask", nm.Kind)
	}
	if len(nm.Words) != 5 || nm.NumAccepted() != 160 {
		t.Fatalf("word-mask shape wrong: %d words, %d accepted", len(nm.Words), nm.NumAccepted())
	}
}

func TestCacheOnRecursiveGrammarSmall(t *testing.T) {
	// A grammar designed to stress pops: balanced parens.
	src := `root ::= "(" root ")" | "x"`
	_, tok, c := buildAll(t, src, 300, Options{ContextExpansion: true}, pda.AllOptimizations)
	exec := matcher.NewExec(c.P)
	fc := NewFillContext()
	got := bitset.New(tok.VocabSize())
	want := bitset.New(tok.VocabSize())
	m := matcher.New(exec, 0)
	doc := "((x))"
	for i := 0; i <= len(doc); i++ {
		c.FillMask(exec, m.States(), got, m.CanTerminate(), fc)
		FullScanMask(exec, tok, m.States(), want, m.CanTerminate(), true)
		if !got.Equal(want) {
			t.Fatalf("mismatch at pos %d of %q", i, doc)
		}
		if i < len(doc) {
			if !m.Advance([]byte{doc[i]}) {
				t.Fatal("rejected")
			}
		}
	}
}
