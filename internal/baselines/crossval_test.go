package baselines

import (
	"math/rand"
	"testing"

	"xgrammar/internal/bitset"
	"xgrammar/internal/grammar"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/matcher"
	"xgrammar/internal/pda"
	"xgrammar/internal/serve"
	"xgrammar/internal/tokenizer"
)

// randGrammar builds a random grammar. Rule references are always preceded
// by a terminal inside a sequence, so the grammar is never left-recursive.
func randGrammar(rng *rand.Rand, nRules int) *grammar.Grammar {
	g := &grammar.Grammar{}
	alphabet := []byte("abcxyz01(){}[],:\" ")
	randLit := func() grammar.Expr {
		n := 1 + rng.Intn(3)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return &grammar.Literal{Bytes: b}
	}
	randClass := func() grammar.Expr {
		lo := rune('a' + rng.Intn(20))
		hi := lo + rune(rng.Intn(6))
		return &grammar.CharClass{Ranges: []grammar.RuneRange{{Lo: lo, Hi: hi}}}
	}
	var randExpr func(depth int) grammar.Expr
	randExpr = func(depth int) grammar.Expr {
		if depth >= 3 {
			if rng.Intn(2) == 0 {
				return randLit()
			}
			return randClass()
		}
		switch rng.Intn(6) {
		case 0:
			return randLit()
		case 1:
			return randClass()
		case 2:
			items := make([]grammar.Expr, 1+rng.Intn(3))
			for i := range items {
				items[i] = randExpr(depth + 1)
			}
			return &grammar.Seq{Items: items}
		case 3:
			alts := make([]grammar.Expr, 2+rng.Intn(2))
			for i := range alts {
				alts[i] = randExpr(depth + 1)
			}
			return &grammar.Choice{Alts: alts}
		case 4:
			min := rng.Intn(2)
			max := min + rng.Intn(3)
			if rng.Intn(3) == 0 {
				max = -1
			}
			return &grammar.Repeat{Sub: randExpr(depth + 1), Min: min, Max: max}
		default:
			// Guarded rule reference: terminal first, never left-recursive.
			ref := rng.Intn(nRules)
			return &grammar.Seq{Items: []grammar.Expr{
				randLit(),
				&grammar.RuleRef{Index: ref, Name: ruleName(ref)},
			}}
		}
	}
	for i := 0; i < nRules; i++ {
		g.Rules = append(g.Rules, grammar.Rule{Name: ruleName(i), Body: randExpr(0)})
	}
	return g
}

func ruleName(i int) string { return string(rune('A' + i)) }

// sample draws a random string from the grammar's language, bounding
// recursion depth.
func sample(rng *rand.Rand, g *grammar.Grammar, out []byte, e grammar.Expr, depth int) ([]byte, bool) {
	if depth > 24 || len(out) > 200 {
		return out, false
	}
	switch v := e.(type) {
	case *grammar.Literal:
		return append(out, v.Bytes...), true
	case *grammar.CharClass:
		r := v.Ranges[rng.Intn(len(v.Ranges))]
		c := r.Lo + rune(rng.Int63n(int64(r.Hi-r.Lo+1)))
		return append(out, []byte(string(c))...), true
	case *grammar.Seq:
		ok := true
		for _, it := range v.Items {
			out, ok = sample(rng, g, out, it, depth+1)
			if !ok {
				return out, false
			}
		}
		return out, true
	case *grammar.Choice:
		return sample(rng, g, out, v.Alts[rng.Intn(len(v.Alts))], depth+1)
	case *grammar.Repeat:
		n := v.Min
		if v.Max < 0 {
			n += rng.Intn(3)
		} else if v.Max > v.Min {
			n += rng.Intn(v.Max - v.Min + 1)
		}
		ok := true
		for i := 0; i < n; i++ {
			out, ok = sample(rng, g, out, v.Sub, depth+1)
			if !ok {
				return out, false
			}
		}
		return out, true
	case *grammar.RuleRef:
		return sample(rng, g, out, g.Rules[v.Index].Body, depth+1)
	case *grammar.Empty:
		return out, true
	}
	return out, false
}

// mutate produces a corrupted variant of s.
func mutate(rng *rand.Rand, s []byte) []byte {
	out := append([]byte(nil), s...)
	if len(out) == 0 {
		return []byte{'!'}
	}
	switch rng.Intn(3) {
	case 0: // flip a byte
		out[rng.Intn(len(out))] = byte('!' + rng.Intn(60))
	case 1: // truncate (still a valid prefix — test prefix acceptance)
		out = out[:rng.Intn(len(out))]
	default: // insert
		i := rng.Intn(len(out) + 1)
		out = append(out[:i], append([]byte{byte('!' + rng.Intn(60))}, out[i:]...)...)
	}
	return out
}

// llamaAccepts runs the independent vector-stack interpreter as an oracle
// for byte-level prefix acceptance.
func llamaAccepts(l *LlamaCpp, input []byte) bool {
	s := l.NewSession().(*llamaSession)
	return s.matchToken(input)
}

// TestCrossValidationRandomGrammars: the persistent-stack matcher and the
// deep-copy vector-stack interpreter must agree on acceptance of sampled
// strings (positive) and mutations (either way, but identical).
func TestCrossValidationRandomGrammars(t *testing.T) {
	rng := rand.New(rand.NewSource(20250612))
	tok := testTok(t)
	grammars := 0
	for trial := 0; trial < 60 && grammars < 25; trial++ {
		g := randGrammar(rng, 1+rng.Intn(4))
		if err := g.Validate(); err != nil {
			continue // rare: generator built something degenerate
		}
		grammars++
		for _, opts := range []pda.Options{{}, pda.AllOptimizations} {
			p, err := pda.Compile(g, opts)
			if err != nil {
				t.Fatalf("grammar %s: %v", g.String(), err)
			}
			lcp := NewLlamaCpp(p, tok)
			exec := matcher.NewExec(p)
			for i := 0; i < 6; i++ {
				str, ok := sample(rng, g, nil, g.Rules[g.Root].Body, 0)
				if !ok {
					continue
				}
				m := matcher.New(exec, 0)
				if !m.Advance(str) {
					t.Fatalf("grammar:\n%s\nsampled string %q rejected by matcher", g.String(), str)
				}
				if !m.CanTerminate() {
					t.Fatalf("grammar:\n%s\nsampled string %q not terminable", g.String(), str)
				}
				if !llamaAccepts(lcp, str) {
					t.Fatalf("grammar:\n%s\nsampled %q rejected by oracle", g.String(), str)
				}
				// Mutations: both engines must agree either way.
				for j := 0; j < 4; j++ {
					mut := mutate(rng, str)
					mm := matcher.New(exec, 0)
					got := mm.Advance(mut)
					want := llamaAccepts(lcp, mut)
					if got != want {
						t.Fatalf("grammar:\n%s\nmutant %q: matcher=%v oracle=%v", g.String(), mut, got, want)
					}
				}
			}
		}
	}
	if grammars < 10 {
		t.Fatalf("only %d usable random grammars", grammars)
	}
}

// TestCrossValidationMasks: cached masks equal oracle masks on random
// grammars at several positions of a sampled string.
func TestCrossValidationMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tok := testTok(t)
	checked := 0
	for trial := 0; trial < 40 && checked < 8; trial++ {
		g := randGrammar(rng, 1+rng.Intn(3))
		if err := g.Validate(); err != nil {
			continue
		}
		p, err := pda.Compile(g, pda.AllOptimizations)
		if err != nil {
			continue
		}
		str, ok := sample(rng, g, nil, g.Rules[g.Root].Body, 0)
		if !ok || len(str) == 0 {
			continue
		}
		checked++
		cache := maskcache.Build(p, tok, maskcache.Options{ContextExpansion: true})
		xg := serve.NewSessionPool(p, cache, tok, 0).Acquire()
		oracle := NewLlamaCpp(p, tok).NewSession()
		got := bitset.New(tok.VocabSize())
		want := bitset.New(tok.VocabSize())
		ids := tok.Encode(string(str))
		for step := 0; step <= len(ids) && step < 6; step++ {
			xg.FillMask(got)
			oracle.FillMask(want)
			if !got.Equal(want) {
				for b := 0; b < tok.VocabSize(); b++ {
					if got.Get(b) != want.Get(b) {
						t.Fatalf("grammar:\n%s\nstep %d token %q: cache=%v oracle=%v",
							g.String(), step, tok.TokenBytes(int32(b)), got.Get(b), want.Get(b))
					}
				}
			}
			if step < len(ids) {
				if err := xg.Accept(ids[step]); err != nil {
					// The sampled string may not tokenize into a valid
					// stepwise path if a token crosses the string end;
					// both engines must agree on the failure.
					if oErr := oracle.Accept(ids[step]); oErr == nil {
						t.Fatalf("grammar:\n%s\nxg rejected token %d, oracle accepted", g.String(), ids[step])
					}
					break
				}
				if err := oracle.Accept(ids[step]); err != nil {
					t.Fatalf("grammar:\n%s\noracle rejected token %d after xg accepted", g.String(), ids[step])
				}
			}
		}
	}
	if checked < 4 {
		t.Fatalf("only %d grammars mask-checked", checked)
	}
	_ = tokenizer.EosID
}
