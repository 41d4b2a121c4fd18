package xgrammar

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"xgrammar/internal/serve"
)

func testTokenizer(t testing.TB) *TokenizerInfo {
	t.Helper()
	return DefaultTokenizer(800)
}

func mustCompileJSON(t testing.TB, opts ...CompilerOption) *CompiledGrammar {
	t.Helper()
	cg, err := NewCompiler(testTokenizer(t), opts...).CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

func TestCompileBuiltins(t *testing.T) {
	c := NewCompiler(testTokenizer(t))
	for name, f := range map[string]func() (*CompiledGrammar, error){
		"json":   c.CompileBuiltinJSON,
		"xml":    c.CompileBuiltinXML,
		"python": c.CompileBuiltinPythonDSL,
	} {
		cg, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := cg.Stats()
		if st.PDANodes == 0 || !st.HasMaskCache {
			t.Fatalf("%s: degenerate stats %+v", name, st)
		}
	}
}

func TestCompileCustomGrammar(t *testing.T) {
	cg, err := NewCompiler(testTokenizer(t)).CompileGrammar(`root ::= "yes" | "no"`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(cg)
	if err := m.AcceptString("yes"); err != nil {
		t.Fatal(err)
	}
	if !m.CanTerminate() {
		t.Fatal("cannot terminate after yes")
	}
}

func TestCompileError(t *testing.T) {
	if _, err := NewCompiler(testTokenizer(t)).CompileGrammar(`root ::= undefined_rule`); err == nil {
		t.Fatal("expected error")
	}
}

// TestGuidedGenerationProducesValidJSON drives a random-but-masked
// generation loop and checks the output is grammar-complete.
func TestGuidedGenerationProducesValidJSON(t *testing.T) {
	cg := mustCompileJSON(t)
	info := cg.TokenizerInfo()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		m := NewMatcher(cg)
		mask := make([]uint64, cg.MaskWords())
		var out []int32
		for steps := 0; steps < 200 && !m.IsTerminated(); steps++ {
			m.FillNextTokenBitmask(mask)
			// Collect allowed tokens and pick one at random (bias toward
			// stopping so generations stay short).
			var allowed []int32
			for id := 0; id < info.VocabSize(); id++ {
				if mask[id>>6]&(1<<uint(id&63)) != 0 {
					allowed = append(allowed, int32(id))
				}
			}
			if len(allowed) == 0 {
				t.Fatalf("trial %d: empty mask at step %d (output %q)", trial, steps, info.Decode(out))
			}
			var pick int32
			if m.CanTerminate() && rng.Intn(3) == 0 {
				pick = info.EOSTokenID()
			} else {
				pick = allowed[rng.Intn(len(allowed))]
			}
			if err := m.AcceptToken(pick); err != nil {
				t.Fatalf("trial %d: masked token rejected: %v", trial, err)
			}
			if pick != info.EOSTokenID() {
				out = append(out, pick)
			}
		}
		if !m.IsTerminated() && !m.CanTerminate() {
			continue // ran out of steps mid-structure; fine for random walk
		}
		text := info.Decode(out)
		// Verify with a fresh matcher that the text is complete JSON.
		v := NewMatcher(cg)
		if err := v.AcceptString(text); err != nil {
			t.Fatalf("trial %d: generated %q not accepted: %v", trial, text, err)
		}
	}
}

func TestAcceptTokenRejectsViolations(t *testing.T) {
	cg := mustCompileJSON(t)
	info := cg.TokenizerInfo()
	m := NewMatcher(cg)
	// Find a token that is pure letters; it cannot start JSON (except t/f/n
	// prefixes of true/false/null, so pick one starting with 'z').
	var bad int32 = -1
	for id := 0; id < info.VocabSize(); id++ {
		b := info.TokenBytes(int32(id))
		if len(b) > 0 && b[0] == 'z' && !info.IsSpecial(int32(id)) {
			bad = int32(id)
			break
		}
	}
	if bad < 0 {
		t.Skip("no z-token in small vocab")
	}
	if err := m.AcceptToken(bad); err == nil {
		t.Fatal("grammar-violating token accepted")
	}
	// The failed accept must not corrupt state.
	if err := m.AcceptString(`{"a": 1}`); err != nil {
		t.Fatal(err)
	}
}

func TestStopTokenSemantics(t *testing.T) {
	cg := mustCompileJSON(t)
	m := NewMatcher(cg)
	if err := m.AcceptToken(cg.TokenizerInfo().EOSTokenID()); err == nil {
		t.Fatal("EOS accepted before completion")
	}
	if err := m.AcceptString(`[1]`); err != nil {
		t.Fatal(err)
	}
	if err := m.AcceptToken(cg.TokenizerInfo().EOSTokenID()); err != nil {
		t.Fatal(err)
	}
	if !m.IsTerminated() {
		t.Fatal("not terminated after EOS")
	}
	if err := m.AcceptString("x"); err == nil {
		t.Fatal("accept after termination")
	}
	mask := make([]uint64, cg.MaskWords())
	m.FillNextTokenBitmask(mask)
	for _, w := range mask {
		if w != 0 {
			t.Fatal("mask not empty after termination")
		}
	}
}

func TestRollbackAcrossTermination(t *testing.T) {
	cg := mustCompileJSON(t)
	m := NewMatcher(cg)
	if err := m.AcceptString(`[1]`); err != nil {
		t.Fatal(err)
	}
	if err := m.AcceptToken(cg.TokenizerInfo().EOSTokenID()); err != nil {
		t.Fatal(err)
	}
	if err := m.Rollback(2); err != nil {
		t.Fatal(err)
	}
	if m.IsTerminated() {
		t.Fatal("still terminated after rollback")
	}
	// Back at the start; a fresh document must parse.
	if err := m.AcceptString(`{"x": true}`); err != nil {
		t.Fatal(err)
	}
}

// TestEndOfGenerationSemantics runs one end-of-generation script through
// every way of driving a grammar — the public Matcher, an Engine session and
// a raw serving session — and requires identical observations: after EOS the
// session is terminated, cannot terminate again, fills an all-zero mask and
// rejects a second EOS; rolling EOS back reopens the completed document.
func TestEndOfGenerationSemantics(t *testing.T) {
	cg := mustCompileJSON(t)
	info := cg.TokenizerInfo()
	eos := info.EOSTokenID()
	type surface struct {
		accept   func(int32) error
		fill     func() []uint64
		rollback func(int) error
		isTerm   func() bool
		canTerm  func() bool
	}
	m := NewMatcher(cg)
	matcherMask := make([]uint64, cg.MaskWords())
	es := NewEngine(NewCompiler(info)).OpenSession(cg)
	defer es.Close()
	raw := serve.NewSessionPool(cg.pda, cg.cache, info.Raw(), cg.cfg.maxHistory).Acquire()
	defer raw.Close()
	surfaces := map[string]surface{
		"Matcher": {m.AcceptToken, func() []uint64 {
			if _, err := m.FillNextTokenBitmask(matcherMask); err != nil {
				t.Fatal(err)
			}
			return matcherMask
		}, m.Rollback, m.IsTerminated, m.CanTerminate},
		"Engine.OpenSession": {es.Accept, func() []uint64 { es.Fill(); return es.Mask() },
			es.Rollback, es.IsTerminated, es.CanTerminate},
		"serve.Session": {raw.Accept, func() []uint64 { raw.Fill(); return raw.Mask() },
			raw.Rollback, raw.IsTerminated, raw.CanTerminate},
	}
	bitOn := func(mask []uint64, id int32) bool { return mask[id>>6]&(1<<uint(id&63)) != 0 }
	anyBit := func(mask []uint64) bool {
		for _, w := range mask {
			if w != 0 {
				return true
			}
		}
		return false
	}
	want := []string{
		"complete/canTerm=true", "complete/eosAllowed=true",
		"eos/accepted=true", "eos/isTerm=true", "eos/canTerm=false",
		"eos/maskNonZero=false", "eos/secondEOSAccepted=false",
		"rollback/ok=true", "rollback/isTerm=false", "rollback/canTerm=true",
		"rollback/eosAllowed=true",
		"reaccept/accepted=true", "reaccept/isTerm=true", "reaccept/canTerm=false",
	}
	for _, name := range []string{"Matcher", "Engine.OpenSession", "serve.Session"} {
		d := surfaces[name]
		var got []string
		note := func(step string, v bool) { got = append(got, fmt.Sprintf("%s=%v", step, v)) }
		for _, id := range info.Encode(`{"a": [1, 2]}`) {
			if err := d.accept(id); err != nil {
				t.Fatalf("%s: accept %d: %v", name, id, err)
			}
		}
		note("complete/canTerm", d.canTerm())
		note("complete/eosAllowed", bitOn(d.fill(), eos))
		note("eos/accepted", d.accept(eos) == nil)
		note("eos/isTerm", d.isTerm())
		note("eos/canTerm", d.canTerm())
		note("eos/maskNonZero", anyBit(d.fill()))
		note("eos/secondEOSAccepted", d.accept(eos) == nil)
		note("rollback/ok", d.rollback(1) == nil)
		note("rollback/isTerm", d.isTerm())
		note("rollback/canTerm", d.canTerm())
		note("rollback/eosAllowed", bitOn(d.fill(), eos))
		note("reaccept/accepted", d.accept(eos) == nil)
		note("reaccept/isTerm", d.isTerm())
		note("reaccept/canTerm", d.canTerm())
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s end-of-generation semantics:\n got %v\nwant %v", name, got, want)
		}
	}
}

// TestMatcherBypassesSessionPool pins that standalone matchers and their
// branches neither draw from nor return to the grammar's serving-session
// pool, so SessionPoolStats counts serving recycling only.
func TestMatcherBypassesSessionPool(t *testing.T) {
	cg := mustCompileJSON(t, WithoutCompileCache())
	m := NewMatcher(cg)
	if err := m.AcceptString(`[1`); err != nil {
		t.Fatal(err)
	}
	m.Branch().Discard()
	m.Reset()
	if created, reused := cg.SessionPoolStats(); created != 0 || reused != 0 {
		t.Fatalf("matcher touched the session pool: created %d, reused %d", created, reused)
	}
}

func TestNoCacheMatchesCache(t *testing.T) {
	cached := mustCompileJSON(t)
	scanned := mustCompileJSON(t, WithoutMaskCache())
	mc, ms := NewMatcher(cached), NewMatcher(scanned)
	maskC := make([]uint64, cached.MaskWords())
	maskS := make([]uint64, scanned.MaskWords())
	doc := `{"k": [1, "s"]}`
	for i := 0; i <= len(doc); i++ {
		mc.FillNextTokenBitmask(maskC)
		ms.FillNextTokenBitmask(maskS)
		for w := range maskC {
			if maskC[w] != maskS[w] {
				t.Fatalf("mask mismatch at pos %d word %d", i, w)
			}
		}
		if i < len(doc) {
			if err := mc.AcceptString(doc[i : i+1]); err != nil {
				t.Fatal(err)
			}
			if err := ms.AcceptString(doc[i : i+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAblationOptionsCompile(t *testing.T) {
	for _, opts := range [][]CompilerOption{
		{WithoutNodeMerging()},
		{WithoutRuleInlining()},
		{WithoutContextExpansion()},
		{WithoutNodeMerging(), WithoutRuleInlining(), WithoutContextExpansion(), WithoutMaskCache()},
	} {
		cg := mustCompileJSON(t, opts...)
		m := NewMatcher(cg)
		if err := m.AcceptString(`{"a": [1]}`); err != nil {
			t.Fatalf("opts %d: %v", len(opts), err)
		}
	}
}

func TestFindJumpForwardString(t *testing.T) {
	cg, err := NewCompiler(testTokenizer(t)).CompileGrammar(
		`root ::= "{\"answer\": " ("true" | "false") "}"`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(cg)
	jf := m.FindJumpForwardString()
	if jf != `{"answer": ` {
		t.Fatalf("jump forward = %q", jf)
	}
	if err := m.AcceptString(jf); err != nil {
		t.Fatal(err)
	}
	if got := m.FindJumpForwardString(); got != "" {
		t.Fatalf("ambiguous point returned %q", got)
	}
}

func TestApplyTokenBitmaskInPlace(t *testing.T) {
	logits := []float32{1, 2, 3, 4}
	mask := []uint64{0b1010}
	ApplyTokenBitmaskInPlace(logits, mask)
	if !math.IsInf(float64(logits[0]), -1) || !math.IsInf(float64(logits[2]), -1) {
		t.Fatal("masked logits not -inf")
	}
	if logits[1] != 2 || logits[3] != 4 {
		t.Fatal("allowed logits modified")
	}
}

func TestMatcherResetReuse(t *testing.T) {
	cg := mustCompileJSON(t)
	m := NewMatcher(cg)
	if err := m.AcceptString(`[1, 2`); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if err := m.AcceptString(`"fresh"`); err != nil {
		t.Fatal(err)
	}
	if !m.CanTerminate() {
		t.Fatal("cannot terminate")
	}
}

func TestGrammarTextRendering(t *testing.T) {
	cg := mustCompileJSON(t)
	txt := cg.GrammarText()
	if !strings.Contains(txt, "root ::=") {
		t.Fatalf("GrammarText = %q", txt)
	}
}

func TestStatsShape(t *testing.T) {
	cg := mustCompileJSON(t)
	st := cg.Stats()
	if st.ContextIndependent == 0 {
		t.Fatal("no context-independent tokens")
	}
	if st.AdaptiveBytes == 0 || st.FullBitsetBytes <= st.AdaptiveBytes {
		t.Fatalf("storage stats wrong: %+v", st)
	}
	if st.PrefixCharsStepped >= st.PrefixCharsTotal {
		t.Fatalf("prefix sharing stats wrong: %+v", st)
	}
	if st.AcceptListNodes+st.RejectListNodes+st.WordMaskNodes != st.PDANodes {
		t.Fatalf("storage kind counts don't sum: %+v", st)
	}
}

// TestAdaptiveKindCoverage pins the bench workloads to both ends of the
// adaptive-representation spectrum: the ISO-date regex (xgbench's store
// case) is sparse-heavy — digit and dash states accept a handful of tokens,
// so accept-lists must dominate — while the builtin JSON grammar is
// dense-heavy — string-content states accept almost the whole vocabulary,
// so reject-lists or word masks must appear, along with at least one
// materialized canonical mask for the fused fill fast path.
func TestAdaptiveKindCoverage(t *testing.T) {
	c := NewCompiler(testTokenizer(t))

	sparse, err := c.CompileRegex(`^[0-9]{4}-[0-9]{2}-[0-9]{2}$`)
	if err != nil {
		t.Fatal(err)
	}
	ss := sparse.Stats()
	if ss.AcceptListNodes == 0 {
		t.Fatalf("sparse-heavy regex produced no accept-list nodes: %+v", ss)
	}
	if ss.AcceptListNodes <= ss.RejectListNodes+ss.WordMaskNodes {
		t.Fatalf("sparse-heavy regex not dominated by accept-lists: %+v", ss)
	}

	dense := mustCompileJSON(t)
	ds := dense.Stats()
	if ds.RejectListNodes+ds.WordMaskNodes == 0 {
		t.Fatalf("dense-heavy JSON grammar produced no reject-list or word-mask nodes: %+v", ds)
	}
	// The fused-fill fast path needs canonical word masks: word-mask nodes
	// alias theirs for free, reject-list nodes materialize under the byte
	// budget (counted in CanonicalBytes). Either way some must exist.
	if ds.WordMaskNodes == 0 && ds.CanonicalBytes == 0 {
		t.Fatalf("dense-heavy JSON grammar has no canonical masks: %+v", ds)
	}
}

func TestTrainTokenizerAndEncode(t *testing.T) {
	info := TrainTokenizer("hello world hello world hello json", 300)
	// The tiny corpus exhausts merge candidates before 300; the base
	// alphabet (specials + 256 bytes) plus some merges must be present.
	if info.VocabSize() < 260 || info.VocabSize() > 300 {
		t.Fatalf("vocab = %d", info.VocabSize())
	}
	ids := info.Encode("hello world")
	if len(ids) == 0 || info.Decode(ids) != "hello world" {
		t.Fatal("encode/decode round trip failed")
	}
	if info.Raw() == nil {
		t.Fatal("Raw returned nil")
	}
}

func TestCompileJSONSchemaPublic(t *testing.T) {
	info := testTokenizer(t)
	cg, err := NewCompiler(info).CompileJSONSchema([]byte(`{
		"type": "object",
		"properties": {"ok": {"type": "boolean"}},
		"required": ["ok"]
	}`), SchemaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(cg)
	if err := m.AcceptString(`{"ok": true}`); err != nil {
		t.Fatal(err)
	}
	if !m.CanTerminate() {
		t.Fatal("cannot terminate")
	}
	if _, err := NewCompiler(info).CompileJSONSchema([]byte(`{"allOf": []}`), SchemaOptions{}); err == nil {
		t.Fatal("unsupported schema compiled")
	}
}
