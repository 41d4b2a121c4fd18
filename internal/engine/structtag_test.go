package engine

import (
	"testing"
	"time"

	"xgrammar"
	"xgrammar/internal/llmsim"
	"xgrammar/internal/structtag"
)

// tagTestSetup compiles a two-tag structural-tag backend over the shared
// 500-token test tokenizer.
func tagTestSetup(t testing.TB) (*structtag.Set, *xgrammar.TokenizerInfo) {
	t.Helper()
	info := xgrammar.DefaultTokenizer(500)
	comp := xgrammar.NewCompiler(info)
	ts, err := comp.CompileStructuralTags(xgrammar.StructuralTags{
		{
			Begin: "<tool>",
			Grammar: xgrammar.GrammarSpec{Kind: xgrammar.KindJSONSchema, Source: `{
				"type": "object",
				"properties": {"a": {"type": "integer", "minimum": 0, "maximum": 99}},
				"required": ["a"]
			}`},
			End: "</tool>",
		},
		{
			Begin: "<ask>",
			Grammar: xgrammar.GrammarSpec{Kind: xgrammar.KindJSONSchema, Source: `{
				"type": "object",
				"properties": {"q": {"type": "string", "maxLength": 8}},
				"required": ["q"]
			}`},
			End: "</ask>",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ts.Dispatch(), info
}

// tagTargets interleave free text with schema-valid tagged segments.
func tagTargets() []string {
	return []string{
		`checking the weather <tool>{"a": 12}</tool> back to prose`,
		`<ask>{"q": "books"}</ask> plain tail with <brackets> that are not triggers`,
		`two calls: <tool>{"a": 7}</tool> and <ask>{"q": "go"}</ask> done`,
	}
}

// TestStructTagRunMatchesTargets teacher-forces tag-laden targets through
// the continuous engine in every constrained mode: outputs must reproduce
// the targets byte-identically, including across segment boundaries where
// BPE tokens span the end tag.
func TestStructTagRunMatchesTargets(t *testing.T) {
	backend, info := tagTestSetup(t)
	targets := tagTargets()
	for _, jf := range []bool{false, true} {
		for _, mode := range []Mode{Serial, Overlap} {
			reqs := llmsim.NewRequests(targets, 50)
			met, outs, err := Run(Config{
				Model: testModel(info.Raw()), Mode: mode, Grammar: backend,
				Tok: info.Raw(), JumpForward: jf,
			}, reqs)
			if err != nil {
				t.Fatalf("mode %v jf %v: %v", mode, jf, err)
			}
			for i, o := range outs {
				if o != targets[i] {
					t.Fatalf("mode %v jf %v: output %d = %q, want %q", mode, jf, i, o, targets[i])
				}
			}
			if met.OutputTokens == 0 {
				t.Fatalf("mode %v jf %v: degenerate metrics %+v", mode, jf, met)
			}
			if jf && met.JumpForwardTokens == 0 {
				t.Fatal("no jump-forward insertion inside constrained segments")
			}
		}
	}
}

// TestStructTagSpeculativeByteIdentical runs the same tag-laden stream in
// Overlap and Speculative modes: outputs must be byte-identical (tag
// sessions fall back to plain decoding inside a speculative run, mixed
// batches still speculate on their plain-grammar sequences).
func TestStructTagSpeculativeByteIdentical(t *testing.T) {
	backend, info := tagTestSetup(t)
	targets := tagTargets()
	run := func(mode Mode) []string {
		reqs := make([]*StreamRequest, len(targets))
		for i, r := range llmsim.NewRequests(targets, 50) {
			reqs[i] = &StreamRequest{Req: r, Arrival: time.Duration(i) * 100 * time.Microsecond, Grammar: backend}
		}
		_, outs, err := RunStream(StreamConfig{
			Model: specModel(info.Raw(), testProfile(), 0.9, 3),
			Mode:  mode, Tok: info.Raw(), JumpForward: true,
			Spec: SpecOptions{DraftTokens: 4},
		}, reqs)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		return outs
	}
	plain := run(Overlap)
	spec := run(Speculative)
	for i := range plain {
		if plain[i] != spec[i] {
			t.Fatalf("output %d differs between overlap and speculative:\n%q\n%q", i, plain[i], spec[i])
		}
		if plain[i] != targets[i] {
			t.Fatalf("output %d = %q, want %q", i, plain[i], targets[i])
		}
	}
}

// TestStructTagContinuousBatching staggers tag requests so they join and
// leave a running batch, with pooled dispatcher sessions recycled across
// arrivals.
func TestStructTagContinuousBatching(t *testing.T) {
	backend, info := tagTestSetup(t)
	base := tagTargets()
	var targets []string
	for i := 0; i < 3; i++ {
		targets = append(targets, base...)
	}
	reqs := make([]*StreamRequest, len(targets))
	for i, r := range llmsim.NewRequests(targets, 30) {
		reqs[i] = &StreamRequest{Req: r, Arrival: time.Duration(i) * 150 * time.Microsecond, Grammar: backend}
	}
	met, outs, err := RunStream(StreamConfig{
		Model: testModel(info.Raw()), Mode: Overlap, Tok: info.Raw(),
		MaxBatch: 4, JumpForward: true,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o != targets[i] {
			t.Fatalf("output %d = %q, want %q", i, o, targets[i])
		}
	}
	if met.Joins != len(targets) || met.Leaves != len(targets) {
		t.Fatalf("join/leave accounting: %+v", met)
	}
	if met.PeakBatch > 4 {
		t.Fatalf("batch bound violated: peak %d", met.PeakBatch)
	}
}
