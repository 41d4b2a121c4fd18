package engine

import (
	"strings"
	"testing"
	"time"

	"xgrammar/internal/builtin"
	"xgrammar/internal/llmsim"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/pda"
	"xgrammar/internal/serve"
	"xgrammar/internal/tokenizer"
	"xgrammar/internal/workload"
)

func testSetup(t testing.TB) (*tokenizer.Tokenizer, serve.Grammar) {
	t.Helper()
	tok := tokenizer.BuildDefault(500)
	p, err := pda.Compile(builtin.JSON(), pda.AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	cache := maskcache.Build(p, tok, maskcache.Options{ContextExpansion: true})
	return tok, serve.NewSessionPool(p, cache, tok, 0)
}

func testProfile() llmsim.Profile {
	// A fast profile so tests run quickly but the overlap math is exercised.
	return llmsim.Profile{
		Name:            "test",
		DecodeBase:      200 * time.Microsecond,
		DecodePerSeq:    10 * time.Microsecond,
		PrefillPerToken: 5 * time.Microsecond,
		SamplePerStep:   time.Microsecond,
	}
}

func jsonTargets(n int) []string {
	return workload.JSONDocs(n, 99)
}

func TestUnconstrainedRun(t *testing.T) {
	tok, _ := testSetup(t)
	targets := jsonTargets(3)
	reqs := llmsim.NewRequests(targets, 139)
	met, outs, err := Run(Config{Model: testModel(tok), Mode: Unconstrained, Tok: tok}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o != targets[i] {
			t.Fatalf("output %d = %q, want %q", i, o, targets[i])
		}
	}
	if met.OutputTokens == 0 || met.DecodeSteps == 0 || met.TPOT == 0 {
		t.Fatalf("degenerate metrics: %+v", met)
	}
	if met.MaskCPU != 0 {
		t.Fatal("unconstrained run measured grammar CPU")
	}
}

func TestConstrainedMatchesTargets(t *testing.T) {
	tok, backend := testSetup(t)
	targets := jsonTargets(3)
	reqs := llmsim.NewRequests(targets, 139)
	for _, mode := range []Mode{Serial, Overlap} {
		met, outs, err := Run(Config{Model: testModel(tok), Mode: mode, Grammar: backend, Tok: tok}, reqs)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		for i, o := range outs {
			if o != targets[i] {
				t.Fatalf("mode %v: output %d = %q, want %q", mode, i, o, targets[i])
			}
		}
		if met.MaskCPU == 0 {
			t.Fatalf("mode %v: no grammar CPU measured", mode)
		}
	}
}

func TestOverlapHidesGrammarCPU(t *testing.T) {
	tok, backend := testSetup(t)
	targets := jsonTargets(4)
	serialMet, _, err := Run(Config{Model: testModel(tok), Mode: Serial, Grammar: backend, Tok: tok},
		llmsim.NewRequests(targets, 139))
	if err != nil {
		t.Fatal(err)
	}
	overlapMet, _, err := Run(Config{Model: testModel(tok), Mode: Overlap, Grammar: backend, Tok: tok},
		llmsim.NewRequests(targets, 139))
	if err != nil {
		t.Fatal(err)
	}
	if overlapMet.Wall >= serialMet.Wall {
		t.Fatalf("overlap (%v) not faster than serial (%v)", overlapMet.Wall, serialMet.Wall)
	}
}

func TestJumpForwardReducesSteps(t *testing.T) {
	tok := tokenizer.BuildDefault(500)
	// A schema-like grammar with long forced runs.
	task := workload.SchemaTasks(1, 5)[0]
	g, err := compileSchema(task.Schema)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pda.Compile(g, pda.AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	cache := maskcache.Build(p, tok, maskcache.Options{ContextExpansion: true})
	backend := serve.NewSessionPool(p, cache, tok, 0)
	reqs := llmsim.NewRequests([]string{task.Instance}, 139)
	plain, outs, err := Run(Config{Model: testModel(tok), Mode: Overlap, Grammar: backend, Tok: tok}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] != task.Instance {
		t.Fatalf("plain output mismatch: %q", outs[0])
	}
	jfMet, outs2, err := Run(Config{Model: testModel(tok), Mode: Overlap, Grammar: backend, Tok: tok, JumpForward: true},
		llmsim.NewRequests([]string{task.Instance}, 139))
	if err != nil {
		t.Fatal(err)
	}
	if outs2[0] != task.Instance {
		t.Fatalf("jump-forward output mismatch: %q vs %q", outs2[0], task.Instance)
	}
	if jfMet.JumpForwardTokens == 0 {
		t.Fatal("no jump-forward tokens on a schema task")
	}
	if jfMet.DecodeSteps >= plain.DecodeSteps {
		t.Fatalf("jump-forward did not reduce steps: %d vs %d", jfMet.DecodeSteps, plain.DecodeSteps)
	}
}

func TestBatchScalesGPU(t *testing.T) {
	tok, backend := testSetup(t)
	one, _, err := Run(Config{Model: testModel(tok), Mode: Overlap, Grammar: backend, Tok: tok},
		llmsim.NewRequests(jsonTargets(1), 10))
	if err != nil {
		t.Fatal(err)
	}
	many, _, err := Run(Config{Model: testModel(tok), Mode: Overlap, Grammar: backend, Tok: tok},
		llmsim.NewRequests(jsonTargets(8), 10))
	if err != nil {
		t.Fatal(err)
	}
	if many.GPUTime <= one.GPUTime {
		t.Fatal("batch GPU time did not grow")
	}
	if many.Requests != 8 || one.Requests != 1 {
		t.Fatal("request counts wrong")
	}
}

func TestNoiseCorruptsUnconstrainedOnly(t *testing.T) {
	// Sanity for the Table 4 pipeline: noisy targets fail validation,
	// clean targets pass.
	tok, backend := testSetup(t)
	_ = backend
	targets := jsonTargets(1)
	rngSeed := int64(1)
	noisy, corrupted := llmsim.MakeNoisy(targets[0], llmsim.NoiseOptions{ProseProb: 1.0}, newRng(rngSeed))
	if !corrupted {
		t.Fatal("ProseProb=1 did not corrupt")
	}
	if noisy == targets[0] {
		t.Fatal("noisy equals clean")
	}
	reqs := llmsim.NewRequests([]string{noisy}, 10)
	_, outs, err := Run(Config{Model: testModel(tok), Mode: Unconstrained, Tok: tok}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(outs[0], targets[0]) {
		t.Fatalf("noisy output lost payload: %q", outs[0])
	}
}

func TestTTFTIncludesGrammarInitSerially(t *testing.T) {
	tok, backend := testSetup(t)
	init := 50 * time.Millisecond
	reqs := llmsim.NewRequests(jsonTargets(1), 100)
	ser, _, err := Run(Config{Model: testModel(tok), Mode: Serial, Grammar: backend, Tok: tok, GrammarInitTime: init}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ovl, _, err := Run(Config{Model: testModel(tok), Mode: Overlap, Grammar: backend, Tok: tok, GrammarInitTime: init},
		llmsim.NewRequests(jsonTargets(1), 100))
	if err != nil {
		t.Fatal(err)
	}
	if ser.TTFT <= ovl.TTFT {
		t.Fatalf("serial TTFT (%v) should exceed overlapped TTFT (%v)", ser.TTFT, ovl.TTFT)
	}
	if ser.TTFT < init {
		t.Fatalf("serial TTFT (%v) below grammar init (%v)", ser.TTFT, init)
	}
}
