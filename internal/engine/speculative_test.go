package engine

import (
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

// specSetup builds a JSON session pool with a configurable rollback
// window and a staggered request stream over JSON documents.
func specSetup(t testing.TB, maxHistory, n int) (*tokenizer.Tokenizer, *serve.SessionPool, []*llmsim.Request) {
	t.Helper()
	tok := tokenizer.BuildDefault(500)
	p, err := pda.Compile(builtin.JSON(), pda.AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	cache := maskcache.Build(p, tok, maskcache.Options{ContextExpansion: true})
	pool := serve.NewSessionPool(p, cache, tok, maxHistory)
	return tok, pool, llmsim.NewRequests(workload.JSONDocs(n, 42), 64)
}

func runMode(t *testing.T, tok *tokenizer.Tokenizer, backend serve.Grammar, reqs []*llmsim.Request, mode Mode, spec SpecOptions, acc float64, dseed int64, jf bool) (StreamMetrics, []string) {
	t.Helper()
	streams := make([]*StreamRequest, len(reqs))
	for i, r := range reqs {
		streams[i] = &StreamRequest{Req: r, Arrival: time.Duration(i) * time.Millisecond, Grammar: backend}
	}
	met, outs, err := RunStream(StreamConfig{
		Model:       specModel(tok, llmsim.H100Llama8B(), acc, dseed),
		Mode:        mode,
		Tok:         tok,
		MaxBatch:    4,
		MaxSteps:    100000,
		JumpForward: jf,
		Spec:        spec,
	}, streams)
	if err != nil {
		t.Fatalf("mode %v: %v", mode, err)
	}
	return met, outs
}

// TestSpeculativeByteIdenticalAndFewerSteps is the core acceptance
// criterion: speculative decoding produces byte-identical outputs to the
// non-speculative baseline while spending fewer decode steps, with a
// positive acceptance rate.
func TestSpeculativeByteIdenticalAndFewerSteps(t *testing.T) {
	tok, backend, reqs := specSetup(t, 0, 6)
	base, baseOuts := runMode(t, tok, backend, reqs, Overlap, SpecOptions{}, 0, 0, false)
	sp, spOuts := runMode(t, tok, backend, reqs, Speculative,
		SpecOptions{DraftTokens: 4}, 0.8, 7, false)

	for i := range baseOuts {
		if baseOuts[i] != spOuts[i] {
			t.Fatalf("output %d differs:\n base %q\n spec %q", i, baseOuts[i], spOuts[i])
		}
		if baseOuts[i] != reqs[i].Target {
			t.Fatalf("output %d does not match target", i)
		}
	}
	if sp.SpecProposed == 0 || sp.SpecAccepted == 0 {
		t.Fatalf("no speculative activity: proposed %d accepted %d", sp.SpecProposed, sp.SpecAccepted)
	}
	if rate := sp.AcceptanceRate(); rate <= 0 || rate > 1 {
		t.Fatalf("acceptance rate %v out of range", rate)
	}
	if sp.DecodeSteps >= base.DecodeSteps {
		t.Fatalf("speculative used %d decode steps, baseline %d — no saving", sp.DecodeSteps, base.DecodeSteps)
	}
	// Every accepted draft token is a saved step: steps + accepted must
	// cover the same token work as the baseline's steps.
	if sp.DecodeSteps+sp.StepsSaved() < base.DecodeSteps {
		t.Fatalf("accounting hole: %d spec steps + %d saved < %d baseline steps",
			sp.DecodeSteps, sp.StepsSaved(), base.DecodeSteps)
	}
	if sp.OutputTokens != base.OutputTokens {
		t.Fatalf("output tokens differ: %d vs %d", sp.OutputTokens, base.OutputTokens)
	}
}

// TestSpeculativePerfectDraftSavesMost pins the best case: with a perfect
// draft model every window is fully accepted, so decode steps shrink by
// roughly the window factor.
func TestSpeculativePerfectDraftSavesMost(t *testing.T) {
	tok, backend, reqs := specSetup(t, 0, 4)
	base, baseOuts := runMode(t, tok, backend, reqs, Overlap, SpecOptions{}, 0, 0, false)
	sp, spOuts := runMode(t, tok, backend, reqs, Speculative,
		SpecOptions{DraftTokens: 4}, 1.0, 0, false)
	for i := range baseOuts {
		if baseOuts[i] != spOuts[i] {
			t.Fatalf("output %d differs", i)
		}
	}
	if sp.SpecDrafted != sp.SpecAccepted {
		t.Fatalf("perfect draft rejected: drafted %d accepted %d", sp.SpecDrafted, sp.SpecAccepted)
	}
	// A full window commits k+1 tokens per round; require at least a 2x
	// step reduction (conservative: windows truncate at target ends).
	if sp.DecodeSteps*2 > base.DecodeSteps {
		t.Fatalf("perfect draft saved too little: %d vs %d steps", sp.DecodeSteps, base.DecodeSteps)
	}
}

// TestSpeculativeWindowOverflowFallsBack pins the rollback-window
// satellite end to end: sessions whose history cannot retract the draft
// window must decode non-speculatively — correct outputs, no speculative
// savings, fallbacks counted.
func TestSpeculativeWindowOverflowFallsBack(t *testing.T) {
	tok, backend, reqs := specSetup(t, 3, 4) // history 3 < window 8
	sp, outs := runMode(t, tok, backend, reqs, Speculative,
		SpecOptions{DraftTokens: 8}, 0.9, 0, false)
	for i := range outs {
		if outs[i] != reqs[i].Target {
			t.Fatalf("fallback output %d wrong:\n got %q\n want %q", i, outs[i], reqs[i].Target)
		}
	}
	if sp.SpecFallbacks == 0 {
		t.Fatal("no fallbacks counted despite window > rollback history")
	}
	if sp.SpecProposed != 0 || sp.SpecAccepted != 0 {
		t.Fatalf("speculative work happened despite overflow: proposed %d", sp.SpecProposed)
	}
}

// TestSpeculativeWithJumpForward checks the two accelerations compose:
// jump-forward insertion after each committed round, draft windows in
// between, outputs still exact.
func TestSpeculativeWithJumpForward(t *testing.T) {
	tok, backend, reqs := specSetup(t, 0, 4)
	sp, outs := runMode(t, tok, backend, reqs, Speculative,
		SpecOptions{DraftTokens: 3}, 0.7, 11, true)
	for i := range outs {
		if outs[i] != reqs[i].Target {
			t.Fatalf("output %d wrong with jump-forward", i)
		}
	}
	if sp.SpecAccepted == 0 {
		t.Fatal("no speculative acceptance with jump-forward enabled")
	}
}

// TestRunSpeculativeMode covers the fixed-batch entry point with Mode
// Speculative.
func TestRunSpeculativeMode(t *testing.T) {
	tok, backend, reqs := specSetup(t, 0, 3)
	met, outs, err := Run(Config{
		Model:    specModel(tok, llmsim.H100Llama8B(), 0.9, 0),
		Mode:     Speculative,
		Grammar:  backend,
		Tok:      tok,
		MaxSteps: 100000,
		Spec:     SpecOptions{DraftTokens: 4},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if outs[i] != reqs[i].Target {
			t.Fatalf("output %d wrong", i)
		}
	}
	if met.DecodeSteps == 0 || met.OutputTokens == 0 {
		t.Fatal("no work recorded")
	}
}
