package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xgrammar/internal/backend"
	"xgrammar/internal/llmsim"
	"xgrammar/internal/tokenizer"
)

// faultModel wraps a real model backend and swaps in a scripted faulty
// sequence for chosen requests — the engine must fail exactly those
// sequences and decode the rest of the batch to completion.
type faultModel struct {
	inner  backend.Backend
	fault  func(req backend.Request, seq backend.Sequence) backend.Sequence
	opened atomic.Int64
	closed atomic.Int64
}

func (m *faultModel) Name() string           { return "fault" }
func (m *faultModel) Timing() backend.Timing { return m.inner.Timing() }
func (m *faultModel) Close() error           { return m.inner.Close() }

func (m *faultModel) Open(req backend.Request) (backend.Sequence, error) {
	s, err := m.inner.Open(req)
	if err != nil {
		return nil, err
	}
	m.opened.Add(1)
	if f := m.fault(req, s); f != nil {
		s = f
	}
	return &closeCountingSeq{Sequence: s, closed: &m.closed}, nil
}

type closeCountingSeq struct {
	backend.Sequence
	closed *atomic.Int64
}

func (s *closeCountingSeq) Close() {
	s.closed.Add(1)
	s.Sequence.Close()
}

// Draft forwards the inner sequence's speculator hook when present.
func (s *closeCountingSeq) Draft(ctx context.Context, k int) (backend.Proposer, bool) {
	if sp, ok := s.Sequence.(backend.Speculator); ok {
		return sp.Draft(ctx, k)
	}
	return nil, false
}

// errAfterSeq emits n good tokens, then fails every Next.
type errAfterSeq struct {
	backend.Sequence
	n   int
	err error
}

func (s *errAfterSeq) Next(ctx context.Context, mask []uint64) (int32, error) {
	if s.n <= 0 {
		return 0, s.err
	}
	s.n--
	return s.Sequence.Next(ctx, mask)
}

// badTokenSeq emits n good tokens, then returns a fixed malformed id.
type badTokenSeq struct {
	backend.Sequence
	n  int
	id int32
}

func (s *badTokenSeq) Next(ctx context.Context, mask []uint64) (int32, error) {
	if s.n <= 0 {
		return s.id, nil
	}
	s.n--
	return s.Sequence.Next(ctx, mask)
}

// slowSeq blocks inside Next until the engine's context is canceled.
type slowSeq struct{ backend.Sequence }

func (s *slowSeq) Next(ctx context.Context, _ []uint64) (int32, error) {
	<-ctx.Done()
	return 0, ctx.Err()
}

// runFaulted decodes reqs against the pooled JSON grammar with the given
// faulty model and returns the metrics, outputs, and model.
func runFaulted(t *testing.T, mode Mode, spec SpecOptions, fm *faultModel, n int) (StreamMetrics, []string, []*llmsim.Request, error) {
	t.Helper()
	_, grammar, reqs := specSetup(t, 0, n)
	streams := make([]*StreamRequest, len(reqs))
	for i, r := range reqs {
		streams[i] = &StreamRequest{Req: r, Arrival: time.Duration(i) * 100 * time.Microsecond, Grammar: grammar}
	}
	tok := tokenizer.BuildDefault(500)
	met, outs, err := RunStream(StreamConfig{
		Model: fm, Mode: mode, Tok: tok, MaxBatch: 4, Spec: spec,
	}, streams)
	return met, outs, reqs, err
}

// TestFaultMidStreamError pins the error taxonomy: a model backend failing
// mid-stream abandons only its own sequence — partial output returned, batch
// unaffected, every model sequence closed, join/leave balanced.
func TestFaultMidStreamError(t *testing.T) {
	tok := tokenizer.BuildDefault(500)
	boom := errors.New("backend exploded")
	fm := &faultModel{
		inner: testModel(tok),
		fault: func(req backend.Request, seq backend.Sequence) backend.Sequence {
			if req.ID == 2 {
				return &errAfterSeq{Sequence: seq, n: 3, err: boom}
			}
			return nil
		},
	}
	met, outs, reqs, err := runFaulted(t, Overlap, SpecOptions{}, fm, 4)
	if err != nil {
		t.Fatalf("run must survive a per-sequence model fault: %v", err)
	}
	if met.ModelErrors != 1 {
		t.Fatalf("ModelErrors = %d, want 1", met.ModelErrors)
	}
	for i, o := range outs {
		if i == 2 {
			if o == reqs[i].Target || !strings.HasPrefix(reqs[i].Target, o) {
				t.Fatalf("failed sequence output %q is not a strict prefix of target", o)
			}
			continue
		}
		if o != reqs[i].Target {
			t.Fatalf("healthy sequence %d corrupted by neighbor fault: %q", i, o)
		}
	}
	if met.Joins != 4 || met.Leaves != 4 {
		t.Fatalf("join/leave imbalance after fault: %+v", met)
	}
	if got := fm.closed.Load(); got != fm.opened.Load() || got != 4 {
		t.Fatalf("model sequences closed %d of %d opened, want 4", got, fm.opened.Load())
	}
}

// TestFaultMalformedToken covers backends returning ids the engine must
// reject: out-of-vocabulary and grammar-masked-out tokens both fail the
// sequence, not the run.
func TestFaultMalformedToken(t *testing.T) {
	tok := tokenizer.BuildDefault(500)
	closeBrace := tok.Encode("}")[0] // disallowed at a JSON document start
	fm := &faultModel{
		inner: testModel(tok),
		fault: func(req backend.Request, seq backend.Sequence) backend.Sequence {
			switch req.ID {
			case 0:
				return &badTokenSeq{Sequence: seq, n: 0, id: int32(tok.VocabSize() + 5)}
			case 3:
				return &badTokenSeq{Sequence: seq, n: 0, id: closeBrace}
			}
			return nil
		},
	}
	met, outs, reqs, err := runFaulted(t, Overlap, SpecOptions{}, fm, 4)
	if err != nil {
		t.Fatalf("run must survive malformed backend tokens: %v", err)
	}
	if met.ModelErrors != 2 {
		t.Fatalf("ModelErrors = %d, want 2", met.ModelErrors)
	}
	for _, i := range []int{1, 2} {
		if outs[i] != reqs[i].Target {
			t.Fatalf("healthy sequence %d corrupted: %q", i, outs[i])
		}
	}
	if met.Joins != met.Leaves {
		t.Fatalf("join/leave imbalance: %+v", met)
	}
}

// TestFaultSlowBackendCancel pins context plumbing: a backend stuck in Next
// observes the run context's cancellation, the engine drains every sequence
// cleanly (sessions back to the pool, model sequences closed) and returns
// partial outputs with the context error.
func TestFaultSlowBackendCancel(t *testing.T) {
	tok := tokenizer.BuildDefault(500)
	fm := &faultModel{
		inner: testModel(tok),
		fault: func(req backend.Request, seq backend.Sequence) backend.Sequence {
			if req.ID == 0 {
				return &slowSeq{Sequence: seq}
			}
			return nil
		},
	}
	_, grammar, reqs := specSetup(t, 0, 3)
	streams := make([]*StreamRequest, len(reqs))
	for i, r := range reqs {
		streams[i] = &StreamRequest{Req: r, Grammar: grammar}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	met, outs, err := RunStream(StreamConfig{
		Model: fm, Mode: Overlap, Tok: tok, Ctx: ctx,
	}, streams)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if outs == nil {
		t.Fatal("canceled run must still return partial outputs")
	}
	if met.Joins != met.Leaves {
		t.Fatalf("canceled run leaked sequences: %+v", met)
	}
	if got := fm.closed.Load(); got != fm.opened.Load() {
		t.Fatalf("model sequences closed %d of %d opened", got, fm.opened.Load())
	}
	if met.ModelErrors == 0 {
		t.Fatal("stuck sequence not counted as model error")
	}
}

// TestFaultSpeculativeVerifyError injects a failure mid-verify: the
// confirmed prefix stays committed, the sequence leaves cleanly, and the
// rest of the speculative batch still matches its targets.
func TestFaultSpeculativeVerifyError(t *testing.T) {
	tok := tokenizer.BuildDefault(500)
	boom := errors.New("verify lost")
	fm := &faultModel{
		inner: specModel(tok, testProfile(), 0.9, 7),
		fault: func(req backend.Request, seq backend.Sequence) backend.Sequence {
			if req.ID == 2 {
				return &errAfterSeq{Sequence: seq, n: 6, err: boom}
			}
			return nil
		},
	}
	met, outs, reqs, err := runFaulted(t, Speculative, SpecOptions{DraftTokens: 4}, fm, 3)
	if err != nil {
		t.Fatalf("speculative run must survive a verify fault: %v", err)
	}
	if met.ModelErrors != 1 {
		t.Fatalf("ModelErrors = %d, want 1", met.ModelErrors)
	}
	for _, i := range []int{0, 1} {
		if outs[i] != reqs[i].Target {
			t.Fatalf("healthy speculative sequence %d corrupted: %q", i, outs[i])
		}
	}
	if !strings.HasPrefix(reqs[2].Target, outs[2]) {
		t.Fatalf("failed sequence output %q not a prefix of its target", outs[2])
	}
	if met.Joins != met.Leaves {
		t.Fatalf("join/leave imbalance: %+v", met)
	}
}

// TestFaultPoolReuseAfterFailure checks failed sequences return their pooled
// grammar sessions: a second wave over the same pool must reuse sessions.
func TestFaultPoolReuseAfterFailure(t *testing.T) {
	tok, grammar, reqs := specSetup(t, 0, 6)
	boom := errors.New("flaky backend")
	fm := &faultModel{
		inner: testModel(tok),
		fault: func(req backend.Request, seq backend.Sequence) backend.Sequence {
			if req.ID%2 == 0 {
				return &errAfterSeq{Sequence: seq, n: 2, err: boom}
			}
			return nil
		},
	}
	streams := make([]*StreamRequest, len(reqs))
	for i, r := range reqs {
		streams[i] = &StreamRequest{Req: r, Arrival: time.Duration(i) * time.Millisecond, Grammar: grammar}
	}
	met, _, err := RunStream(StreamConfig{
		Model: fm, Mode: Overlap, Tok: tok, MaxBatch: 2,
	}, streams)
	if err != nil {
		t.Fatal(err)
	}
	if met.ModelErrors != 3 {
		t.Fatalf("ModelErrors = %d, want 3", met.ModelErrors)
	}
	if st := grammar.Stats(); st.Reused == 0 {
		t.Fatalf("failed sequences did not return sessions to the pool: %+v", st)
	}
}
