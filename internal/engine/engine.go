// Package engine is the serving engine co-designed with the grammar runtime
// (§3.5): continuous-batching decoding where sequences join and leave the
// running batch mid-decode, each step's wall time combines the model
// backend's modelled accelerator time (backend.Timing — the llmsim latency
// profile for simulation backends) with measured grammar CPU time — either
// serialized (mask generation on the critical path) or overlapped (the
// whole batch's masks filled through a persistent worker pool while the
// GPU step runs, synchronizing before sampling). Jump-forward decoding
// (Appendix B) inserts forced tokens without spending decode steps.
//
// The engine never names a model implementation: every sequence's tokens
// come from a backend.Sequence (teacher-forced simulation, an HTTP model
// server, ...), and the grammar side stays behind the serve.Grammar session
// contract.
package engine

import (
	"time"

	"xgrammar/internal/backend"
	"xgrammar/internal/serve"
	"xgrammar/internal/tokenizer"
)

// Mode selects how grammar work is scheduled against the GPU.
type Mode int

// Scheduling modes.
const (
	// Unconstrained disables grammar checking entirely.
	Unconstrained Mode = iota
	// Serial puts mask generation on the critical path (vLLM/llama.cpp
	// style in the paper's comparison).
	Serial
	// Overlap hides mask generation behind the GPU decode step and
	// synchronizes before sampling (§3.5).
	Overlap
	// Speculative is Overlap plus draft-verify decoding: each round the
	// backend's draft hook proposes a token window, the grammar
	// speculatively accepts it (capturing per-position masks for the verify
	// pass), and the rejected suffix is retracted through the matcher's
	// rollback window — sequences advance by accepted+1 tokens per GPU step.
	Speculative
)

func (m Mode) String() string {
	switch m {
	case Unconstrained:
		return "unconstrained"
	case Serial:
		return "serial"
	case Speculative:
		return "speculative"
	default:
		return "overlap"
	}
}

// overlapped reports whether grammar work is hidden behind the GPU step
// (Overlap scheduling, which Speculative builds on).
func (m Mode) overlapped() bool { return m == Overlap || m == Speculative }

// Config describes one fixed-batch engine configuration (the Run entry
// point); RunStream takes the richer StreamConfig.
type Config struct {
	// Model is the model backend sequences decode against. Required.
	Model backend.Backend
	Mode  Mode
	// Grammar supplies grammar sessions; ignored when Mode==Unconstrained.
	Grammar serve.Grammar
	Tok     *tokenizer.Tokenizer
	// JumpForward enables forced-token insertion when the grammar session
	// supports it.
	JumpForward bool
	// GrammarInitTime is the measured preprocessing cost (mask cache
	// build); overlapped with prefill in Overlap mode (§3.5).
	GrammarInitTime time.Duration
	// MaxSteps guards against runaway generations.
	MaxSteps int
	// Spec configures draft-verify decoding when Mode is Speculative.
	Spec SpecOptions
}

// Metrics aggregates one run.
type Metrics struct {
	Requests          int
	OutputTokens      int
	DecodeSteps       int
	JumpForwardTokens int
	// TTFT is the mean time from request arrival to first token (prefill +
	// grammar init + first decode step, plus any queueing).
	TTFT time.Duration
	// TPOT is the mean, over requests, of decode latency per output token.
	TPOT time.Duration
	// MaskCPU is the total measured grammar CPU time.
	MaskCPU time.Duration
	// GPUTime is the total modelled GPU time (the backend's Timing).
	GPUTime time.Duration
	// Wall is the total modelled wall time.
	Wall time.Duration
}

// TokensPerSecond is the run's output-token throughput.
func (m Metrics) TokensPerSecond() float64 {
	if m.Wall <= 0 {
		return 0
	}
	return float64(m.OutputTokens) / m.Wall.Seconds()
}

// seqState is the per-sequence decoding state shared by the continuous
// scheduler.
type seqState struct {
	req       *backend.Request
	seq       backend.Sequence
	session   serve.GrammarSession
	idx       int // position in the caller's request slice
	outTokens int
	done      bool
	failed    bool
	finishAt  time.Duration
	output    []byte
}

func (s *seqState) index() int { return s.idx }

// Run decodes all requests as one fixed batch: the continuous-batching
// scheduler with every request arriving at time zero and no batch bound.
func Run(cfg Config, reqs []*backend.Request) (Metrics, []string, error) {
	streams := make([]*StreamRequest, len(reqs))
	for i, r := range reqs {
		streams[i] = &StreamRequest{Req: r, GrammarInit: cfg.GrammarInitTime}
	}
	sm, outs, err := RunStream(StreamConfig{
		Model:       cfg.Model,
		Mode:        cfg.Mode,
		Grammar:     cfg.Grammar,
		Tok:         cfg.Tok,
		JumpForward: cfg.JumpForward,
		MaxSteps:    cfg.MaxSteps,
		Spec:        cfg.Spec,
	}, streams)
	return sm.Metrics, outs, err
}

// consume applies an emitted token to the sequence state.
func (s *seqState) consume(tok *tokenizer.Tokenizer, id int32) {
	if id == tokenizer.EosID {
		s.done = true
		return
	}
	b := tok.TokenBytes(id)
	s.output = append(s.output, b...)
	s.outTokens++
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
