// Package backend defines the pluggable model-backend abstraction the
// decode stack is built on: prompt/context in, masked next-token out, plus a
// draft-proposal hook for speculative decoding. The grammar side of the
// system (the serve.Grammar session contract, the mask compiler, the
// serving sessions) constrains WHAT may be emitted; a model backend decides
// WHICH of the allowed tokens is emitted — and, through its Timing
// profile, how long the accelerator side of a decode step is modelled to
// take.
//
// Two implementations ship with the repo: internal/backend/simllm adapts
// the teacher-forced simulated LLM (internal/llmsim) and the gateway's
// seeded sampler, and internal/backend/httpllm speaks an OpenAI-compatible /
// llama.cpp-style HTTP completions protocol with per-step token masking.
// The engine (internal/engine), the gateway batcher (internal/server), and
// the cmd-layer tools select backends through the registry in this package,
// so none of them name a concrete model implementation.
package backend

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Request is one generation a model backend serves: the prompt (as text
// and/or a modelled token count) and, for teacher-forced simulation
// backends, the clean target the model intends to produce. Real-model
// backends ignore Target.
type Request struct {
	// ID identifies the sequence within a run; deterministic simulation
	// backends fold it into their per-sequence randomness so runs are
	// reproducible request by request.
	ID int
	// PromptTokens is the modelled prompt length (prefill cost).
	PromptTokens int
	// Prompt is the prompt text, for backends that consume real prompts.
	Prompt string
	// Target is the clean output a teacher-forced simulation backend
	// reproduces; real backends ignore it.
	Target string
	// Seed makes sampling backends deterministic; 0 lets the backend choose.
	Seed int64
	// MaxTokens hints the output bound (backends may use it to size
	// server-side state; enforcement stays with the caller).
	MaxTokens int
}

// NewRequests builds requests from target strings with the paper's average
// prompt length (139 tokens, §4.2).
func NewRequests(targets []string, promptTokens int) []*Request {
	out := make([]*Request, len(targets))
	for i, tgt := range targets {
		out[i] = &Request{ID: i, PromptTokens: promptTokens, Target: tgt}
	}
	return out
}

// String implements fmt.Stringer.
func (r *Request) String() string {
	return fmt.Sprintf("req%d(prompt=%d, target=%dB)", r.ID, r.PromptTokens, len(r.Target))
}

// ErrNoToken reports that the backend cannot emit any token under the given
// mask (for sampling backends: the allowed set is empty and the stop token
// is not permitted). Callers treat it as a clean end-of-sequence condition,
// not a backend failure.
var ErrNoToken = errors.New("backend: no legal token under the mask")

// Proposer is a draft model's guess: called once per window position with
// the position index and the grammar's allowed-token mask there, it returns
// the draft token, or ok=false to stop drafting early. It mirrors
// spec.Proposer so a backend's draft hook plugs straight into spec.Step.
type Proposer func(pos int, mask []uint64) (id int32, ok bool)

// Sequence is one live generation against a backend. It is driven from a
// single goroutine by the decode loop that owns it.
type Sequence interface {
	// Next returns the model's next token given the grammar's allowed-token
	// mask (bit i set means token i is legal; nil means unconstrained). The
	// returned token is committed: the backend advances its state. Next
	// returns ErrNoToken when no legal token can be emitted, and any other
	// error when the backend failed (the sequence is then abandoned).
	Next(ctx context.Context, mask []uint64) (int32, error)
	// ObserveForced informs the backend that text was force-inserted into
	// the output without sampling (jump-forward decoding, trigger
	// injection). ok=false means the backend cannot absorb the insertion
	// (e.g. a teacher-forced model whose target diverges); the caller must
	// then not insert the text.
	ObserveForced(text string) bool
	// Close releases per-sequence backend state (server-side sessions,
	// buffers). The sequence must not be used afterwards.
	Close()
}

// Speculator is the optional draft-proposal hook of a Sequence: Draft is
// called before a speculative round and returns the draft proposer for a
// window of up to k tokens, or ok=false when the backend cannot draft this
// round (the round then decodes plainly). Proposing must not advance the
// sequence: only tokens later confirmed through Next are committed.
type Speculator interface {
	Draft(ctx context.Context, k int) (propose Proposer, ok bool)
}

// TriggerProposer is the optional tool-call hook of a Sequence: for
// structural-tag generations in free text, ProposeTrigger lets the model
// elect to open one of n tool-call segments (returning which). Simulation
// backends decide with their seeded RNG; real-model backends emit begin
// tags through ordinary sampling instead and do not implement this.
type TriggerProposer interface {
	ProposeTrigger(n int) (idx int, ok bool)
}

// Timing models the accelerator-side latency of a backend for simulated
// clocks (the engine's modelled wall time). llmsim.Profile satisfies it;
// real backends report zeros and are measured, not modelled.
type Timing interface {
	// Prefill is the modelled prompt-processing time.
	Prefill(promptTokens int) time.Duration
	// DecodeStep is the modelled forward-pass time at a batch size.
	DecodeStep(batch int) time.Duration
	// SpecStep is the modelled draft+verify time for one speculative round
	// at a batch size and draft-window length.
	SpecStep(batch, window int) time.Duration
	// SampleStep is the modelled per-step sampling cost after the sync point.
	SampleStep() time.Duration
}

// ZeroTiming is the Timing of real (measured) backends: every modelled
// charge is zero, so clocks advance only by actual elapsed work.
type ZeroTiming struct{}

// Prefill implements Timing.
func (ZeroTiming) Prefill(int) time.Duration { return 0 }

// DecodeStep implements Timing.
func (ZeroTiming) DecodeStep(int) time.Duration { return 0 }

// SpecStep implements Timing.
func (ZeroTiming) SpecStep(int, int) time.Duration { return 0 }

// SampleStep implements Timing.
func (ZeroTiming) SampleStep() time.Duration { return 0 }

// Backend is a model implementation: it opens one Sequence per generation
// and reports its latency model. Backends must be safe for concurrent Open
// calls; each returned Sequence is single-goroutine.
type Backend interface {
	// Name identifies the backend in metrics and logs.
	Name() string
	// Open starts a generation. The request is passed by value; the backend
	// keeps what it needs.
	Open(req Request) (Sequence, error)
	// Timing is the backend's latency model (ZeroTiming for real backends).
	Timing() Timing
	// Close releases backend-wide resources (connections, pools).
	Close() error
}
