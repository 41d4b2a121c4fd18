package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"xgrammar/internal/backend"
	"xgrammar/internal/bitset"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/quantile"
	"xgrammar/internal/serve"
	"xgrammar/internal/spec"
	"xgrammar/internal/structtag"
	"xgrammar/internal/tokenizer"
)

// StreamRequest is one request in a continuous-batching run: it arrives at
// Arrival (simulated time), brings its own grammar backend (falling back to
// the engine-wide one), and charges GrammarInit when it is admitted — the
// compile/cache-resolve cost, hidden behind prefill in Overlap mode.
type StreamRequest struct {
	Req     *backend.Request
	Arrival time.Duration
	// Grammar supplies this request's grammar sessions; nil falls back to
	// StreamConfig.Grammar. When both are nil (or the mode is Unconstrained)
	// the sequence decodes without grammar constraints.
	Grammar serve.Grammar
	// GrammarInit is the grammar resolve cost charged at admission (zero for
	// a compiled-grammar cache hit).
	GrammarInit time.Duration
}

// StreamConfig configures a continuous-batching run.
type StreamConfig struct {
	// Model is the model backend every sequence decodes against. Required.
	Model backend.Backend
	Mode  Mode
	// Grammar is the default grammar backend for requests without their own.
	Grammar serve.Grammar
	Tok     *tokenizer.Tokenizer
	// MaxBatch bounds the number of sequences decoding concurrently; 0 is
	// unbounded. Arrived requests beyond the bound queue until a running
	// sequence finishes.
	MaxBatch int
	// JumpForward enables forced-token insertion for sessions supporting it.
	JumpForward bool
	// MaxSteps guards against runaway generations.
	MaxSteps int
	// Pool is the persistent worker pool used to fill a whole batch's masks
	// in Overlap mode; nil uses the process-wide shared pool. Serial mode
	// fills sequentially by definition (grammar work on the critical path).
	Pool *serve.WorkerPool
	// Spec configures draft-verify decoding when Mode is Speculative.
	Spec SpecOptions
	// Ctx cancels the run: in-flight sequences leave the batch cleanly
	// (sessions released, partial outputs returned) and RunStream returns
	// the context's error. Nil means no cancellation.
	Ctx context.Context
}

// SpecOptions parameterizes speculative draft-verify decoding (Mode
// Speculative). The draft model itself lives on the model backend (its
// Speculator hook; simllm.TeacherOptions configures the simulated one) —
// and because only verified tokens are ever committed, outputs are
// byte-identical to a non-speculative run of the same requests regardless
// of draft quality.
type SpecOptions struct {
	// DraftTokens is the draft window k per decode round (default 4).
	// Sequences whose rollback history cannot retract a full window fall
	// back to non-speculative decoding (counted in SpecFallbacks).
	DraftTokens int
}

func (o SpecOptions) draftTokens() int {
	if o.DraftTokens <= 0 {
		return 4
	}
	return o.DraftTokens
}

// StreamMetrics extends Metrics with continuous-batching observations.
type StreamMetrics struct {
	Metrics
	// PeakBatch is the largest number of concurrently decoding sequences.
	PeakBatch int
	// Joins and Leaves count sequences entering and exiting the running
	// batch mid-run.
	Joins, Leaves int
	// QueueWait is the mean time requests spent queued after arrival
	// (waiting for a batch slot).
	QueueWait time.Duration
	// FillWall is the total wall time of the per-step batch mask fills
	// (equal to MaskCPU when fills are sequential).
	FillWall time.Duration
	// FillP50 and FillP99 are percentiles of per-sequence mask fill latency.
	FillP50, FillP99 time.Duration
	// ModelWall is the real elapsed time spent inside the model backend
	// (Next/Draft calls). For simulation backends it is tokenization
	// overhead and stays off the modelled clock; for measured backends
	// (HTTP) it is the dominant real cost.
	ModelWall time.Duration
	// ModelErrors counts sequences abandoned because their model backend
	// failed mid-stream (the sequence leaves the batch cleanly and its
	// partial output is returned; other sequences are unaffected).
	ModelErrors int
	// SpecProposed and SpecDrafted count draft tokens offered by the draft
	// model and speculatively accepted by the grammar; SpecAccepted counts
	// those confirmed by the target model — each confirmed token advanced
	// its sequence without a sampling step of its own.
	SpecProposed, SpecDrafted, SpecAccepted int
	// SpecFallbacks counts per-sequence decode steps that fell back to
	// non-speculative decoding because the draft window exceeded the
	// session's rollback history.
	SpecFallbacks int
}

// AcceptanceRate is the fraction of proposed draft tokens the target model
// confirmed (0 when nothing was proposed).
func (m StreamMetrics) AcceptanceRate() float64 {
	if m.SpecProposed == 0 {
		return 0
	}
	return float64(m.SpecAccepted) / float64(m.SpecProposed)
}

// StepsSaved is the number of per-sequence decode steps speculative
// acceptance avoided: every confirmed draft token advanced its sequence
// without its own sampling step. Under continuous batching several
// sequences share one GPU round, so batch rounds saved is smaller —
// compare DecodeSteps against a non-speculative run for that.
func (m StreamMetrics) StepsSaved() int { return m.SpecAccepted }

// streamSeq is one running sequence.
type streamSeq struct {
	seqState
	sr        *StreamRequest
	mask      *bitset.Bitset
	startedAt time.Duration // decode start (admission charge complete)
	firstTok  bool
	fillDur   time.Duration
	next      int32
	nextErr   error
	// Speculative-mode scratch: the round's draft-verify result, whether
	// this round overflowed the rollback window (counted as a fallback),
	// and reused closures so the steady-state round allocates nothing per
	// step.
	specW         spec.Window
	specRes       spec.Result
	specErr       error
	specRan       bool
	specOverflow  bool
	specFill      func()
	specSample    spec.Sampler
	specSampleErr error
}

// specSession is the session surface the speculative path needs: the
// draft-verify sequencer plus the cached mask fill. serve.Session (the
// pooled backend) satisfies it.
type specSession interface {
	spec.Sequencer
	Fill() maskcache.FillStats
}

// runner holds the mutable state of one continuous-batching run.
type runner struct {
	cfg          StreamConfig
	ctx          context.Context
	timing       backend.Timing
	clock        time.Duration
	running      []*streamSeq
	finishedSeqs []*streamSeq
	maskFree     []*bitset.Bitset
	fillLats     []time.Duration
	met          StreamMetrics
	ttftSum      time.Duration
	ttftN        int
	waitSum      time.Duration
	// decodeWall accumulates step wall time (excluding admission charges)
	// for the step-capped TPOT fallback.
	decodeWall time.Duration
}

// RunStream decodes reqs with continuous batching (§3.5 co-design): arrived
// requests join the running batch as slots free up, finished sequences leave
// immediately, and each decode step combines modelled GPU time with measured
// grammar time — overlapped and batch-parallel in Overlap mode, serialized
// in Serial mode. Outputs are returned in the order of reqs.
func RunStream(cfg StreamConfig, reqs []*StreamRequest) (StreamMetrics, []string, error) {
	if cfg.Model == nil {
		return StreamMetrics{}, nil, errors.New("engine: StreamConfig.Model is required")
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 8192
	}
	r := &runner{cfg: cfg, ctx: cfg.Ctx, timing: cfg.Model.Timing()}
	if r.ctx == nil {
		r.ctx = context.Background()
	}
	r.met.Requests = len(reqs)

	// Admission order: arrival time, ties by request order.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return reqs[order[a]].Arrival < reqs[order[b]].Arrival
	})
	outputs := make([][]byte, len(reqs))
	nextPending := 0

	for r.met.DecodeSteps < cfg.MaxSteps && (len(r.running) > 0 || nextPending < len(order)) {
		if r.ctx.Err() != nil {
			break
		}
		// Idle engine: jump to the next arrival.
		if len(r.running) == 0 && nextPending < len(order) && reqs[order[nextPending]].Arrival > r.clock {
			r.clock = reqs[order[nextPending]].Arrival
		}
		// Admission: fill free slots with arrived requests.
		var admitted []*streamSeq
		for nextPending < len(order) &&
			(cfg.MaxBatch <= 0 || len(r.running) < cfg.MaxBatch) &&
			reqs[order[nextPending]].Arrival <= r.clock {
			sr := reqs[order[nextPending]]
			s, err := r.admit(sr, order[nextPending])
			if err != nil {
				return r.met, nil, err
			}
			admitted = append(admitted, s)
			nextPending++
		}
		if len(admitted) > 0 {
			r.chargeAdmission(admitted)
		}
		if len(r.running) > r.met.PeakBatch {
			r.met.PeakBatch = len(r.running)
		}

		if err := r.decodeStep(); err != nil {
			return r.met, nil, err
		}
		// Collect finished sequences (leave the batch, release sessions).
		for i := 0; i < len(r.running); {
			s := r.running[i]
			if !s.done {
				i++
				continue
			}
			outputs[s.index()] = s.output
			r.leave(i)
		}
	}
	// Step-capped or canceled: flush partial outputs and release every
	// still-running sequence cleanly (sessions back to their pools).
	for len(r.running) > 0 {
		s := r.running[0]
		s.finishAt = r.clock
		outputs[s.index()] = s.output
		r.leave(0)
	}

	outs := make([]string, len(reqs))
	var tpotSum time.Duration
	finished := 0
	for i := range reqs {
		outs[i] = string(outputs[i])
	}
	for _, s := range r.finishedSeqs {
		r.met.OutputTokens += s.outTokens
		if s.done && !s.failed && s.outTokens > 0 {
			tpotSum += (s.finishAt - s.startedAt) / time.Duration(s.outTokens)
			finished++
		}
	}
	if finished > 0 {
		r.met.TPOT = tpotSum / time.Duration(finished)
	} else if r.met.DecodeSteps > 0 {
		// No request finished (step-capped run): fall back to wall time per
		// decode step, which is the same metric for fixed-length outputs.
		r.met.TPOT = r.decodeWall / time.Duration(r.met.DecodeSteps)
	}
	if r.ttftN > 0 {
		r.met.TTFT = r.ttftSum / time.Duration(r.ttftN)
	}
	if r.met.Joins > 0 {
		r.met.QueueWait = r.waitSum / time.Duration(r.met.Joins)
	}
	fillQ := quantile.Durations(r.fillLats, 0.50, 0.99)
	r.met.FillP50, r.met.FillP99 = fillQ[0], fillQ[1]
	r.met.Wall = r.clock
	if err := r.ctx.Err(); err != nil {
		return r.met, outs, err
	}
	return r.met, outs, nil
}

// admit builds the running-sequence state for one request: the model
// sequence is opened on the backend, and the grammar session acquired —
// from the grammar backend's session pool in the pooled configuration. The
// model sees the request with ID rewritten to its run index, so
// deterministic simulation backends key their per-sequence randomness the
// same way however callers number their requests.
func (r *runner) admit(sr *StreamRequest, index int) (*streamSeq, error) {
	s := &streamSeq{sr: sr, firstTok: true}
	s.req = sr.Req
	s.idx = index
	rq := *sr.Req
	rq.ID = index
	seq, err := r.cfg.Model.Open(rq)
	if err != nil {
		return nil, fmt.Errorf("engine: open model sequence for %s: %w", sr.Req, err)
	}
	s.seq = seq
	grammar := sr.Grammar
	if grammar == nil {
		grammar = r.cfg.Grammar
	}
	if r.cfg.Mode != Unconstrained && grammar != nil {
		s.session = grammar.NewSession()
		if n := len(r.maskFree); n > 0 {
			s.mask = r.maskFree[n-1]
			r.maskFree = r.maskFree[:n-1]
		} else {
			s.mask = bitset.New(r.cfg.Tok.VocabSize())
		}
	}
	r.waitSum += r.clock - sr.Arrival
	r.met.Joins++
	r.running = append(r.running, s)
	return s, nil
}

// chargeAdmission advances the clock for a group of newly admitted
// sequences: prompt prefill plus grammar initialization, with the grammar
// work hidden behind prefill in Overlap mode (Figure 8) and serialized
// otherwise. Grammar resolves within the group overlap each other (cache
// singleflight), so the group charges the max, not the sum.
func (r *runner) chargeAdmission(admitted []*streamSeq) {
	maxPrompt := 0
	var maxInit time.Duration
	for _, s := range admitted {
		if s.req.PromptTokens > maxPrompt {
			maxPrompt = s.req.PromptTokens
		}
		if s.sr.GrammarInit > maxInit {
			maxInit = s.sr.GrammarInit
		}
	}
	prefill := r.timing.Prefill(maxPrompt)
	switch {
	case r.cfg.Mode == Unconstrained:
		r.clock += prefill
	case r.cfg.Mode.overlapped():
		r.clock += maxDur(prefill, maxInit)
	default: // Serial
		r.clock += prefill + maxInit
	}
	for _, s := range admitted {
		s.startedAt = r.clock
	}
}

// leave removes running[i] from the batch, recycling its mask buffer,
// closing its model sequence, and returning its grammar session to the pool
// when the backend supports it.
func (r *runner) leave(i int) {
	s := r.running[i]
	if s.seq != nil {
		s.seq.Close()
		s.seq = nil
	}
	if s.session != nil {
		closeSession(s.session)
		s.session = nil
	}
	if s.mask != nil {
		r.maskFree = append(r.maskFree, s.mask)
		s.mask = nil
	}
	r.running[i] = r.running[len(r.running)-1]
	r.running = r.running[:len(r.running)-1]
	r.met.Leaves++
	r.finishedSeqs = append(r.finishedSeqs, s)
}

// closeSession returns a pooled grammar session to its pool; sessions of
// unpooled grammars have no Close.
func closeSession(sess serve.GrammarSession) {
	if c, ok := sess.(interface{ Close() }); ok {
		c.Close()
	}
}

// failSeq abandons a sequence whose model backend failed: it is marked done
// (the collect loop returns its partial output and releases its session)
// and counted in ModelErrors. The rest of the batch decodes on.
func (r *runner) failSeq(s *streamSeq, err error) {
	if s.done {
		return
	}
	s.done, s.failed = true, true
	s.nextErr = err
	s.finishAt = r.clock
	r.met.ModelErrors++
}

// checkToken validates a model-produced token id against the vocabulary and
// the sequence's grammar mask — a malformed backend (an HTTP model server
// returning out-of-range or disallowed ids) fails its own sequence, never
// the run.
func (r *runner) checkToken(s *streamSeq, id int32) error {
	if id != tokenizer.EosID && (id < 0 || int(id) >= r.cfg.Tok.VocabSize()) {
		return fmt.Errorf("engine: model backend returned out-of-range token %d (vocab %d)", id, r.cfg.Tok.VocabSize())
	}
	if s.session != nil && !s.mask.Get(int(id)) {
		return fmt.Errorf("engine: model backend returned masked-out token %d (%q)", id, r.cfg.Tok.TokenBytes(id))
	}
	return nil
}

// decodeStep runs one batched decode step over the running sequences.
func (r *runner) decodeStep() error {
	if r.cfg.Mode == Speculative {
		return r.decodeStepSpec()
	}
	live := len(r.running)
	if live == 0 {
		return nil
	}
	gpu := r.timing.DecodeStep(live)

	// Grammar phase: one mask per constrained sequence. Overlap mode fills
	// the whole batch through the persistent worker pool (work stealing
	// across sequences); Serial mode keeps grammar work on the critical path.
	var fills []*streamSeq
	for _, s := range r.running {
		if s.session != nil {
			fills = append(fills, s)
		}
	}
	var fillWall, maskCPU time.Duration
	if len(fills) > 0 {
		t0 := time.Now()
		if r.cfg.Mode == Overlap && len(fills) > 1 {
			pool := r.cfg.Pool
			if pool == nil {
				pool = serve.DefaultPool()
			}
			pool.Run(len(fills), func(i int) {
				s := fills[i]
				f0 := time.Now()
				s.session.FillMask(s.mask)
				s.fillDur = time.Since(f0)
			})
		} else {
			for _, s := range fills {
				f0 := time.Now()
				s.session.FillMask(s.mask)
				s.fillDur = time.Since(f0)
			}
		}
		fillWall = time.Since(t0)
		for _, s := range fills {
			maskCPU += s.fillDur
			r.fillLats = append(r.fillLats, s.fillDur)
		}
	}

	// Model phase: the backend picks each sequence's next token under its
	// mask. Untimed on the simulated clock (tokenization/sampling is the
	// model's work, charged through the timing profile); ModelWall records
	// the real elapsed time, which is the true cost for measured backends.
	m0 := time.Now()
	for _, s := range r.running {
		var mw []uint64
		if s.session != nil {
			mw = s.mask.Words()
		}
		id, err := s.seq.Next(r.ctx, mw)
		if err == nil {
			err = r.checkToken(s, id)
		}
		if err != nil {
			r.failSeq(s, err)
			continue
		}
		s.next = id
	}
	r.met.ModelWall += time.Since(m0)

	// Wall-clock for the step (§3.5): overlapped engines hide the batch
	// grammar fill behind the GPU step and synchronize before sampling.
	var stepWall time.Duration
	if r.cfg.Mode == Overlap {
		stepWall = maxDur(gpu, fillWall) + r.timing.SampleStep()
	} else {
		stepWall = gpu + fillWall + r.timing.SampleStep()
	}
	r.clock += stepWall
	r.decodeWall += stepWall
	r.met.GPUTime += gpu
	r.met.MaskCPU += maskCPU
	r.met.FillWall += fillWall
	r.met.DecodeSteps++

	// Sampling + acceptance phase.
	for _, s := range r.running {
		if s.failed {
			continue
		}
		if s.firstTok {
			s.firstTok = false
			r.ttftSum += r.clock - s.sr.Arrival
			r.ttftN++
		}
		if s.session != nil {
			if err := s.session.Accept(s.next); err != nil {
				return fmt.Errorf("engine: %w", err)
			}
		}
		s.consume(r.cfg.Tok, s.next)
		if s.done {
			s.finishAt = r.clock
			continue
		}
		if err := r.jumpForward(s); err != nil {
			return err
		}
	}
	return nil
}

// decodeStepSpec runs one speculative draft-verify round over the running
// sequences (Mode Speculative). Per sequence, the grammar phase runs
// spec.Step: the backend's draft hook proposes a token window, the session
// speculatively accepts it while capturing per-position masks (the fused
// pass the verify forward pass consumes), the backend delivers verdicts
// through Next against those masks, and the rejected suffix is retracted
// through the matcher's rollback window. Sequences advance by accepted+1
// tokens per round; the GPU charge covers the draft model plus the
// multi-position verify pass (Timing.SpecStep). Sequences without a
// rollback-capable session or a drafting backend — and steps whose window
// would exceed the rollback history — decode non-speculatively (the latter
// counted in SpecFallbacks).
func (r *runner) decodeStepSpec() error {
	live := len(r.running)
	if live == 0 {
		return nil
	}
	k := r.cfg.Spec.draftTokens()

	// Grammar phase, overlapped with the GPU step: every sequence's draft
	// walk (or plain mask fill) runs through the persistent worker pool.
	seqs := r.running
	t0 := time.Now()
	work := func(i int) {
		s := seqs[i]
		s.specRan, s.specErr, s.specOverflow = false, nil, false
		s.nextErr, s.specSampleErr = nil, nil
		ss, capable := s.session.(specSession)
		if _, isTag := s.session.(*structtag.Session); isTag {
			// Structural-tag sessions decode plainly under Speculative mode:
			// the teacher-forced draft/verdict walk is positional in the
			// target text, and a verdict token spanning a segment exit is
			// not representable in the captured in-tag masks. (The gateway's
			// sampler-driven speculation does speculate inside segments.)
			capable = false
		}
		var propose backend.Proposer
		if capable {
			sp, ok := s.seq.(backend.Speculator)
			if ok {
				// The draft walk runs before the timed grammar window:
				// drafting is the draft model's work, not grammar time.
				propose, ok = sp.Draft(r.ctx, k)
			}
			capable = ok
		}
		if capable {
			if s.specFill == nil {
				s.specFill = func() { ss.Fill() }
				s.specSample = func(pos int, mask []uint64) (int32, bool) {
					id, err := s.seq.Next(r.ctx, mask)
					if err != nil {
						s.specSampleErr = err
						return 0, false
					}
					return id, true
				}
			}
			f0 := time.Now()
			res, err := spec.Step(ss, s.specFill, spec.Proposer(propose), s.specSample,
				&s.specW, spec.Options{MaxDraft: k, EOS: tokenizer.EosID})
			s.fillDur = time.Since(f0)
			if err == nil {
				s.specRan, s.specRes = true, res
				return
			}
			if !errors.Is(err, spec.ErrWindowExceeded) {
				s.specErr = err
				return
			}
			// Window exceeds the rollback history: decode this step plainly.
			s.specOverflow = true
		}
		f0 := time.Now()
		if s.session != nil {
			s.session.FillMask(s.mask)
		}
		s.fillDur = time.Since(f0)
		var mw []uint64
		if s.session != nil {
			mw = s.mask.Words()
		}
		id, err := s.seq.Next(r.ctx, mw)
		if err != nil {
			s.nextErr = err
			return
		}
		s.next = id
	}
	if live > 1 {
		pool := r.cfg.Pool
		if pool == nil {
			pool = serve.DefaultPool()
		}
		pool.Run(live, work)
	} else {
		work(0)
	}
	fillWall := time.Since(t0)

	var maskCPU time.Duration
	maxWindow := 0
	for _, s := range seqs {
		if s.specErr != nil {
			return fmt.Errorf("engine: speculative: %w", s.specErr)
		}
		maskCPU += s.fillDur
		r.fillLats = append(r.fillLats, s.fillDur)
		if s.specRan && s.specRes.Proposed > maxWindow {
			maxWindow = s.specRes.Proposed
		}
	}

	// Wall clock: draft + verify GPU work, overlapped with the grammar
	// phase, synchronized before sampling (§3.5 extended to the window).
	gpu := r.timing.SpecStep(live, maxWindow)
	stepWall := maxDur(gpu, fillWall) + r.timing.SampleStep()
	r.clock += stepWall
	r.decodeWall += stepWall
	r.met.GPUTime += gpu
	r.met.MaskCPU += maskCPU
	r.met.FillWall += fillWall
	r.met.DecodeSteps++

	// Commit phase: apply verdicts to sequence state.
	for _, s := range r.running {
		if s.nextErr != nil {
			r.failSeq(s, s.nextErr)
			continue
		}
		if s.firstTok {
			s.firstTok = false
			r.ttftSum += r.clock - s.sr.Arrival
			r.ttftN++
		}
		if s.specRan {
			res := s.specRes
			r.met.SpecProposed += res.Proposed
			r.met.SpecDrafted += res.Drafted
			r.met.SpecAccepted += res.Accepted
			for i := 0; i < res.Accepted; i++ {
				s.consume(r.cfg.Tok, s.specW.DraftAt(i))
			}
			if res.HasBonus {
				s.consume(r.cfg.Tok, res.Bonus)
			}
			if s.specSampleErr != nil {
				// The backend failed mid-verify: the confirmed prefix above
				// is committed (grammar and model agree on it); the sequence
				// leaves with its partial output.
				r.failSeq(s, s.specSampleErr)
				continue
			}
		} else {
			if s.specOverflow {
				r.met.SpecFallbacks++
			}
			if err := r.checkToken(s, s.next); err != nil {
				r.failSeq(s, err)
				continue
			}
			if s.session != nil {
				if err := s.session.Accept(s.next); err != nil {
					return fmt.Errorf("engine: %w", err)
				}
			}
			s.consume(r.cfg.Tok, s.next)
		}
		if s.done {
			s.finishAt = r.clock
			continue
		}
		if err := r.jumpForward(s); err != nil {
			return err
		}
	}
	return nil
}

// jumpForward runs the jump-forward insertion (Appendix B) for one live
// sequence: the grammar's deterministic continuation is offered to the
// model backend (ObserveForced), and inserted only when the backend absorbs
// it — the teacher-forced backend checks it against its target, a sampler
// backend accepts it for free. Measured CPU is charged to the step (it runs
// on the grammar thread).
func (r *runner) jumpForward(s *streamSeq) error {
	if !r.cfg.JumpForward || s.session == nil {
		return nil
	}
	jf, ok := s.session.(serve.JumpForwarder)
	if !ok {
		return nil
	}
	t0 := time.Now()
	forced := jf.JumpForward()
	if forced != "" && s.seq.ObserveForced(forced) {
		if err := jf.AcceptString(forced); err != nil {
			return fmt.Errorf("engine: jump-forward: %w", err)
		}
		s.output = append(s.output, forced...)
		n := len(r.cfg.Tok.Encode(forced))
		s.outTokens += n
		r.met.JumpForwardTokens += n
	}
	elapsed := time.Since(t0)
	r.met.MaskCPU += elapsed
	r.clock += elapsed
	r.decodeWall += elapsed
	return nil
}
