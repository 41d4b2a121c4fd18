package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"xgrammar"
	"xgrammar/internal/backend"
	"xgrammar/internal/backend/simllm"
	"xgrammar/internal/spec"
)

// timedBackend wraps the backend the traced gateway decodes against,
// recording a span around every Next, Draft proposal, ObserveForced and
// trigger decision. It forwards the optional hooks, so the gateway decodes
// exactly as it would against the bare backend.
// Only requests in sampled get spans, which bounds the span count; busy
// counts every request's backend time.
type timedBackend struct {
	backend.Backend
	rec     *recorder
	sampled map[int64]bool // request seeds; read-only while serving
	busy    atomic.Int64   // nanoseconds spent in sequence calls
}

func (b *timedBackend) Open(req backend.Request) (backend.Sequence, error) {
	seq, err := b.Backend.Open(req)
	if err != nil {
		return nil, err
	}
	return &timedSeq{seq: seq, b: b, req: req.Seed, sampled: b.sampled[req.Seed]}, nil
}

type timedSeq struct {
	seq     backend.Sequence
	b       *timedBackend
	req     int64
	sampled bool
}

func (s *timedSeq) span(name string, t0 time.Time) {
	t1 := time.Now()
	s.b.busy.Add(int64(t1.Sub(t0)))
	if s.sampled {
		s.b.rec.add(name, linkToRequest, s.req, t0, t1)
	}
}

func (s *timedSeq) Next(ctx context.Context, mask []uint64) (int32, error) {
	t0 := time.Now()
	id, err := s.seq.Next(ctx, mask)
	s.span("backend.next", t0)
	return id, err
}

func (s *timedSeq) ObserveForced(text string) bool {
	t0 := time.Now()
	ok := s.seq.ObserveForced(text)
	s.span("backend.observe_forced", t0)
	return ok
}

func (s *timedSeq) Close() { s.seq.Close() }

func (s *timedSeq) Draft(ctx context.Context, k int) (backend.Proposer, bool) {
	sp, ok := s.seq.(backend.Speculator)
	if !ok {
		return nil, false
	}
	propose, ok := sp.Draft(ctx, k)
	if !ok {
		return nil, false
	}
	return func(pos int, mask []uint64) (int32, bool) {
		t0 := time.Now()
		id, ok := propose(pos, mask)
		s.span("backend.draft", t0)
		return id, ok
	}, true
}

func (s *timedSeq) ProposeTrigger(n int) (int, bool) {
	tp, ok := s.seq.(backend.TriggerProposer)
	if !ok {
		return 0, false
	}
	t0 := time.Now()
	idx, fire := tp.ProposeTrigger(n)
	s.span("backend.trigger", t0)
	return idx, fire
}

// replayer re-runs plain and speculative requests through the public
// Engine and Session calls on a fresh engine, with the same seed and the
// same decode steps as the gateway's batcher, timing each layer call.
type replayer struct {
	rec     *recorder
	comp    *xgrammar.Compiler
	eng     *xgrammar.Engine
	info    *xgrammar.TokenizerInfo
	sampler *simllm.Sampler
	eos     int32

	acquire, fill, accept, jf []time.Duration
	specRounds, specTokens    int
	// grammar is each request's replayed grammar-engine time: the replay
	// minus its backend calls and its compile.
	grammar map[int64]time.Duration
}

func newReplayer(rec *recorder, info *xgrammar.TokenizerInfo) *replayer {
	comp := xgrammar.NewCompiler(info)
	return &replayer{
		rec: rec, comp: comp, info: info,
		eng:     xgrammar.NewEngine(comp, xgrammar.WithPrefixCache(prefixCacheMB<<20, 0, 0)),
		sampler: simllm.NewSampler(info.EOSTokenID()),
		eos:     info.EOSTokenID(),
		grammar: map[int64]time.Duration{},
	}
}

func (rp *replayer) close() { rp.eng.Close() }

// replay decodes one request and returns its text (prefix included) and
// finish reason.
func (rp *replayer) replay(p *plan, r *request) (text, finish string, err error) {
	// The gateway JSON-encodes each SSE chunk, which coerces a token ending
	// inside a UTF-8 sequence to U+FFFD; the replay keeps its chunks and
	// coerces them the same way after the timed part.
	chunks := []string{r.prefix}
	defer func() {
		if err == nil {
			text = streamedText(chunks)
		}
	}()
	g := p.generateRequest(r, nil)
	gs := xgrammar.GrammarSpec{Kind: xgrammar.GrammarKind(g.Kind), Source: g.Source}
	if r.kind == kindByID {
		gs = xgrammar.GrammarSpec{Kind: xgrammar.KindJSONSchema, Source: string(p.schemas[r.schema])}
	}
	rec := rp.rec
	root := rec.begin("replay.request", -1, r.seed)
	var notGrammar time.Duration
	defer func() {
		total := rec.end(root)
		rp.grammar[r.seed] += total - notGrammar
	}()

	c := rec.begin("compile.resolve", root, r.seed)
	cg, err := rp.comp.CompileSpec(gs)
	notGrammar += rec.end(c)
	if err != nil {
		return "", "", fmt.Errorf("replay compile: %w", err)
	}
	a := rec.begin("serve.acquire", root, r.seed)
	sess, _, err := rp.eng.AcquireSession(cg, r.prefix)
	rp.acquire = append(rp.acquire, rec.end(a))
	if err != nil {
		return "", "", fmt.Errorf("replay acquire: %w", err)
	}
	defer sess.Close()
	seq, err := rp.sampler.Open(backend.Request{Seed: r.seed, MaxTokens: r.maxTokens})
	if err != nil {
		return "", "", err
	}
	defer seq.Close()
	if r.prefix != "" {
		seq.ObserveForced(r.prefix)
	}

	remaining := r.maxTokens
	parent := root
	pick := func(mask []uint64) (int32, bool) {
		if remaining <= 0 {
			if maskHas(mask, rp.eos) {
				return rp.eos, true
			}
			return 0, false
		}
		b := rec.begin("backend.next", parent, r.seed)
		id, err := seq.Next(context.Background(), mask)
		notGrammar += rec.end(b)
		return id, err == nil
	}
	fill := func() {
		f := rec.begin("maskcache.fill", parent, r.seed)
		sess.Fill()
		rp.fill = append(rp.fill, rec.end(f))
	}
	ts := timedSession{Session: sess, rp: rp, parent: &parent, seed: r.seed}
	jumpForward := func() {
		if s := ts.JumpForward(); s != "" && ts.AcceptString(s) == nil {
			chunks = append(chunks, s)
		}
	}
	emit := func(id int32) { chunks = append(chunks, string(rp.info.TokenBytes(id))) }

	draftK := 0
	if g.Speculative != nil {
		draftK = g.Speculative.DraftTokens
	}
	var w spec.Window
	verdict := func(_ int, mask []uint64) (int32, bool) {
		id, ok := pick(mask)
		if ok && id != rp.eos {
			remaining--
		}
		return id, ok
	}
	// AcquireSession filled the first mask; later rounds fill first, as the
	// batcher's FillBatch does (a speculative round fills inside spec.Step).
	for round := 0; ; round++ {
		if draftK > 0 {
			propose, drafting := seq.(backend.Speculator).Draft(context.Background(), draftK)
			if drafting {
				parent = rec.begin("spec.round", root, r.seed)
				timedPropose := func(pos int, mask []uint64) (int32, bool) {
					d := rec.begin("backend.draft", parent, r.seed)
					id, ok := propose(pos, mask)
					notGrammar += rec.end(d)
					return id, ok
				}
				res, err := spec.Step(ts, fill, timedPropose, verdict, &w,
					spec.Options{MaxDraft: draftK, EOS: rp.eos, JumpForward: true})
				rec.end(parent)
				parent = root
				if err == nil {
					rp.specRounds++
					rp.specTokens += res.Accepted
					for j := 0; j < res.Accepted; j++ {
						emit(w.DraftAt(j))
						if s := w.JumpForwardAt(j); s != "" {
							chunks = append(chunks, s)
						}
					}
					switch {
					case !res.HasBonus:
						return "", "length", nil
					case res.Terminated:
						return "", "stop", nil
					}
					rp.specTokens++
					emit(res.Bonus)
					jumpForward()
					continue
				}
				if !errors.Is(err, spec.ErrWindowExceeded) {
					return "", "", fmt.Errorf("replay speculative step: %w", err)
				}
			}
			draftK = 0 // the batcher falls back to plain decoding for good
		}
		if round > 0 {
			fill()
		}
		id, ok := pick(sess.Mask())
		if !ok {
			return "", "length", nil
		}
		if err := ts.Accept(id); err != nil {
			return "", "", fmt.Errorf("replay accept: %w", err)
		}
		if sess.IsTerminated() {
			return "", "stop", nil
		}
		remaining--
		emit(id)
		jumpForward()
	}
}

// streamedText is the text a client reassembles from the gateway's SSE
// chunks: each chunk coerced to valid UTF-8 as encoding/json does.
func streamedText(chunks []string) string {
	var sb strings.Builder
	for _, c := range chunks {
		if utf8.ValidString(c) {
			sb.WriteString(c)
			continue
		}
		for i := 0; i < len(c); {
			r, n := utf8.DecodeRuneInString(c[i:])
			if r == utf8.RuneError && n == 1 {
				sb.WriteRune(utf8.RuneError)
			} else {
				sb.WriteString(c[i : i+n])
			}
			i += n
		}
	}
	return sb.String()
}

// timedSession is the session as spec.Step drives it, with spans around
// the matcher calls a speculative round makes.
type timedSession struct {
	*xgrammar.Session
	rp     *replayer
	parent *int32
	seed   int64
}

func (s timedSession) Accept(id int32) error {
	t := s.rp.rec.begin("matcher.accept", *s.parent, s.seed)
	err := s.Session.Accept(id)
	s.rp.accept = append(s.rp.accept, s.rp.rec.end(t))
	return err
}

func (s timedSession) JumpForward() string {
	t := s.rp.rec.begin("matcher.jumpforward", *s.parent, s.seed)
	jf := s.Session.JumpForward()
	s.rp.jf = append(s.rp.jf, s.rp.rec.end(t))
	return jf
}

func (s timedSession) AcceptString(text string) error {
	t := s.rp.rec.begin("matcher.accept_string", *s.parent, s.seed)
	err := s.Session.AcceptString(text)
	s.rp.rec.end(t)
	return err
}

func (s timedSession) Rollback(n int) error {
	t := s.rp.rec.begin("matcher.rollback", *s.parent, s.seed)
	err := s.Session.Rollback(n)
	s.rp.rec.end(t)
	return err
}

// maskHas reports whether token id is set in mask.
func maskHas(mask []uint64, id int32) bool {
	w := int(id >> 6)
	return id >= 0 && w < len(mask) && mask[w]&(1<<uint(id&63)) != 0
}
