// Package structtag implements structural-tag dispatch for constrained tool
// calling: a composite-grammar dispatcher that runs a generation in
// free-text mode — every regular token allowed — while watching the decoded
// byte stream for trigger-tag prefixes through a byte trie, switches into a
// compiled per-tag sub-grammar the moment a begin tag completes, enforces
// that grammar (the tag's content followed by its end tag, composed into
// one segment grammar by the caller) until the segment completes, and then
// returns to free text. A request may carry any number of tags; each tag's
// segment grammar is an ordinary compiled grammar, so per-tool schemas
// resolve through the compiled-grammar LRU and disk store and are compiled
// once however many requests share them.
//
// Dispatch state lives in the pooled-session hot path: the steady-state
// decode step (Accept + Fill) performs no heap allocations, segment
// sessions are recycled through each segment grammar's serve.SessionPool,
// and the dispatcher session itself is pooled on the Set. Sessions are
// rollback-safe across mode boundaries — a checkpoint ring records, per
// accepted step, the bytes consumed, the segment checkpoints taken, and
// whether the step crossed a mode transition. Rollbacks that stay on one
// side of a transition retract in O(steps) (segment rollbacks ride the
// matcher's persistent stack tree); the rare rollback across a transition
// replays the retained byte history step-aligned, so speculative decoding
// can treat a dispatcher session exactly like a plain grammar session.
package structtag

import (
	"fmt"
	"sync"

	"xgrammar/internal/bitset"
	"xgrammar/internal/matcher"
	"xgrammar/internal/serve"
	"xgrammar/internal/tokenizer"
	"xgrammar/internal/trie"
)

// Tag is one compiled trigger: the literal begin tag that flips the
// dispatcher into constrained mode, the pooled sessions of the segment
// grammar (the tag's content grammar with the end tag composed in, so the
// segment completes exactly after the end tag), and the end tag for
// display.
type Tag struct {
	Begin string
	End   string
	// Pool supplies segment sessions. The pool belongs to the compiled
	// segment grammar, so its memory lives and dies with the grammar in the
	// compiled-grammar LRU.
	Pool *serve.SessionPool
}

// Set is a compiled structural-tag dispatcher: the trigger trie, the
// free-text token mask, and a pool of dispatcher sessions. It is immutable
// after NewSet and safe for concurrent use.
type Set struct {
	tags     []Tag
	tok      *tokenizer.Tokenizer
	trie     *trie.Trie
	maxBegin int
	// freeWords is the free-text mask template: every regular token plus
	// EOS; non-stop special tokens cleared. freeCount is its popcount,
	// computed once so free-mode fills report Accepted without a re-scan.
	freeWords  []uint64
	freeCount  int
	words      int
	maxHistory int
	pool       sync.Pool
}

// NewSet compiles a dispatcher over the tags. Begin tags must be non-empty,
// distinct, and prefix-free (a begin tag that is a prefix of another could
// never lose the dispatch race). maxHistory <= 0 uses the matcher default
// rollback window.
func NewSet(tags []Tag, tok *tokenizer.Tokenizer, maxHistory int) (*Set, error) {
	if len(tags) == 0 {
		return nil, fmt.Errorf("structtag: no tags")
	}
	if maxHistory <= 0 {
		maxHistory = matcher.DefaultMaxHistory
	}
	begins := make([][]byte, len(tags))
	maxBegin := 0
	for i, t := range tags {
		if t.Begin == "" {
			return nil, fmt.Errorf("structtag: tag %d has an empty begin tag", i)
		}
		if t.Pool == nil {
			return nil, fmt.Errorf("structtag: tag %d (begin %q) has no segment pool", i, t.Begin)
		}
		for j := 0; j < i; j++ {
			a, b := tags[j].Begin, t.Begin
			if len(a) > len(b) {
				a, b = b, a
			}
			if b[:len(a)] == a {
				return nil, fmt.Errorf("structtag: begin tags %q and %q overlap (one is a prefix of the other)",
					tags[j].Begin, t.Begin)
			}
		}
		begins[i] = []byte(t.Begin)
		if len(t.Begin) > maxBegin {
			maxBegin = len(t.Begin)
		}
	}
	words := bitset.WordsFor(tok.VocabSize())
	free := bitset.New(tok.VocabSize())
	free.SetAll()
	for _, id := range tok.SpecialIDs() {
		free.Clear(int(id))
	}
	for _, id := range tok.StopIDs() {
		free.Set(int(id))
	}
	return &Set{
		tags:       tags,
		tok:        tok,
		trie:       trie.Build(begins),
		maxBegin:   maxBegin,
		freeWords:  free.Words(),
		freeCount:  free.Count(),
		words:      words,
		maxHistory: maxHistory,
	}, nil
}

// Tags returns the compiled tag list.
func (ts *Set) Tags() []Tag { return ts.tags }

// Tok returns the tokenizer the set dispatches over.
func (ts *Set) Tok() *tokenizer.Tokenizer { return ts.tok }

// Name implements serve.Grammar.
func (ts *Set) Name() string { return "structtag" }

// NewSession implements serve.Grammar: every session is a pooled
// dispatcher session starting in free-text mode.
func (ts *Set) NewSession() serve.GrammarSession { return ts.Acquire() }

// Acquire returns a dispatcher session in free-text mode at the stream
// start, recycling a closed one when available. The session's mask is not
// yet filled; call Fill (or let the first Step do it).
func (ts *Set) Acquire() *Session {
	if v := ts.pool.Get(); v != nil {
		return v.(*Session)
	}
	s := &Session{
		ts:    ts,
		mode:  -1,
		mask:  make([]uint64, ts.words),
		steps: make([]stepRec, ts.maxHistory),
		bytes: make([]byte, 0, 1024),
		dirty: true,
	}
	s.bs = bitset.FromWords(s.mask, ts.tok.VocabSize())
	return s
}

// stepRec is one checkpoint in the dispatcher's rollback ring.
type stepRec struct {
	// nbytes is how many bytes this step appended to the stream.
	nbytes int32
	// segSteps is how many checkpoints this step consumed on the active
	// segment session (0 for pure free-text steps).
	segSteps int32
	// transition marks a step that entered or left a tag segment; rolling
	// one back takes the replay slow path.
	transition bool
}
