package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xgrammar/internal/bitset"
	"xgrammar/internal/builtin"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/matcher"
	"xgrammar/internal/pda"
	"xgrammar/internal/tokenizer"
)

type env struct {
	tok   *tokenizer.Tokenizer
	p     *pda.PDA
	cache *maskcache.Cache
}

var (
	envOnce sync.Once
	shared  env
)

func testEnv(t testing.TB) env {
	t.Helper()
	envOnce.Do(func() {
		tok := tokenizer.BuildDefault(600)
		p, err := pda.Compile(builtin.JSON(), pda.AllOptimizations)
		if err != nil {
			panic(err)
		}
		shared = env{tok: tok, p: p, cache: maskcache.Build(p, tok, maskcache.Options{ContextExpansion: true})}
	})
	return shared
}

// referenceMask computes the mask for a fresh matcher advanced over doc.
func referenceMask(e env, doc string) *bitset.Bitset {
	exec := matcher.NewExec(e.p)
	m := matcher.New(exec, 0)
	if doc != "" && !m.Advance([]byte(doc)) {
		panic("reference advance failed: " + doc)
	}
	mask := bitset.New(e.tok.VocabSize())
	e.cache.FillMask(exec, m.States(), mask, m.CanTerminate(), maskcache.NewFillContext())
	return mask
}

// TestPooledSessionMatchesFresh drives a recycled session and a fresh
// matcher through the same prefixes and requires identical masks at every
// position — the pooled fast path must be observationally equal to building
// grammar state from scratch.
func TestPooledSessionMatchesFresh(t *testing.T) {
	e := testEnv(t)
	pool := NewSessionPool(e.p, e.cache, e.tok, 0)
	docs := []string{
		`{"a": 1, "b": [true, null]}`,
		`[1, 2, {"k": "v"}]`,
		`"string with spaces"`,
		`-12.5e3`,
	}
	for round := 0; round < 3; round++ {
		for _, doc := range docs {
			s := pool.Acquire()
			ids := e.tok.Encode(doc)
			emitted := ""
			if got := referenceMask(e, ""); !maskEqual(s.Mask(), got, s.Fill(), e) {
				t.Fatalf("round %d doc %q: initial mask differs", round, doc)
			}
			for _, id := range ids {
				res, err := s.Step(id)
				if err != nil {
					t.Fatalf("round %d doc %q: step(%d): %v", round, doc, id, err)
				}
				if res.Terminated {
					t.Fatalf("round %d doc %q: premature termination", round, doc)
				}
				emitted += string(e.tok.TokenBytes(id))
				want := referenceMask(e, emitted)
				if !bitset.FromWords(s.Mask(), e.tok.VocabSize()).Equal(want) {
					t.Fatalf("round %d doc %q: mask differs after %q", round, doc, emitted)
				}
			}
			if !s.CanTerminate() {
				t.Fatalf("round %d doc %q: cannot terminate after full doc", round, doc)
			}
			res, err := s.Step(tokenizer.EosID)
			if err != nil || !res.Terminated || !s.IsTerminated() {
				t.Fatalf("round %d doc %q: EOS step: %v res=%+v", round, doc, err, res)
			}
			s.Close()
		}
	}
	st := pool.Stats()
	if st.Reused == 0 {
		t.Fatalf("pool never reused a session: %+v", st)
	}
}

func maskEqual(words []uint64, want *bitset.Bitset, _ maskcache.FillStats, e env) bool {
	return bitset.FromWords(words, e.tok.VocabSize()).Equal(want)
}

// TestSessionJumpForwardRollback exercises the fused step's jump-forward
// probe plus insertion and rollback on a recycled session: after rolling the
// insertion back, masks must again match a fresh matcher at the same
// position.
func TestSessionJumpForwardRollback(t *testing.T) {
	e := testEnv(t)
	pool := NewSessionPool(e.p, e.cache, e.tok, 0)

	// Warm the pool so the tested session is a recycled one.
	warm := pool.Acquire()
	warm.Fill()
	if err := warm.AcceptString(`{"x": `); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	s := pool.Acquire()
	s.Fill()
	prefix := `{"key`
	if err := s.AcceptString(prefix); err != nil {
		t.Fatal(err)
	}
	// Inside an object key the continuation is ambiguous byte-wise, so probe
	// via the matcher after a forced token instead: accept a token, read the
	// fused result's continuation.
	ids := e.tok.Encode(`": `)
	var jf string
	for _, id := range ids {
		res, err := s.Step(id)
		if err != nil {
			t.Fatal(err)
		}
		jf = string(res.JumpForward)
	}
	_ = jf
	// Force a deterministic run: "tru" must jump-forward to "e".
	for _, id := range e.tok.Encode(`tru`) {
		res, err := s.Step(id)
		if err != nil {
			t.Fatal(err)
		}
		jf = string(res.JumpForward)
	}
	if !strings.HasPrefix(jf, "e") {
		t.Fatalf("jump-forward after 'tru' = %q, want prefix 'e'", jf)
	}
	before := `{"key": tru`
	if !bitset.FromWords(s.Mask(), e.tok.VocabSize()).Equal(referenceMask(e, before)) {
		t.Fatalf("mask differs before insertion")
	}
	// Insert the continuation, then roll it back.
	if err := s.AcceptString(jf); err != nil {
		t.Fatalf("jump-forward insertion: %v", err)
	}
	s.Fill()
	if !bitset.FromWords(s.Mask(), e.tok.VocabSize()).Equal(referenceMask(e, before+jf)) {
		t.Fatalf("mask differs after insertion of %q", jf)
	}
	if err := s.Rollback(1); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	s.Fill()
	if !bitset.FromWords(s.Mask(), e.tok.VocabSize()).Equal(referenceMask(e, before)) {
		t.Fatalf("mask differs after rollback of jump-forward insertion")
	}
	s.Close()
}

// TestStepNoAllocs is the PR's steady-state guarantee: once capacities
// settle, the fused Step (accept + jump-forward probe + mask fill) performs
// zero heap allocations per token.
func TestStepNoAllocs(t *testing.T) {
	e := testEnv(t)
	pool := NewSessionPool(e.p, e.cache, e.tok, 0)
	var sb strings.Builder
	sb.WriteString(`{"vals": [`)
	for i := 0; i < 400; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, `{"i": %d, "f": true, "s": "ab"}`, i)
	}
	sb.WriteString(`]}`)
	ids := e.tok.Encode(sb.String())

	run := func(s *Session, ids []int32) {
		for _, id := range ids {
			if _, err := s.Step(id); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
	}
	// Warm: one full pass settles every buffer capacity, then recycle.
	s := pool.Acquire()
	s.Fill()
	run(s, ids)
	s.Close()

	s = pool.Acquire()
	s.Fill()
	warmup := 256 // past the rollback-history fill so eviction recycling is active
	run(s, ids[:warmup])
	i := warmup
	const runs = 300
	if warmup+runs+1 >= len(ids) {
		t.Fatalf("token stream too short: %d", len(ids))
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := s.Step(ids[i]); err != nil {
			t.Fatalf("step: %v", err)
		}
		i++
	})
	s.Close()
	if allocs != 0 {
		t.Fatalf("Session.Step allocated %.2f allocs/op in steady state, want 0", allocs)
	}
}

// TestWorkerPoolFillsMatchSerial checks that the persistent pool produces
// exactly the masks of a serial fill, across repeated batches (pool reuse)
// and uneven sequence positions (work stealing fodder).
func TestWorkerPoolFillsMatchSerial(t *testing.T) {
	e := testEnv(t)
	spool := NewSessionPool(e.p, e.cache, e.tok, 0)
	wp := NewWorkerPool(4)
	defer wp.Close()

	prefixes := []string{
		``, `{`, `{"a": `, `[1, 2, `, `"str`, `{"a": {"b": {"c": `, `-1.5e`, `[[[[`,
		`{"k": [1, {"x": "y"}, `, `tru`, `nul`, `{"a": 1, "b": 2, `, `[`, `"`, `{"zzz": "`, `[false`,
	}
	sessions := make([]*Session, len(prefixes))
	for i, p := range prefixes {
		sessions[i] = spool.Acquire()
		if p != "" {
			if err := sessions[i].AcceptString(p); err != nil {
				t.Fatalf("prefix %q: %v", p, err)
			}
		}
	}
	for batch := 0; batch < 5; batch++ {
		wp.FillSessions(sessions)
		for i, s := range sessions {
			want := referenceMask(e, prefixes[i])
			if !bitset.FromWords(s.Mask(), e.tok.VocabSize()).Equal(want) {
				t.Fatalf("batch %d: sequence %d (%q): pooled fill differs from serial", batch, i, prefixes[i])
			}
		}
	}
	st := wp.Stats()
	if st.Batches != 5 || st.Items != int64(5*len(prefixes)) {
		t.Fatalf("pool stats wrong: %+v", st)
	}
	for _, s := range sessions {
		s.Close()
	}
}

// TestWorkerPoolZeroWorkersAndClosed verifies the caller-participates
// guarantee: a closed pool still completes every batch.
func TestWorkerPoolZeroWorkersAndClosed(t *testing.T) {
	wp := NewWorkerPool(2)
	wp.Close()
	var hits [97]int32
	wp.Run(len(hits), func(i int) { hits[i]++ })
	// A second Run after Close must also complete.
	wp.Run(len(hits), func(i int) { hits[i]++ })
	for i, h := range hits {
		if h != 2 {
			t.Fatalf("item %d executed %d times, want 2", i, h)
		}
	}
}

// TestWorkerPoolConcurrentBatches submits batches from many goroutines; every
// item of every batch must run exactly once.
func TestWorkerPoolConcurrentBatches(t *testing.T) {
	wp := NewWorkerPool(3)
	defer wp.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				counts := make([]int32, 33)
				wp.Run(len(counts), func(i int) { counts[i]++ })
				for i, c := range counts {
					if c != 1 {
						t.Errorf("item %d ran %d times", i, c)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRollbackAtomicOnError: a rollback deeper than the retained history
// must leave the session untouched (in particular, a terminated session must
// stay terminated with its cleared mask intact).
func TestRollbackAtomicOnError(t *testing.T) {
	e := testEnv(t)
	pool := NewSessionPool(e.p, e.cache, e.tok, 0)
	s := pool.Acquire()
	if err := s.AcceptString(`[1]`); err != nil { // one checkpoint
		t.Fatal(err)
	}
	if err := s.Accept(tokenizer.EosID); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(3); err == nil { // only EOS + 1 checkpoint available
		t.Fatal("rollback past history did not error")
	}
	if !s.IsTerminated() {
		t.Fatal("failed rollback cleared the terminated state")
	}
	// A valid rollback afterwards still works and refills.
	if err := s.Rollback(2); err != nil {
		t.Fatal(err)
	}
	s.Fill()
	want := referenceMask(e, "")
	if !bitset.FromWords(s.Mask(), e.tok.VocabSize()).Equal(want) {
		t.Fatal("mask wrong after recovering with a valid rollback")
	}
	s.Close()
}
