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

// pooledSetup builds a session pool over the builtin JSON grammar and a
// second (schema) pool, for mixed-grammar batches.
func pooledSetup(t testing.TB) (*tokenizer.Tokenizer, *serve.SessionPool, *serve.SessionPool, workload.SchemaTask) {
	t.Helper()
	tok := tokenizer.BuildDefault(500)
	jsonPDA, err := pda.Compile(builtin.JSON(), pda.AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	jsonCache := maskcache.Build(jsonPDA, tok, maskcache.Options{ContextExpansion: true})
	jsonPool := serve.NewSessionPool(jsonPDA, jsonCache, tok, 0)

	task := workload.SchemaTasks(1, 5)[0]
	g, err := compileSchema(task.Schema)
	if err != nil {
		t.Fatal(err)
	}
	schemaPDA, err := pda.Compile(g, pda.AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	schemaCache := maskcache.Build(schemaPDA, tok, maskcache.Options{ContextExpansion: true})
	schemaPool := serve.NewSessionPool(schemaPDA, schemaCache, tok, 0)

	return tok, jsonPool, schemaPool, task
}

// streamReqs builds staggered-arrival stream requests alternating between
// the two grammars.
func streamReqs(tok *tokenizer.Tokenizer, jsonB, schemaB serve.Grammar, task workload.SchemaTask, n int, gap time.Duration) []*StreamRequest {
	jsonDocs := workload.JSONDocs(n, 99)
	reqs := make([]*StreamRequest, n)
	for i := 0; i < n; i++ {
		target := jsonDocs[i]
		backend := jsonB
		if i%2 == 1 {
			target = task.Instance
			backend = schemaB
		}
		reqs[i] = &StreamRequest{
			Req:     llmsim.NewRequests([]string{target}, 139)[0],
			Arrival: time.Duration(i) * gap,
			Grammar: backend,
		}
	}
	return reqs
}

// TestContinuousJoinLeave drives a mixed-grammar stream through a bounded
// batch: sequences must join and leave mid-run, the bound must hold, every
// output must match its target, and pooled sessions must be recycled across
// departures and admissions.
func TestContinuousJoinLeave(t *testing.T) {
	tok, jsonB, schemaB, task := pooledSetup(t)
	const n = 9
	reqs := streamReqs(tok, jsonB, schemaB, task, n, 2*time.Millisecond)
	met, outs, err := RunStream(StreamConfig{
		Model:    testModel(tok),
		Mode:     Overlap,
		Tok:      tok,
		MaxBatch: 3,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o != reqs[i].Req.Target {
			t.Fatalf("output %d = %q, want %q", i, o, reqs[i].Req.Target)
		}
	}
	if met.Joins != n || met.Leaves != n {
		t.Fatalf("joins/leaves = %d/%d, want %d/%d", met.Joins, met.Leaves, n, n)
	}
	if met.PeakBatch > 3 {
		t.Fatalf("peak batch %d exceeded MaxBatch 3", met.PeakBatch)
	}
	if met.PeakBatch < 2 {
		t.Fatalf("peak batch %d: no batching happened", met.PeakBatch)
	}
	if met.MaskCPU == 0 || met.FillWall == 0 {
		t.Fatalf("no grammar work measured: %+v", met)
	}
	if met.FillP99 < met.FillP50 || met.FillP50 <= 0 {
		t.Fatalf("fill percentiles inconsistent: p50=%v p99=%v", met.FillP50, met.FillP99)
	}
	// With 9 sequences through a 3-slot batch the pools must have recycled.
	jp := jsonB.Stats()
	sp := schemaB.Stats()
	if jp.Reused == 0 && sp.Reused == 0 {
		t.Fatalf("no session reuse across join/leave: json=%+v schema=%+v", jp, sp)
	}
}

// TestContinuousQueueing checks that a bounded batch queues arrived requests
// (positive queue wait) while an unbounded one admits them immediately.
func TestContinuousQueueing(t *testing.T) {
	tok, jsonB, schemaB, task := pooledSetup(t)
	reqs := streamReqs(tok, jsonB, schemaB, task, 8, 0)
	bounded, _, err := RunStream(StreamConfig{
		Model: testModel(tok), Mode: Overlap, Tok: tok, MaxBatch: 2,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.QueueWait == 0 {
		t.Fatal("bounded batch reported zero queue wait")
	}
	if bounded.PeakBatch != 2 {
		t.Fatalf("peak batch %d, want 2", bounded.PeakBatch)
	}
	unbounded, _, err := RunStream(StreamConfig{
		Model: testModel(tok), Mode: Overlap, Tok: tok,
	}, streamReqs(tok, jsonB, schemaB, task, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.QueueWait != 0 {
		t.Fatalf("unbounded batch queued: %v", unbounded.QueueWait)
	}
	if unbounded.PeakBatch != 8 {
		t.Fatalf("unbounded peak batch %d, want 8", unbounded.PeakBatch)
	}
}

// TestContinuousOverlapBeatsSerial is the §3.5 claim on the continuous
// scheduler: hiding the batch fill behind the GPU step must reduce wall time
// against the same stream decoded serially.
func TestContinuousOverlapBeatsSerial(t *testing.T) {
	tok, jsonB, schemaB, task := pooledSetup(t)
	mk := func() []*StreamRequest {
		return streamReqs(tok, jsonB, schemaB, task, 6, time.Millisecond)
	}
	serial, _, err := RunStream(StreamConfig{
		Model: testModel(tok), Mode: Serial, Tok: tok, MaxBatch: 4,
	}, mk())
	if err != nil {
		t.Fatal(err)
	}
	overlap, _, err := RunStream(StreamConfig{
		Model: testModel(tok), Mode: Overlap, Tok: tok, MaxBatch: 4,
	}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if overlap.Wall >= serial.Wall {
		t.Fatalf("overlap (%v) not faster than serial (%v)", overlap.Wall, serial.Wall)
	}
}

// TestContinuousMatchesFixedAtZeroArrivals pins the refactor invariant: Run
// (fixed batch) is exactly the continuous scheduler with all arrivals at
// zero and no batch bound.
func TestContinuousMatchesFixedAtZeroArrivals(t *testing.T) {
	tok, backend := testSetup(t)
	targets := jsonTargets(4)
	fixedMet, fixedOuts, err := Run(Config{Model: testModel(tok), Mode: Overlap, Grammar: backend, Tok: tok},
		llmsim.NewRequests(targets, 139))
	if err != nil {
		t.Fatal(err)
	}
	reqs := llmsim.NewRequests(targets, 139)
	streams := make([]*StreamRequest, len(reqs))
	for i, r := range reqs {
		streams[i] = &StreamRequest{Req: r}
	}
	streamMet, streamOuts, err := RunStream(StreamConfig{
		Model: testModel(tok), Mode: Overlap, Grammar: backend, Tok: tok,
	}, streams)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fixedOuts {
		if fixedOuts[i] != streamOuts[i] {
			t.Fatalf("output %d differs between Run and RunStream", i)
		}
	}
	if fixedMet.DecodeSteps != streamMet.DecodeSteps ||
		fixedMet.OutputTokens != streamMet.OutputTokens ||
		fixedMet.Requests != streamMet.Requests {
		t.Fatalf("deterministic metrics differ: fixed=%+v stream=%+v", fixedMet, streamMet.Metrics)
	}
	if streamMet.Joins != len(targets) || streamMet.PeakBatch != len(targets) {
		t.Fatalf("all-at-zero stream did not admit everything at once: %+v", streamMet)
	}
}

// fixedBatchReqs emulates the old fixed-batch engine on a staggered arrival
// stream: a static-batch server cannot start until its whole batch has
// arrived, so every request's effective arrival is the last one's.
func fixedBatchReqs(reqs []*StreamRequest) []*StreamRequest {
	var last time.Duration
	for _, r := range reqs {
		if r.Arrival > last {
			last = r.Arrival
		}
	}
	out := make([]*StreamRequest, len(reqs))
	for i, r := range reqs {
		c := *r
		c.Arrival = last
		out[i] = &c
	}
	return out
}

// TestContinuousAtLeastFixedThroughput is the acceptance claim: on a
// staggered arrival stream, the continuous scheduler in Overlap mode must at
// least match the old fixed-batch engine (which waits for the full batch
// before decoding).
func TestContinuousAtLeastFixedThroughput(t *testing.T) {
	tok, jsonB, schemaB, task := pooledSetup(t)
	arrivals := streamReqs(tok, jsonB, schemaB, task, 8, 2*time.Millisecond)
	fixed, _, err := RunStream(StreamConfig{Model: testModel(tok), Mode: Overlap, Tok: tok},
		fixedBatchReqs(arrivals))
	if err != nil {
		t.Fatal(err)
	}
	cont, _, err := RunStream(StreamConfig{Model: testModel(tok), Mode: Overlap, Tok: tok},
		streamReqs(tok, jsonB, schemaB, task, 8, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if cont.OutputTokens != fixed.OutputTokens {
		t.Fatalf("token counts differ: %d vs %d", cont.OutputTokens, fixed.OutputTokens)
	}
	if cont.Wall > fixed.Wall {
		t.Fatalf("continuous wall %v worse than fixed-batch wall %v", cont.Wall, fixed.Wall)
	}
	// The emulation shifts arrivals to the last one, so fixed.TTFT is
	// measured from the shifted arrival; add the mean shift back to compare
	// against the true arrival times the continuous run was measured from.
	var shift time.Duration
	for _, r := range arrivals {
		shift += arrivals[len(arrivals)-1].Arrival - r.Arrival
	}
	fixedTrueTTFT := fixed.TTFT + shift/time.Duration(len(arrivals))
	if cont.TTFT >= fixedTrueTTFT {
		t.Fatalf("continuous TTFT %v not better than fixed-batch TTFT %v", cont.TTFT, fixedTrueTTFT)
	}
}

// BenchmarkContinuousBatching measures stream throughput (tokens/s) for the
// continuous scheduler with joining/leaving sequences, against the old
// fixed-batch behavior (start after the last arrival) over the same work.
func BenchmarkContinuousBatching(b *testing.B) {
	tok, jsonB, schemaB, task := pooledSetup(b)
	model := testModel(tok)
	const n, gap = 8, time.Millisecond
	run := func(b *testing.B, mode Mode, maxBatch int, fixed bool) {
		for i := 0; i < b.N; i++ {
			reqs := streamReqs(tok, jsonB, schemaB, task, n, gap)
			if fixed {
				reqs = fixedBatchReqs(reqs)
			}
			met, _, err := RunStream(StreamConfig{Model: model, Mode: mode, Tok: tok, MaxBatch: maxBatch}, reqs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(met.TokensPerSecond(), "tok/s")
		}
	}
	b.Run("fixed-overlap", func(b *testing.B) { run(b, Overlap, 0, true) })
	b.Run("continuous-overlap", func(b *testing.B) { run(b, Overlap, 0, false) })
	b.Run("continuous-serial", func(b *testing.B) { run(b, Serial, 0, false) })
}
