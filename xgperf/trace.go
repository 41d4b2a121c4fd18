package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"xgrammar"
	"xgrammar/internal/backend/simllm"
	"xgrammar/internal/builtin"
	"xgrammar/internal/grammar"
	"xgrammar/internal/jsonschema"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/obs"
	"xgrammar/internal/pda"
	"xgrammar/internal/server"
)

// unattributedFlag is the share of end-to-end time left unattributed
// above which the traced run flags the remainder.
const unattributedFlag = 0.10

// runTraced is the separate traced run behind the per-layer metrics. It
// covers half the untraced run's length and
//
//  1. trains the tokenizer once (tokenizer.train);
//  2. runs the closed list on an untraced gateway, for obs.overhead_ratio;
//  3. runs the closed list, then the open list, on a traced gateway whose
//     backend is wrapped in timedBackend (spans around the backend calls of
//     a sample of requests, see sampleRequests);
//  4. replays the sampled plain and speculative requests on a fresh engine,
//     timing acquire, fill, accept and jump-forward, and checks the
//     replayed text equals the gateway's;
//  5. compiles every distinct grammar of the lists phase by phase.
//
// Queue, stream and tag-segment times exist only inside the batcher; they
// come from the gateway's own request traces and are labelled as
// gateway-reported.
func runTraced(w *workload, seed int64, seconds float64, spansDir string) (*report, error) {
	p := makePlan(w, seed, seconds/2)
	conns := runtime.GOMAXPROCS(0)
	client := newClient(conns)
	defer client.CloseIdleConnections()
	rec := newRecorder()
	rep := &report{m: newMetrics(), correct: true}
	m := rep.m

	t0 := time.Now()
	info := trainTokenizer(w.vocab)
	rec.add("tokenizer.train", -1, 0, t0, time.Now())
	m.set("tokenizer.train_s", "s", secs(time.Since(t0)))

	// Untraced reference on its own gateway, from the same starting state.
	ref, err := startGateway(info, nil, nil)
	if err != nil {
		return nil, err
	}
	ids, err := ref.register(client, p)
	if err != nil {
		ref.close()
		return nil, err
	}
	if err := p.buildBodies(ids); err != nil {
		ref.close()
		return nil, err
	}
	refClosed, err := runClosed(client, ref.url, p.closed, conns, closedSegments(p.closedSeconds), false)
	ref.close()
	client.CloseIdleConnections()
	if err != nil {
		return nil, err
	}

	// Traced gateway.
	tracer := obs.New(obs.Config{RingSize: len(p.open) + len(p.closed) + 1})
	sampled := sampleRequests(p)
	tb := &timedBackend{Backend: simllm.NewSampler(info.EOSTokenID()), rec: rec, sampled: sampled}
	gw, err := startGateway(info, tracer, tb)
	if err != nil {
		return nil, err
	}
	defer gw.close()
	t0 = time.Now()
	if _, err := gw.register(client, p); err != nil {
		return nil, err
	}
	rec.add("setup.register", -1, 0, t0, time.Now())
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	busy0 := tb.busy.Load()
	closed, err := runClosed(client, gw.url, p.closed, conns, closedSegments(p.closedSeconds), true)
	if err != nil {
		return nil, err
	}
	busyClosed := time.Duration(tb.busy.Load() - busy0)
	runtime.ReadMemStats(&mem1)
	open := runOpen(client, gw.url, p.open, true)
	gm, err := gw.metrics(client)
	if err != nil {
		return nil, err
	}

	phases := []*phase{refClosed, closed, open}
	var results []*result // the traced gateway's, in serving order
	for _, ph := range phases {
		for _, r := range ph.results {
			p.check(r)
			r.raw = nil
		}
		c := ph.counts()
		rep.attempted += c.sent
		rep.failed += c.failed
		label := ph.name
		if ph == refClosed {
			label = "ref-closed"
		} else {
			results = append(results, ph.results...)
		}
		rep.addf("phase %-10s %s wall=%.2fs", label, c, secs(ph.wall))
	}
	rep.addf("workload %s seed %d vocab %d (traced, %.1fs of lists): %d open, %d closed requests",
		w.name, seed, w.vocab, seconds/2, len(p.open), len(p.closed))
	if rep.failed > 0 {
		rep.correct = false
	}

	// Request root spans and gateway-reported stages.
	snaps := map[uint64]*obs.Snapshot{}
	for _, s := range tracer.Completed(obs.Filter{}) {
		snaps[s.ID] = s
	}
	roots := map[int64]int32{}
	gwStages := map[int64]map[string]obs.StageSummary{}
	for _, r := range results {
		root := rec.add("loadgen.request", -1, r.req.seed, r.origin, r.done)
		roots[r.req.seed] = root
		if !r.gotConn.IsZero() {
			rec.add("loadgen.send_delay", root, r.req.seed, r.origin, r.gotConn)
		}
		s := snaps[r.traceID]
		if s == nil {
			continue
		}
		st := map[string]obs.StageSummary{}
		for _, a := range s.Stages {
			st[a.Stage] = a
		}
		gwStages[r.req.seed] = st
		for _, e := range s.Events {
			switch e.Stage {
			case "admission", "resolve", "compile", "prefix_lookup", "queue", "stream", "tag_segment":
				start := s.Start.Add(time.Duration(e.OffsetMS * float64(time.Millisecond)))
				rec.add("server."+e.Stage, root, r.req.seed, start, start.Add(time.Duration(e.DurMS*float64(time.Millisecond))))
			}
		}
	}
	rec.link(roots)

	// Replay plain and speculative requests in serving order.
	rp := newReplayer(rec, info)
	defer rp.close()
	mismatches := 0
	for _, r := range results {
		if r.req.kind == kindTools || r.failure != "" || !sampled[r.req.seed] {
			continue
		}
		text, finish, err := rp.replay(p, r.req)
		if err != nil || text != r.out.text || finish != r.out.finish {
			mismatches++
			if mismatches == 1 {
				rep.addf("  replay mismatch seed=%d: %v", r.req.seed, err)
			}
		}
	}
	if mismatches > 0 {
		rep.correct = false
		rep.failed += mismatches
	}
	rep.addf("replay: %d mismatches", mismatches)

	compiles, err := timeCompiles(rec, info, p)
	if err != nil {
		return nil, err
	}

	outside, solo := layerMetrics(m, w, p, gw, gm, closed, open, results, gwStages, rp, compiles, tb, busyClosed, &mem0, &mem1)
	rep.addf("server.unattributed_ratio rests on %d solo open-phase requests; %.3f of their time is outside the gateway handler",
		solo, outside)
	m.set("obs.overhead_ratio", "ratio", ratio(refClosed.rates().tokSRef, closed.rates().tokSRef)-1)
	if u := m.m["server.unattributed_ratio"].Value; u > unattributedFlag {
		rep.addf("FLAG server.unattributed_ratio %.3f exceeds %.2f: time outside the traced layers", u, unattributedFlag)
	}

	self := rec.selfTimes()
	rep.addf("%-28s %9s %12s %12s", "span", "count", "total_ms", "self_ms")
	for _, lt := range self {
		rep.addf("%-28s %9d %12.2f %12.2f", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
	}
	if spansDir != "" {
		path, err := rec.write(spansDir, fmt.Sprintf("%s-seed%d", w.name, seed), self)
		if err != nil {
			return nil, err
		}
		rep.addf("spans written to %s", path)
	}
	return rep, nil
}

// sampledPerPhase bounds how many requests of each phase get backend spans
// and a replay, which bounds the span count on short-request workloads.
const sampledPerPhase = 500

// sampleRequests picks the requests whose layer calls are recorded as
// spans: an evenly spaced sample of each phase.
func sampleRequests(p *plan) map[int64]bool {
	out := map[int64]bool{}
	for _, list := range [][]*request{p.open, p.closed} {
		step := max(1, (len(list)+sampledPerPhase-1)/sampledPerPhase)
		for i := 0; i < len(list); i += step {
			out[list[i].seed] = true
		}
	}
	return out
}

// compileTiming is one distinct grammar compiled phase by phase.
type compileTiming struct {
	lower, pda, build time.Duration
	jsonSchema        bool
	stats             maskcache.Stats
}

// timeCompiles compiles every distinct grammar the plan's requests use:
// lowering (JSON schema to grammar), PDA construction and the vocabulary
// scan, with the compiler's default options. Tool parameter schemas are
// compiled without the end tag the gateway appends to tag segments.
func timeCompiles(rec *recorder, info *xgrammar.TokenizerInfo, p *plan) ([]compileTiming, error) {
	type src struct {
		schema  []byte
		builtin bool
	}
	var srcs []src
	seen := map[string]bool{}
	addSchema := func(s []byte) {
		if !seen[string(s)] {
			seen[string(s)] = true
			srcs = append(srcs, src{schema: s})
		}
	}
	for _, r := range p.all() {
		switch r.kind {
		case kindByID, kindInline:
			addSchema(p.schemas[r.schema])
		case kindTools:
			for _, t := range r.tools {
				addSchema(toolSet[t].params)
			}
		case kindTemplate:
			if !seen["builtin:json"] {
				seen["builtin:json"] = true
				srcs = append(srcs, src{builtin: true})
			}
		}
	}
	var out []compileTiming
	for _, s := range srcs {
		root := rec.begin("compile.grammar", -1, 0)
		var ct compileTiming
		var g *grammar.Grammar
		if s.builtin {
			sp := rec.begin("builtin.parse", root, 0)
			g = builtin.JSON()
			ct.lower = rec.end(sp)
		} else {
			sp := rec.begin("jsonschema.lower", root, 0)
			var err error
			g, _, err = jsonschema.CompileFull(s.schema, jsonschema.Options{})
			ct.lower = rec.end(sp)
			if err != nil {
				return nil, fmt.Errorf("lower schema: %w", err)
			}
			ct.jsonSchema = true
		}
		sp := rec.begin("pda.compile", root, 0)
		pd, err := pda.Compile(g, pda.AllOptimizations)
		ct.pda = rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("pda compile: %w", err)
		}
		sp = rec.begin("maskcache.build", root, 0)
		c := maskcache.Build(pd, info.Raw(), maskcache.Options{ContextExpansion: true})
		ct.build = rec.end(sp)
		rec.end(root)
		ct.stats = c.Stats()
		out = append(out, ct)
	}
	return out, nil
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(m *metrics, w *workload, p *plan, gw *gateway, gm server.Metrics, closed, open *phase,
	results []*result, gwStages map[int64]map[string]obs.StageSummary, rp *replayer,
	compiles []compileTiming, tb *timedBackend, busyClosed time.Duration, mem0, mem1 *runtime.MemStats) (outside float64, solo int) {
	cc := gm.CompileCache
	m.set("gramcache.hit_ratio", "ratio", ratio(float64(cc.Hits+cc.Coalesced), float64(cc.Hits+cc.Misses+cc.Coalesced)))
	m.set("gramcache.evictions", "count", float64(cc.Evictions))
	m.set("compile.count", "count", float64(cc.Compiles))

	var total, lower, pdaMS, build, storage []float64
	var ctxDep, allTok float64
	for _, c := range compiles {
		total = append(total, ms(c.lower+c.pda+c.build))
		if c.jsonSchema {
			lower = append(lower, ms(c.lower))
		}
		pdaMS = append(pdaMS, ms(c.pda))
		build = append(build, ms(c.build))
		storage = append(storage, float64(c.stats.StorageBytes)/1024)
		ctxDep += float64(c.stats.CtxDependent)
		allTok += float64(c.stats.CIAccepted + c.stats.CIRejected + c.stats.CtxDependent)
	}
	m.set("compile.ms_p50", "ms", quantile(total, 0.50))
	m.set("compile.ms_p99", "ms", quantile(total, 0.99))
	m.set("jsonschema.lower_ms", "ms", median(lower))
	m.set("pda.compile_ms", "ms", median(pdaMS))
	m.set("maskcache.build_ms", "ms", median(build))
	m.set("maskcache.ctx_dependent_ratio", "ratio", ratio(ctxDep, allTok))
	m.set("maskcache.storage_kb", "KB", median(storage))

	m.set("serve.acquire_us_p50", "us", quantile(durUS(rp.acquire), 0.50))
	m.set("serve.acquire_us_p99", "us", quantile(durUS(rp.acquire), 0.99))
	pc := gm.PrefixCache
	m.set("prefixcache.hit_ratio", "ratio", ratio(float64(pc.Hits), float64(pc.Hits+pc.Misses)))
	m.set("serve.reused_byte_ratio", "ratio", ratio(float64(pc.BytesReused), float64(pc.BytesReused+pc.BytesReplayed)))
	m.set("serve.pool_reuse_ratio", "ratio", poolReuse(gw, p))

	m.set("maskcache.fill_us_p50", "us", quantile(durUS(rp.fill), 0.50))
	m.set("maskcache.fill_us_p99", "us", quantile(durUS(rp.fill), 0.99))
	m.set("maskcache.fastpath_ratio", "ratio", gm.FillFastPathRate)
	m.set("maskcache.fill_words", "words", float64((w.vocab+63)/64))

	m.set("matcher.accept_us_p50", "us", quantile(durUS(rp.accept), 0.50))
	m.set("matcher.accept_us_p99", "us", quantile(durUS(rp.accept), 0.99))
	m.set("matcher.jumpforward_us_p50", "us", quantile(durUS(rp.jf), 0.50))
	var tokens, jfBytes, toolReqs, segs int
	var segMS []float64
	for _, r := range results {
		tokens += r.out.tokens
		jfBytes += r.out.jfBytes
		if r.req.kind == kindTools {
			toolReqs++
			segs += r.out.segments
			if a, ok := gwStages[r.req.seed]["tag_segment"]; ok && a.Count > 0 {
				segMS = append(segMS, a.TotalMS/float64(a.Count))
			}
		}
	}
	m.set("matcher.jf_bytes_per_token", "B/token", ratio(float64(jfBytes), float64(tokens)))

	m.set("spec.accept_ratio", "ratio", gm.Speculative.AcceptanceRate)
	m.set("spec.rounds_per_token", "ratio", ratio(float64(rp.specRounds), float64(rp.specTokens)))
	m.set("structtag.segments_per_request", "count", ratio(float64(segs), float64(toolReqs)))
	m.set("structtag.segment_ms_p50", "ms", median(segMS))

	var next []float64
	for _, s := range spansNamed(tb.rec, "backend.next", true) {
		next = append(next, float64(s.end-s.start)/1e3)
	}
	m.set("backend.next_us_p50", "us", quantile(next, 0.50))
	m.set("backend.next_us_p99", "us", quantile(next, 0.99))
	m.set("backend.time_share", "ratio", ratio(float64(busyClosed), float64(closed.wall)))

	var queue []float64
	var streamMS, streamN float64
	for _, st := range gwStages {
		if a, ok := st["queue"]; ok {
			queue = append(queue, a.TotalMS*1e3)
		}
		if a, ok := st["stream"]; ok {
			streamMS += a.TotalMS
			streamN += float64(a.Count)
		}
	}
	m.set("server.queue_us_p50", "us", quantile(queue, 0.50))
	m.set("server.queue_us_p99", "us", quantile(queue, 0.99))
	m.set("server.stream_us_per_chunk", "us", ratio(streamMS*1e3, streamN))
	m.set("server.chunks_per_token", "ratio", ratio(streamN, float64(tokens)))
	u, outside, solo := unattributed(open.results, gwStages, tb.rec, rp)
	m.set("server.unattributed_ratio", "ratio", u)

	closedTokens := 0
	for _, r := range closed.results {
		closedTokens += r.out.tokens
	}
	m.set("runtime.alloc_bytes_per_token", "B/token", ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), float64(closedTokens)))
	m.set("runtime.gc_pause_ms", "ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6)

	var send []float64
	for _, r := range open.results {
		if !r.gotConn.IsZero() {
			send = append(send, ms(r.gotConn.Sub(r.origin)))
		}
	}
	m.set("loadgen.send_delay_ms_p99", "ms", quantile(send, 0.99))
	m.set("loadgen.lag_ms_p99", "ms", quantile(durMS(open.lag), 0.99))
	return outside, solo
}

// unattributed is the share of solo requests' end-to-end time (send to
// [DONE]) not covered by a traced layer. A request is solo when no other
// request was in flight during it, so its time is all its own. Attributed
// time is the gateway-reported admission, resolve, compile and queue
// stages, then the longer of two paths that run in parallel: decoding (the
// backend calls recorded around the gateway's backend plus the replayed
// grammar-engine time) and the handler's SSE stream writes. Tool requests
// have no replay and are left out. It returns the ratio, the share of the
// same time spent outside the gateway handler (HTTP transport, connection
// handling and the client), and the number of solo requests.
func unattributed(results []*result, gwStages map[int64]map[string]obs.StageSummary, rec *recorder, rp *replayer) (share, outside float64, solo int) {
	sorted := make([]*result, 0, len(results))
	for _, r := range results {
		if r.failure == "" {
			sorted = append(sorted, r)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].sent.Before(sorted[j].sent) })
	backendBy := map[int64]time.Duration{}
	for _, s := range spansNamed(rec, "backend.", false) {
		backendBy[s.req] += time.Duration(s.end - s.start)
	}
	stage := func(seed int64, name string) time.Duration {
		return time.Duration(gwStages[seed][name].TotalMS * float64(time.Millisecond))
	}
	var e2e, attributed, handler time.Duration
	var lastDone time.Time
	n := 0
	for i, r := range sorted {
		solo := !r.sent.Before(lastDone) && (i+1 == len(sorted) || !sorted[i+1].sent.Before(r.done))
		if r.done.After(lastDone) {
			lastDone = r.done
		}
		g, replayed := rp.grammar[r.req.seed]
		if !solo || !replayed {
			continue
		}
		n++
		e2e += r.done.Sub(r.sent)
		seed := r.req.seed
		handler += stage(seed, "total")
		attributed += stage(seed, "admission") + stage(seed, "resolve") + stage(seed, "compile") + stage(seed, "queue")
		attributed += max(g+backendBy[seed], stage(seed, "stream"))
	}
	if e2e == 0 {
		return 0, 0, 0
	}
	return float64(e2e-attributed) / float64(e2e), float64(e2e-handler) / float64(e2e), n
}

// spansNamed returns the gateway-side spans (those linked to a request's
// loadgen root) whose name equals name, or starts with it when prefix.
func spansNamed(rec *recorder, name string, exact bool) []span {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []span
	for _, s := range rec.spans {
		if s.parent < 0 || rec.spans[s.parent].name != "loadgen.request" {
			continue
		}
		if (exact && s.name == name) || (!exact && len(s.name) >= len(name) && s.name[:len(name)] == name) {
			out = append(out, s)
		}
	}
	return out
}

// poolReuse is the share of session acquisitions the traced gateway served
// by recycling a closed session, over its plain grammars.
func poolReuse(gw *gateway, p *plan) float64 {
	seen := map[string]bool{}
	var created, reused int64
	for _, r := range p.all() {
		var spec xgrammar.GrammarSpec
		switch r.kind {
		case kindByID, kindInline:
			spec = xgrammar.GrammarSpec{Kind: xgrammar.KindJSONSchema, Source: string(p.schemas[r.schema])}
		case kindTemplate:
			spec = xgrammar.GrammarSpec{Kind: xgrammar.KindBuiltin, Source: "json"}
		default:
			continue
		}
		id, err := gw.comp.SpecID(spec)
		if err != nil || seen[id] {
			continue
		}
		seen[id] = true
		if cg, ok := gw.comp.GrammarByID(id); ok {
			c, u := cg.SessionPoolStats()
			created += c
			reused += u
		}
	}
	return ratio(float64(reused), float64(created+reused))
}

func durUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
