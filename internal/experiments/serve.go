package experiments

import (
	"fmt"
	"time"

	"xgrammar/internal/engine"
	"xgrammar/internal/llmsim"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/pda"
	"xgrammar/internal/serve"
	"xgrammar/internal/workload"
)

// ServeResult is one machine-readable serving-benchmark record (the -json
// output of cmd/xgbench), tracking the perf trajectory of the continuous-
// batching runtime: throughput plus the per-step mask fill latency tail.
type ServeResult struct {
	Experiment   string  `json:"experiment"`
	Mode         string  `json:"mode"`
	Requests     int     `json:"requests"`
	MaxBatch     int     `json:"max_batch"`
	OutputTokens int     `json:"output_tokens"`
	TokensPerSec float64 `json:"tokens_per_sec"`
	TTFTMS       float64 `json:"ttft_ms"`
	TPOTMS       float64 `json:"tpot_ms"`
	FillP50US    float64 `json:"fill_p50_us"`
	FillP99US    float64 `json:"fill_p99_us"`
	PeakBatch    int     `json:"peak_batch"`
	Joins        int     `json:"joins"`
	Leaves       int     `json:"leaves"`
}

// serveWorkload builds the mixed-grammar staggered-arrival request stream:
// JSON CFG documents interleaved with JSON Schema instances, arrivals spaced
// so sequences join a running batch (continuous batching) rather than start
// together.
func (s *Suite) serveWorkload(gap time.Duration) []*engine.StreamRequest {
	jsonPDA := s.PDA("json-opt", s.cfgTasks()[0].grammar, pda.AllOptimizations)
	jsonCache := s.Cache("json-opt", jsonPDA, maskcache.Options{ContextExpansion: true})
	jsonBackend := serve.NewSessionPool(jsonPDA, jsonCache, s.Tok(), 0)

	art := s.Schemas()[0]
	schemaCache := s.Cache("schema-"+art.Task.Name, art.PDA, maskcache.Options{ContextExpansion: true})
	schemaBackend := serve.NewSessionPool(art.PDA, schemaCache, s.Tok(), 0)

	n := 2 * s.NumDocs
	docs := workload.JSONDocs(s.NumDocs, 7)
	reqs := make([]*engine.StreamRequest, n)
	for i := 0; i < n; i++ {
		target := docs[(i/2)%len(docs)]
		backend := jsonBackend
		init := s.InitTime("json-opt")
		if i%2 == 1 {
			target = art.Task.Instance
			backend = schemaBackend
			init = s.InitTime("schema-" + art.Task.Name)
		}
		if i >= 2 {
			init = 0 // compiled-grammar cache hit for every later request
		}
		reqs[i] = &engine.StreamRequest{
			Req:         llmsim.NewRequests([]string{target}, s.PromptTokens)[0],
			Arrival:     time.Duration(i) * gap,
			Grammar:     backend,
			GrammarInit: init,
		}
	}
	return reqs
}

// ServeBench runs the continuous-batching serving benchmark: the same
// arrival stream decoded (a) as the old fixed batch (start when the whole
// batch has arrived), (b) continuously with grammar work on the critical
// path, and (c) continuously with the batch fill overlapped via the
// persistent worker pool (§3.5 co-design). Results are memoized, so the
// serve table and the -json output come from one run.
func (s *Suite) ServeBench() []ServeResult {
	if s.serveResults != nil {
		return s.serveResults
	}
	profile := llmsim.H100Llama8B()
	gap := profile.DecodeBase / 2
	maxBatch := s.NumDocs
	cases := []struct {
		name  string
		mode  engine.Mode
		fixed bool
	}{
		{"fixed-batch overlap", engine.Overlap, true},
		{"continuous serial", engine.Serial, false},
		{"continuous overlap", engine.Overlap, false},
	}
	out := make([]ServeResult, 0, len(cases))
	for _, c := range cases {
		reqs := s.serveWorkload(gap)
		if c.fixed {
			var last time.Duration
			for _, r := range reqs {
				if r.Arrival > last {
					last = r.Arrival
				}
			}
			for _, r := range reqs {
				r.Arrival = last
			}
		}
		met, _, err := engine.RunStream(engine.StreamConfig{
			Model:    s.Model(profile),
			Mode:     c.mode,
			Tok:      s.Tok(),
			MaxBatch: maxBatch,
			MaxSteps: s.FastStepCap,
		}, reqs)
		if err != nil {
			panic("experiments: serve: " + err.Error())
		}
		out = append(out, ServeResult{
			Experiment:   c.name,
			Mode:         c.mode.String(),
			Requests:     met.Requests,
			MaxBatch:     maxBatch,
			OutputTokens: met.OutputTokens,
			TokensPerSec: met.TokensPerSecond(),
			TTFTMS:       float64(met.TTFT.Nanoseconds()) / 1e6,
			TPOTMS:       float64(met.TPOT.Nanoseconds()) / 1e6,
			FillP50US:    float64(met.FillP50.Nanoseconds()) / 1e3,
			FillP99US:    float64(met.FillP99.Nanoseconds()) / 1e3,
			PeakBatch:    met.PeakBatch,
			Joins:        met.Joins,
			Leaves:       met.Leaves,
		})
	}
	s.serveResults = out
	return out
}

// Serve renders the continuous-batching benchmark as an experiment table.
func (s *Suite) Serve() *Table {
	t := &Table{
		ID:    "serve",
		Title: "Continuous-batching serving runtime (pooled sessions, overlapped batch fill)",
		Paper: "§3.5: grammar work disappears from the critical path when engine and grammar runtime are co-designed",
		Header: []string{
			"engine", "tok/s", "TTFT ms", "TPOT ms", "fill p50 us", "fill p99 us", "peak batch", "joins",
		},
	}
	for _, r := range s.ServeBench() {
		t.Add(
			r.Experiment,
			fmt.Sprintf("%.0f", r.TokensPerSec),
			fmt.Sprintf("%.2f", r.TTFTMS),
			fmt.Sprintf("%.2f", r.TPOTMS),
			fmt.Sprintf("%.1f", r.FillP50US),
			fmt.Sprintf("%.1f", r.FillP99US),
			fmt.Sprintf("%d", r.PeakBatch),
			fmt.Sprintf("%d", r.Joins),
		)
	}
	t.Note("mixed grammars per batch (JSON CFG + JSON Schema), %d requests arriving every %v, batch bound %d",
		2*s.NumDocs, llmsim.H100Llama8B().DecodeBase/2, s.NumDocs)
	t.Note("fixed-batch waits for the whole batch before decoding; continuous admits sequences mid-run (sessions pooled)")
	return t
}
