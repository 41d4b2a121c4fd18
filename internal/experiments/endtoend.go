package experiments

import (
	"fmt"
	"time"

	"xgrammar/internal/baselines"
	"xgrammar/internal/engine"
	"xgrammar/internal/llmsim"
	"xgrammar/internal/pda"
	"xgrammar/internal/serve"
)

// e2eTargets returns the end-to-end workload: schema instances for the
// JSON-Schema task, JSON documents for the CFG task, repeated/cycled to the
// batch size.
func cycle(targets []string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = targets[i%len(targets)]
	}
	return out
}

// run executes one engine configuration over targets and returns metrics.
func (s *Suite) run(cfg engine.Config, targets []string, maxSteps int) engine.Metrics {
	cfg.Tok = s.Tok()
	cfg.MaxSteps = maxSteps
	reqs := llmsim.NewRequests(targets, s.PromptTokens)
	met, _, err := engine.Run(cfg, reqs)
	if err != nil {
		panic("experiments: e2e run: " + err.Error())
	}
	return met
}

// Fig10 reproduces Figure 10: end-to-end time per output token (ms) versus
// batch size on Llama-3.1-8B/H100, for the JSON-Schema and CFG (JSON)
// tasks, across serving-engine configurations.
func (s *Suite) Fig10() *Table {
	t := &Table{
		ID:    "fig10",
		Title: "End-to-end TPOT (ms) vs batch size, Llama-3.1-8B on H100",
		Paper: "batch 1/16/32 -- llama.cpp 187/790/1432; vLLM+Outlines 11/93/164 (CFG 185/736/1252 and 137/2311/timeout); SGLang+XGrammar 7/10/12; XGrammar engine 6/9/12",
	}
	header := []string{"task", "engine"}
	for _, b := range s.BatchSizes {
		header = append(header, fmt.Sprintf("batch %d", b))
	}
	t.Header = header
	profile := llmsim.H100Llama8B()

	schemas := s.Schemas()
	schemaArt := schemas[0]
	schemaTargets := make([]string, 0, len(schemas))
	for _, a := range schemas {
		schemaTargets = append(schemaTargets, a.Task.Instance)
	}
	xgJSON, xgJSONInit := s.XGrammarJSON()
	jsonDocs := s.cfgTasks()[0].docs
	jsonPlain := s.PDA("json-plain", s.cfgTasks()[0].grammar, pda.Options{})

	type rowCfg struct {
		task    string
		name    string
		mode    engine.Mode
		backend serve.Grammar
		init    time.Duration
		jf      bool
		targets []string
		slow    bool
	}
	rows := []rowCfg{
		{"JSON Schema", "llama.cpp", engine.Serial, schemaArt.LlamaCpp, 0, false, []string{schemaArt.Task.Instance}, true},
		{"JSON Schema", "vLLM + Outlines", engine.Serial, schemaArt.FSM, schemaArt.FSMInit, false, []string{schemaArt.Task.Instance}, false},
		{"JSON Schema", "SGLang + XGrammar", engine.Overlap, schemaArt.XG, schemaArt.XGInit, false, []string{schemaArt.Task.Instance}, false},
		{"JSON Schema", "XGrammar engine", engine.Overlap, schemaArt.XG, schemaArt.XGInit, true, []string{schemaArt.Task.Instance}, false},
		{"CFG (JSON)", "llama.cpp", engine.Serial, baselines.NewLlamaCpp(jsonPlain, s.Tok()), 0, false, jsonDocs, true},
		{"CFG (JSON)", "vLLM + Outlines", engine.Serial, baselines.NewOutlinesCFG(jsonPlain, s.Tok()), 0, false, jsonDocs, true},
		{"CFG (JSON)", "SGLang + XGrammar", engine.Overlap, xgJSON, xgJSONInit, false, jsonDocs, false},
		{"CFG (JSON)", "XGrammar engine", engine.Overlap, xgJSON, xgJSONInit, true, jsonDocs, false},
	}
	_ = schemaTargets
	for _, rc := range rows {
		cells := []string{rc.task, rc.name}
		for _, batch := range s.BatchSizes {
			maxSteps := s.FastStepCap
			if rc.slow {
				maxSteps = s.SlowStepCap / batch
				if maxSteps < 3 {
					maxSteps = 3
				}
			}
			met := s.run(engine.Config{
				Model:           s.Model(profile),
				Mode:            rc.mode,
				Grammar:         rc.backend,
				JumpForward:     rc.jf,
				GrammarInitTime: rc.init,
			}, cycle(rc.targets, batch), maxSteps)
			cells = append(cells, fmtMS(met.TPOT))
		}
		t.Add(cells...)
	}
	t.Note("vocab=%d; GPU time modelled (profile %s), grammar CPU measured; slow engines step-capped", s.Vocab, profile.Name)
	return t
}

// Tab1 reproduces Table 1: TPOT (ms) across models on the JSON-Schema task
// at batch 1, Outlines backend versus XGrammar backend on the same engine.
func (s *Suite) Tab1() *Table {
	t := &Table{
		ID:     "tab1",
		Title:  "End-to-end TPOT (ms) across models (JSON-Schema, batch 1)",
		Paper:  "Llama-3.1-8B: SGLang+Outlines 44.2 vs SGLang+XGrammar 6.8; DeepSeek-V2-Lite: 15.8 vs 4.8",
		Header: []string{"model", "engine + Outlines", "engine + XGrammar"},
	}
	art := s.Schemas()[0]
	for _, profile := range []llmsim.Profile{llmsim.H100Llama8B(), llmsim.DeepSeekV2Lite()} {
		outl := s.run(engine.Config{
			Model: s.Model(profile), Mode: engine.Serial, Grammar: art.FSM, GrammarInitTime: art.FSMInit,
		}, []string{art.Task.Instance}, s.FastStepCap)
		xg := s.run(engine.Config{
			Model: s.Model(profile), Mode: engine.Overlap, Grammar: art.XG, GrammarInitTime: art.XGInit,
		}, []string{art.Task.Instance}, s.FastStepCap)
		t.Add(profile.Name, fmtMS(outl.TPOT), fmtMS(xg.TPOT))
	}
	t.Note("Outlines runs serially with its FSM-index build amortized; XGrammar overlaps preprocessing with prefill and mask generation with decoding (§3.5)")
	return t
}

// Tab2 reproduces Table 2: the overhead of enabling XGrammar on the same
// engine (MLC-LLM in the paper), JSON-Schema and CFG tasks, batches 1 and 16.
func (s *Suite) Tab2() *Table {
	t := &Table{
		ID:     "tab2",
		Title:  "TPOT (ms) with and without XGrammar (overlapped engine)",
		Paper:  "JSON Schema: 6.2 vs 6.3 (b1), 9.0 vs 9.2 (b16); CFG: 6.3 vs 6.3, 9.0 vs 9.1 -- near-zero overhead",
		Header: []string{"task", "batch", "TPOT w/o XGrammar", "TPOT w/ XGrammar", "overhead"},
	}
	profile := llmsim.H100Llama8B()
	art := s.Schemas()[0]
	xgJSON, xgJSONInit := s.XGrammarJSON()
	jsonDocs := s.cfgTasks()[0].docs
	batches := []int{1, 16}
	if s.Quick {
		batches = []int{1, 4}
	}
	for _, tc := range []struct {
		name    string
		backend serve.Grammar
		init    time.Duration
		targets []string
	}{
		{"JSON Schema", art.XG, art.XGInit, []string{art.Task.Instance}},
		{"CFG (JSON)", xgJSON, xgJSONInit, jsonDocs},
	} {
		for _, batch := range batches {
			targets := cycle(tc.targets, batch)
			off := s.run(engine.Config{Model: s.Model(profile), Mode: engine.Unconstrained}, targets, s.FastStepCap)
			on := s.run(engine.Config{
				Model: s.Model(profile), Mode: engine.Overlap, Grammar: tc.backend, GrammarInitTime: tc.init,
			}, targets, s.FastStepCap)
			over := "0%"
			if off.TPOT > 0 {
				over = fmt.Sprintf("%.1f%%", 100*float64(on.TPOT-off.TPOT)/float64(off.TPOT))
			}
			t.Add(tc.name, fmt.Sprintf("%d", batch), fmtMS(off.TPOT), fmtMS(on.TPOT), over)
		}
	}
	return t
}

// Fig11 reproduces Figure 11 (Appendix B): jump-forward decoding combined
// with constrained decoding, JSON-Schema task on RTX 4090, batch 1.
func (s *Suite) Fig11() *Table {
	t := &Table{
		ID:     "fig11",
		Title:  "TPOT (ms) with and without jump-forward decoding (JSON Schema, batch 1, RTX 4090)",
		Paper:  "Outlines 44.2 -> 31.5; XGrammar 6.8 -> 5.4",
		Header: []string{"engine", "w/o jump-forward", "w/ jump-forward", "jf tokens"},
	}
	profile := llmsim.RTX4090Llama8B()
	art := s.Schemas()[0]
	for _, rc := range []struct {
		name    string
		mode    engine.Mode
		backend serve.Grammar
		init    time.Duration
	}{
		{"Outlines", engine.Serial, art.FSM, art.FSMInit},
		{"XGrammar", engine.Overlap, art.XG, art.XGInit},
	} {
		plain := s.run(engine.Config{Model: s.Model(profile), Mode: rc.mode, Grammar: rc.backend, GrammarInitTime: rc.init},
			[]string{art.Task.Instance}, s.FastStepCap)
		jf := s.run(engine.Config{Model: s.Model(profile), Mode: rc.mode, Grammar: rc.backend, GrammarInitTime: rc.init, JumpForward: true},
			[]string{art.Task.Instance}, s.FastStepCap)
		t.Add(rc.name, fmtMS(plain.TPOT), fmtMS(jf.TPOT), fmt.Sprintf("%d", jf.JumpForwardTokens))
	}
	t.Note("jump-forward inserts deterministic continuations without decode steps; both engines support it here, as in the paper")
	return t
}

// Fig12 reproduces Figure 12 (Appendix C): on-device structured vs
// unstructured generation (TTFT and TPOT) on the WebLLM-style profiles.
func (s *Suite) Fig12() *Table {
	t := &Table{
		ID:     "fig12",
		Title:  "On-device structured vs unstructured generation",
		Paper:  "M3 Max Llama-8B: TTFT 1531.9 vs 1365.1ms, TPOT 31.9 vs 29.7ms; iPhone Qwen-0.5B: TTFT 1179.1 vs 955.5ms, TPOT 48.1 vs 47.3ms (near-zero overhead)",
		Header: []string{"device/model", "TTFT unstruct (ms)", "TTFT struct (ms)", "TPOT unstruct (ms)", "TPOT struct (ms)"},
	}
	art := s.Schemas()[0]
	for _, profile := range []llmsim.Profile{llmsim.M3MaxLlama8B(), llmsim.IPhoneQwen05B()} {
		un := s.run(engine.Config{Model: s.Model(profile), Mode: engine.Unconstrained},
			[]string{art.Task.Instance}, s.FastStepCap)
		st := s.run(engine.Config{Model: s.Model(profile), Mode: engine.Overlap, Grammar: art.XG, GrammarInitTime: art.XGInit},
			[]string{art.Task.Instance}, s.FastStepCap)
		t.Add(profile.Name, fmtMS(un.TTFT), fmtMS(st.TTFT), fmtMS(un.TPOT), fmtMS(st.TPOT))
	}
	t.Note("prompt %d tokens; structured runs include grammar preprocessing overlapped with prefill", s.PromptTokens)
	return t
}
