package experiments

import (
	"fmt"
	"time"

	"xgrammar/internal/baselines"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/pda"
	"xgrammar/internal/serve"
)

// Fig9 reproduces Figure 9: per-token mask generation latency (µs) for the
// four tasks (JSON Schema, CFG JSON, CFG XML, CFG Python DSL) across the
// four engines. lm-format-enforcer supports only the regex-representable
// JSON Schema task, as in the paper.
func (s *Suite) Fig9() *Table {
	t := &Table{
		ID:     "fig9",
		Title:  "Per-token mask generation latency (us/token)",
		Paper:  "XGrammar 36/36/52/191us; best baseline 125us (schema, Outlines) and 4.7-42.6ms (CFGs); up to 3x (schema) and >100x (CFG) speedups",
		Header: []string{"engine", "JSON Schema", "CFG (JSON)", "CFG (XML)", "CFG (Python DSL)"},
	}

	type cell struct {
		lat   time.Duration
		steps int
		ok    bool
	}
	engines := []string{"xgrammar", "outlines", "llama.cpp-grammar", "lm-format-enforcer"}
	results := map[string]map[string]cell{}
	for _, e := range engines {
		results[e] = map[string]cell{}
	}

	// JSON Schema task: per-schema grammars, regex engines applicable.
	schemas := s.Schemas()
	accum := func(engine, task string, b serve.Grammar, docs []string, cap int) {
		lat, steps := s.measureMaskLatency(b, docs, cap)
		c := results[engine][task]
		c.lat += lat * time.Duration(steps)
		c.steps += steps
		c.ok = true
		results[engine][task] = c
	}
	for _, art := range schemas {
		docs := []string{art.Task.Instance}
		accum("xgrammar", "JSON Schema", art.XG, docs, s.FastStepCap)
		if art.FSM != nil {
			accum("outlines", "JSON Schema", art.FSM, docs, s.FastStepCap)
		}
		if art.CharWalk != nil {
			accum("lm-format-enforcer", "JSON Schema", art.CharWalk, docs, s.SlowStepCap)
		}
		accum("llama.cpp-grammar", "JSON Schema", art.LlamaCpp, docs, s.SlowStepCap)
	}

	// CFG tasks.
	for _, task := range s.cfgTasks() {
		key := "fig9-" + task.name
		pOpt := s.PDA(key+"-opt", task.grammar, pda.AllOptimizations)
		cache := s.Cache(key+"-opt", pOpt, maskcache.Options{ContextExpansion: true})
		xg := serve.NewSessionPool(pOpt, cache, s.Tok(), 0)
		outl := baselines.NewOutlinesCFG(pOpt, s.Tok())
		lcp := baselines.NewLlamaCpp(s.PDA(key+"-plain", task.grammar, pda.Options{}), s.Tok())
		accum("xgrammar", task.name, xg, task.docs, s.FastStepCap)
		accum("outlines", task.name, outl, task.docs, s.SlowStepCap)
		accum("llama.cpp-grammar", task.name, lcp, task.docs, s.SlowStepCap)
	}

	tasks := []string{"JSON Schema", "CFG (JSON)", "CFG (XML)", "CFG (Python DSL)"}
	for _, e := range engines {
		row := []string{e}
		for _, task := range tasks {
			c := results[e][task]
			if !c.ok || c.steps == 0 {
				row = append(row, "n/s")
				continue
			}
			row = append(row, fmtUS(c.lat/time.Duration(c.steps)))
		}
		t.Add(row...)
	}
	t.Note("vocab=%d; full-scan engines measured over %d steps/task; n/s = grammar class not supported", s.Vocab, s.SlowStepCap)
	t.Note("outlines uses FSM token indexing on the schema task and the interpreted CFG path otherwise, as in the paper")
	return t
}

// Tab3 reproduces Table 3: the cumulative ablation of the optimization
// techniques, measured as mean per-token mask generation latency on the
// CFG (unconstrained JSON) task.
func (s *Suite) Tab3() *Table {
	t := &Table{
		ID:     "tab3",
		Title:  "Ablation of optimization techniques (CFG JSON mask generation)",
		Paper:  "PDA baseline 65.776ms; +node merging 38.280 (1.7x); +adaptive cache 0.154 (248.6x); +rule inlining 0.035 (4.4x); +context expansion 0.018ms (1.9x)",
		Header: []string{"configuration", "per-token latency (ms)", "speedup vs prev"},
	}
	jsonDocs := s.cfgTasks()[0].docs
	g := s.cfgTasks()[0].grammar

	type config struct {
		name string
		mk   func() serve.Grammar
		cap  int
	}
	configs := []config{
		{"PDA baseline", func() serve.Grammar {
			return baselines.NewLlamaCpp(s.PDA("tab3-plain", g, pda.Options{}), s.Tok())
		}, s.SlowStepCap},
		{"+ node merging", func() serve.Grammar {
			return baselines.NewLlamaCpp(s.PDA("tab3-merge", g, pda.Options{NodeMerging: true}), s.Tok())
		}, s.SlowStepCap},
		{"+ adaptive token mask cache", func() serve.Grammar {
			p := s.PDA("tab3-merge", g, pda.Options{NodeMerging: true})
			c := s.Cache("tab3-cache", p, maskcache.Options{})
			return serve.NewSessionPool(p, c, s.Tok(), 0)
		}, s.FastStepCap},
		{"+ rule inlining", func() serve.Grammar {
			p := s.PDA("tab3-inline", g, pda.AllOptimizations)
			c := s.Cache("tab3-inline", p, maskcache.Options{})
			return serve.NewSessionPool(p, c, s.Tok(), 0)
		}, s.FastStepCap},
		{"+ context expansion", func() serve.Grammar {
			p := s.PDA("tab3-inline", g, pda.AllOptimizations)
			c := s.Cache("tab3-ctx", p, maskcache.Options{ContextExpansion: true})
			return serve.NewSessionPool(p, c, s.Tok(), 0)
		}, s.FastStepCap},
	}
	var prev time.Duration
	for _, cfg := range configs {
		lat, _ := s.measureMaskLatency(cfg.mk(), jsonDocs, cfg.cap)
		speedup := "-"
		if prev > 0 && lat > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(prev)/float64(lat))
		}
		t.Add(cfg.name, fmtMS(lat), speedup)
		prev = lat
	}
	t.Note("vocab=%d; each row adds one optimization on top of the previous row, as in the paper", s.Vocab)
	return t
}
