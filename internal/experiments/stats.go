package experiments

import (
	"fmt"

	"xgrammar/internal/maskcache"
	"xgrammar/internal/pda"
)

// maskcacheOptions returns the default (full) cache options; a tiny helper
// so accuracy.go reads cleanly.
func maskcacheOptions() maskcache.Options {
	return maskcache.Options{ContextExpansion: true}
}

// Stats reproduces the in-text statistics of §3.1–§3.3: the fraction of
// context-dependent tokens, the effect of context expansion, the adaptive
// storage saving, and the prefix-sharing saving during preprocessing.
func (s *Suite) Stats() *Table {
	t := &Table{
		ID:    "stats",
		Title: "Preprocessing statistics (paper §3.1–§3.3 claims)",
		Paper: "JSON grammar, Llama-3.1 128k vocab: ctx-dependent 1134 of 128k (<1%); context expansion 1134 -> 120 (-90%); storage 160MB -> 0.46MB (0.2%); prefix sharing cuts chars to 30%",
		Header: []string{
			"grammar", "PDA nodes", "ctx-dep/node (no exp)", "ctx-dep/node (exp)",
			"reduction", "adaptive KB", "bitset KB", "ratio", "chars stepped",
		},
	}
	for _, task := range s.cfgTasks() {
		key := "stats-" + task.name
		p := s.PDA(key, task.grammar, pda.AllOptimizations)
		plain := s.Cache(key+"-plain", p, maskcache.Options{})
		exp := s.Cache(key+"-exp", p, maskcache.Options{ContextExpansion: true})
		ps, es := plain.Stats(), exp.Stats()
		red := "-"
		if ps.CtxDependent > 0 {
			red = fmt.Sprintf("%.1f%%", 100*(1-float64(es.CtxDependent)/float64(ps.CtxDependent)))
		}
		t.Add(
			task.name,
			fmt.Sprintf("%d", p.NumNodes()),
			fmt.Sprintf("%.1f", float64(ps.CtxDependent)/float64(ps.Nodes)),
			fmt.Sprintf("%.1f", float64(es.CtxDependent)/float64(es.Nodes)),
			red,
			fmt.Sprintf("%.1f", float64(es.StorageBytes)/1024),
			fmt.Sprintf("%.1f", float64(es.FullBitsetBytes)/1024),
			fmt.Sprintf("%.1f%%", 100*float64(es.StorageBytes)/float64(es.FullBitsetBytes)),
			fmt.Sprintf("%.1f%%", 100*float64(es.CharsStepped)/float64(es.CharsTotal)),
		)
	}
	t.Note("vocab=%d (paper: 128k); ctx-dep/node is the mean number of context-dependent tokens per automaton node", s.Vocab)
	t.Note("'chars stepped' is the fraction of token bytes actually executed thanks to persistent-stack prefix sharing (§3.3)")
	return t
}

// All runs every experiment in paper order.
func (s *Suite) All() []*Table {
	return []*Table{
		s.Fig9(),
		s.Fig10(),
		s.Tab1(),
		s.Tab2(),
		s.Tab3(),
		s.Tab4(),
		s.Fig11(),
		s.Fig12(),
		s.Stats(),
		s.Par(),
		s.Serve(),
		s.Spec(),
		s.Store(),
		s.Tags(),
		s.Backend(),
		s.Obs(),
		s.Prefix(),
	}
}

// ByID returns one experiment by its identifier.
func (s *Suite) ByID(id string) (*Table, bool) {
	switch id {
	case "fig9":
		return s.Fig9(), true
	case "fig10":
		return s.Fig10(), true
	case "fig11":
		return s.Fig11(), true
	case "fig12":
		return s.Fig12(), true
	case "tab1":
		return s.Tab1(), true
	case "tab2":
		return s.Tab2(), true
	case "tab3":
		return s.Tab3(), true
	case "tab4":
		return s.Tab4(), true
	case "stats":
		return s.Stats(), true
	case "par":
		return s.Par(), true
	case "serve":
		return s.Serve(), true
	case "spec":
		return s.Spec(), true
	case "store":
		return s.Store(), true
	case "tags":
		return s.Tags(), true
	case "backend":
		return s.Backend(), true
	case "obs":
		return s.Obs(), true
	case "prefix":
		return s.Prefix(), true
	}
	return nil, false
}
