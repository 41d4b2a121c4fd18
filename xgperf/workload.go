package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"xgrammar/internal/server"
	taskgen "xgrammar/internal/workload"
)

// reqKind says how a request names its grammar.
type reqKind uint8

const (
	kindByID     reqKind = iota // grammar_id of a schema registered at setup
	kindInline                  // JSON schema carried in the request
	kindTemplate                // builtin JSON with a templated prefix, speculative
	kindTools                   // function tools (structural tags)
)

// request is one generation in a phase's fixed request list.
type request struct {
	kind      reqKind
	seed      int64
	due       time.Duration // open phase: arrival offset from the phase start
	schema    int           // kindByID, kindInline: index into plan.schemas
	tools     []int         // kindTools: indices into toolSet
	prefix    string        // kindTemplate
	maxTokens int
	body      []byte // the POST /v1/generate body, built before timing starts
}

// plan is a workload's generated input: the schemas it references, the
// grammars registered at setup, and both phases' request lists.
type plan struct {
	w        *workload
	schemas  [][]byte
	register []int // schema indices registered via POST /v1/grammars
	open     []*request
	closed   []*request
	// closedSeconds is how long the closed list lasts at closedRate.
	closedSeconds float64
}

// workload is one traffic mix. Rates are constants, not calibrated at run
// time, so a faster program sees the same offered load.
type workload struct {
	name      string
	vocab     int
	maxTokens int
	// openRate is the open phase's Poisson arrival rate (requests/s), about
	// a tenth of the closed-loop capacity measured at the seed on 2 vCPUs,
	// where few requests overlap another.
	openRate float64
	// closedRate sizes the closed phase's list: about the requests per
	// second the closed loop sustained at the seed, so the phase lasts about
	// the rest of the run.
	closedRate float64
	// gen makes the request list of a run with nOpen open-phase requests
	// followed by nClosed closed-phase ones.
	gen func(p *plan, rng *rand.Rand, nOpen, nClosed int) []*request
}

var workloads = []*workload{
	{name: "schema-hot", vocab: 32000, maxTokens: 128, openRate: 10, closedRate: 110, gen: genSchemaHot},
	{name: "schema-churn", vocab: 8000, maxTokens: 16, openRate: 20, closedRate: 195, gen: genSchemaChurn},
	{name: "agent-mix", vocab: 2000, maxTokens: 64, openRate: 150, closedRate: 2300, gen: genAgentMix},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// hotSchemas is the number of schemas schema-hot registers at setup.
const hotSchemas = 8

// churnNewEvery makes one in churnNewEvery schema-churn requests carry a
// schema not seen before in the run.
const churnNewEvery = 8

// openShare is the share of a run the open phase covers. The closed phase
// gets the rest, the larger part: its throughput is the gated metric, and
// more segments steady its median.
const openShare = 1.0 / 3

// makePlan generates the workload's inputs for a seed and a run length:
// the open phase covers openShare of it with Poisson arrivals and the
// closed phase a list sized to last the rest.
func makePlan(w *workload, seed int64, seconds float64) *plan {
	p := &plan{w: w}
	// The arrival schedule is fixed like the catalogs: the open phase's tail
	// latencies are queueing at two connections, and a per-seed schedule
	// made them mostly a property of how bursty the draw was.
	arrivals := rand.New(rand.NewSource(catalogSeed))
	var dues []time.Duration
	for t := arrivals.ExpFloat64() / w.openRate; t < openShare*seconds; t += arrivals.ExpFloat64() / w.openRate {
		dues = append(dues, time.Duration(t*float64(time.Second)))
	}
	p.closedSeconds = (1 - openShare) * seconds
	nClosed := int(w.closedRate*p.closedSeconds + 0.5)
	rng := rand.New(rand.NewSource(seed))
	all := w.gen(p, rng, len(dues), nClosed)
	seen := map[int64]bool{}
	for _, r := range all {
		for r.seed == 0 || seen[r.seed] {
			r.seed = rng.Int63()
		}
		seen[r.seed] = true
		r.maxTokens = w.maxTokens
	}
	p.open, p.closed = all[:len(dues)], all[len(dues):]
	for i, r := range p.open {
		r.due = dues[i]
	}
	return p
}

// catalogSeed seeds the schema catalogs. The schemas a workload serves are
// a fixed catalog, like a deployment's JSON-mode endpoints or an eval set;
// the run seed drives the traffic over it: which schema each request names,
// when requests arrive, their order, and every sampler seed. A catalog drawn
// per run seed would make the run-to-run spread mostly a property of which
// eight schemas were drawn.
const catalogSeed = 1

// genSchemaHot: 8 registered schemas, each request picks one by ID.
func genSchemaHot(p *plan, rng *rand.Rand, nOpen, nClosed int) []*request {
	n := nOpen + nClosed
	for i, t := range taskgen.SchemaTasks(hotSchemas, catalogSeed) {
		p.schemas = append(p.schemas, t.Schema)
		p.register = append(p.register, i)
	}
	out := make([]*request, n)
	var block []int
	for i := range out {
		// Each run of hotSchemas consecutive requests names every schema once,
		// in a seeded order, so phases hold the schemas in equal shares.
		if i%hotSchemas == 0 {
			block = rng.Perm(hotSchemas)
		}
		out[i] = &request{kind: kindByID, seed: rng.Int63(), schema: block[i%hotSchemas]}
	}
	return out
}

// genSchemaChurn: inline schemas; in each phase one in churnNewEvery
// requests, at seeded positions (the run's first request among them),
// brings a schema not yet seen in the run, the rest repeat a seen one. Each
// phase's new schemas are a fixed part of the catalog in a seeded order, so
// every seed compiles the same schemas in each phase.
func genSchemaChurn(p *plan, rng *rand.Rand, nOpen, nClosed int) []*request {
	fresh := func(n int) int { return (n + churnNewEvery - 1) / churnNewEvery }
	catalog := distinctSchemas(fresh(nOpen)+fresh(nClosed), catalogSeed)
	var out []*request
	seen := 0
	for _, n := range []int{nOpen, nClosed} {
		k := fresh(n)
		for _, i := range rng.Perm(k) {
			p.schemas = append(p.schemas, catalog[i])
		}
		catalog = catalog[k:]
		isNew := make([]bool, n)
		first := 0
		if seen == 0 && n > 0 {
			isNew[0], first = true, 1
		}
		for _, i := range rng.Perm(n - first)[:k-first] {
			isNew[i+first] = true
		}
		for i := 0; i < n; i++ {
			s := seen
			if isNew[i] {
				seen++
			} else {
				s = rng.Intn(seen)
			}
			out = append(out, &request{kind: kindInline, seed: rng.Int63(), schema: s})
		}
	}
	return out
}

// distinctSchemas returns n pairwise distinct generated schemas.
func distinctSchemas(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	have := map[string]bool{}
	var out [][]byte
	for len(out) < n {
		for _, t := range taskgen.SchemaTasks(n-len(out), rng.Int63()) {
			if !have[string(t.Schema)] {
				have[string(t.Schema)] = true
				out = append(out, t.Schema)
			}
		}
	}
	return out
}

// preamble is the shared head of every templated agent-mix prefix: a valid
// JSON prefix under the builtin JSON grammar, about 100 bytes long.
const preamble = `{"agent": "planner", "version": 3, "context": {"user": "u-1042", "locale": "en-US"}, "history": [`

var actions = []string{"search", "lookup", "summarize", "translate"}

// templateTail returns the varying tail after the preamble: one in eight
// templated requests sends the bare preamble (publishing it to the prefix
// cache), the rest add one of 64 step headers, so tails repeat and insert.
func templateTail(rng *rand.Rand) string {
	if rng.Intn(8) == 0 {
		return ""
	}
	return fmt.Sprintf(`{"step": %d, "action": %q, "input": `, rng.Intn(16), actions[rng.Intn(len(actions))])
}

// toolSet is the fixed set of function tools agent-mix draws from; their
// parameter schemas come from a fixed generator seed, the same in every run.
var toolSet = func() []tool {
	names := []string{"get_weather", "search_web", "create_event", "send_email", "lookup_order", "convert_units"}
	tasks := taskgen.SchemaTasks(len(names), 7)
	out := make([]tool, len(names))
	for i, n := range names {
		out[i] = tool{name: n, params: tasks[i].Schema}
	}
	return out
}()

type tool struct {
	name   string
	params []byte
}

// genAgentMix: half templated builtin-JSON requests with a shared prefix and
// speculative decoding, half requests offering 2-3 function tools.
func genAgentMix(p *plan, rng *rand.Rand, nOpen, nClosed int) []*request {
	out := make([]*request, nOpen+nClosed)
	templated := false
	for i := range out {
		// Each pair of consecutive requests holds one of each kind, in a
		// seeded order.
		if i%2 == 0 {
			templated = rng.Intn(2) == 0
		} else {
			templated = !templated
		}
		if templated {
			out[i] = &request{kind: kindTemplate, seed: rng.Int63(), prefix: preamble + templateTail(rng)}
			continue
		}
		// Clients offer their tools in a fixed order, so tool sets are
		// sorted subsets: 35 distinct structural-tag sets.
		pick := rng.Perm(len(toolSet))[:2+rng.Intn(2)]
		sort.Ints(pick)
		out[i] = &request{kind: kindTools, seed: rng.Int63(), tools: pick}
	}
	return out
}

// generateRequest renders the wire request; ids maps schema indices to the
// grammar IDs setup registered (kindByID only).
func (p *plan) generateRequest(r *request, ids map[int]string) server.GenerateRequest {
	g := server.GenerateRequest{Seed: r.seed, MaxTokens: r.maxTokens, Stream: true}
	switch r.kind {
	case kindByID:
		g.GrammarID = ids[r.schema]
	case kindInline:
		g.Kind, g.Source = "json_schema", string(p.schemas[r.schema])
	case kindTemplate:
		g.Kind, g.Source, g.Prefix = "builtin", "json", r.prefix
		g.Speculative = &server.SpeculativeParams{DraftTokens: 4}
	case kindTools:
		for _, t := range r.tools {
			g.Tools = append(g.Tools, server.ToolRequest{Type: "function", Function: server.ToolFunction{
				Name: toolSet[t].name, Parameters: json.RawMessage(toolSet[t].params),
			}})
		}
	}
	return g
}

// buildBodies marshals every request body before timing starts.
func (p *plan) buildBodies(ids map[int]string) error {
	for _, r := range p.all() {
		b, err := json.Marshal(p.generateRequest(r, ids))
		if err != nil {
			return fmt.Errorf("marshal request: %w", err)
		}
		r.body = b
	}
	return nil
}

func (p *plan) all() []*request {
	return append(append([]*request(nil), p.open...), p.closed...)
}
