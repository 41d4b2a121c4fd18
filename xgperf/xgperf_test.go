package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"xgrammar"
	taskgen "xgrammar/internal/workload"
)

func TestPlansRepeatPerSeedAndDifferAcrossSeeds(t *testing.T) {
	for _, w := range workloads {
		a := makePlan(w, 7, 4).fingerprint()
		if b := makePlan(w, 7, 4).fingerprint(); a != b {
			t.Errorf("%s: two plans for seed 7 differ", w.name)
		}
		if c := makePlan(w, 8, 4).fingerprint(); a == c {
			t.Errorf("%s: seeds 7 and 8 give the same plan", w.name)
		}
	}
}

func TestPlanRequestsCarryNonzeroDistinctSeeds(t *testing.T) {
	for _, w := range workloads {
		seen := map[int64]bool{}
		for _, r := range makePlan(w, 3, 4).all() {
			if r.seed == 0 || seen[r.seed] {
				t.Fatalf("%s: zero or repeated request seed %d", w.name, r.seed)
			}
			seen[r.seed] = true
		}
	}
}

func TestChurnNewSchemasAreDistinct(t *testing.T) {
	w, err := workloadByName("schema-churn")
	if err != nil {
		t.Fatal(err)
	}
	p := makePlan(w, 5, 8)
	docs := map[string]bool{}
	for _, s := range p.schemas {
		if docs[string(s)] {
			t.Fatalf("schema repeated in the catalog: %s", s)
		}
		docs[string(s)] = true
	}
	// A request is new when it names a schema no earlier request named;
	// new requests must introduce the schemas in catalog order.
	next, fresh := 0, 0
	all := p.all()
	for _, r := range all {
		switch {
		case r.schema == next:
			next++
			fresh++
		case r.schema > next:
			t.Fatalf("request names schema %d before schema %d was introduced", r.schema, next)
		}
	}
	if fresh != len(p.schemas) {
		t.Fatalf("%d new requests for %d schemas", fresh, len(p.schemas))
	}
	if want := (len(p.open)+churnNewEvery-1)/churnNewEvery + (len(p.closed)+churnNewEvery-1)/churnNewEvery; fresh != want {
		t.Fatalf("%d new schemas in %d requests, want %d", fresh, len(all), want)
	}
	// Each phase compiles a fixed part of the catalog whatever the seed.
	q := makePlan(w, 6, 8)
	k := (len(p.open) + churnNewEvery - 1) / churnNewEvery
	if !sameSet(p.schemas[:k], q.schemas[:k]) || !sameSet(p.schemas[k:], q.schemas[k:]) {
		t.Fatal("seeds 5 and 6 compile different schemas in a phase")
	}
}

func sameSet(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
	for _, s := range a {
		count[string(s)]++
	}
	for _, s := range b {
		count[string(s)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestValidatorAcceptsInstancesAndRejectsCorruptions(t *testing.T) {
	for _, task := range taskgen.SchemaTasks(20, 11) {
		if err := checkJSON(task.Instance, task.Schema, false); err != nil {
			t.Fatalf("%s: valid instance rejected: %v\nschema %s\ninstance %s", task.Name, err, task.Schema, task.Instance)
		}
		for _, bad := range []string{
			task.Instance[:len(task.Instance)-1], // cut before the closing brace
			task.Instance + "}",
			strings.Replace(task.Instance, "{", `{"unexpected_key": 1, `, 1),
			"[" + task.Instance + "]",
		} {
			if checkJSON(bad, task.Schema, false) == nil {
				t.Errorf("%s: corrupted output accepted: %s", task.Name, bad)
			}
		}
		// A cut-off output passes only as a truncated one.
		cut := task.Instance[:len(task.Instance)/2]
		if err := checkJSON(cut, task.Schema, true); err != nil {
			t.Errorf("%s: JSON prefix %q rejected: %v", task.Name, cut, err)
		}
	}
}

func TestValidatorChecksTypesAndBounds(t *testing.T) {
	schema := []byte(`{"type": "object", "properties": {"n": {"type": "integer", "minimum": 1, "maximum": 5}, "s": {"enum": ["a", "b"]}, "l": {"type": "array", "items": {"type": "boolean"}, "minItems": 1, "maxItems": 2}}, "required": ["n"]}`)
	for text, ok := range map[string]bool{
		`{"n": 3, "s": "a", "l": [true]}`:    true,
		`{"n": 5}`:                           true,
		`{"n": 6}`:                           false,
		`{"n": 2.5}`:                         false,
		`{"n": 1e400}`:                       false,
		`{"s": "a"}`:                         false,
		`{"n": 1, "s": "c"}`:                 false,
		`{"n": 1, "l": []}`:                  false,
		`{"n": 1, "l": [1]}`:                 false,
		`{"n": 1, "l": [true, false, true]}`: false,
	} {
		if err := checkJSON(text, schema, false); (err == nil) != ok {
			t.Errorf("%s: got %v, want ok=%v", text, err, ok)
		}
	}
}

func TestJSONPrefix(t *testing.T) {
	for s, ok := range map[string]bool{
		`{"a": [1, 2`:          true,
		`{"a": "x\u00`:         true,
		`{"a": 12345678901e99`: true,
		`{"a": tr`:             true,
		`{"a" 1`:               false,
		`{"a": 1}}`:            false,
		`{"a": 1} {`:           false,
		`[1,]`:                 false,
		`{"a": tx`:             false,
	} {
		if validJSONPrefix(s) != ok {
			t.Errorf("validJSONPrefix(%q) = %v, want %v", s, !ok, ok)
		}
	}
}

func TestToolCallOracle(t *testing.T) {
	a, b := toolSet[0], toolSet[1]
	okA := taskgen.SchemaTasks(len(toolSet), 7)[0].Instance
	okB := taskgen.SchemaTasks(len(toolSet), 7)[1].Instance
	tools := []int{0, 1}
	call := func(name, body string) string { return beginTag(name) + body + "</tool_call>" }

	good := "Let me check. " + call(a.name, okA) + " and " + call(b.name, okB) + " done"
	if n, err := checkToolCalls(good, tools, false); err != nil || n != 2 {
		t.Fatalf("valid calls: n=%d err=%v", n, err)
	}
	for name, text := range map[string]string{
		"mis-nested":       beginTag(a.name) + okA[:len(okA)-1] + ", " + call(b.name, okB) + "}</tool_call>",
		"unclosed":         beginTag(a.name) + okA + " trailing text",
		"wrong parameters": call(a.name, okB),
		"corrupted body":   call(a.name, strings.Replace(okA, ":", "", 1)),
		"end tag in body":  beginTag(a.name) + "</tool_call>",
	} {
		if _, err := checkToolCalls(text, tools, false); err == nil {
			t.Errorf("%s tool call accepted: %s", name, text)
		}
	}
	// A truncated output may stop anywhere inside its last call.
	for _, cut := range []int{3, len(okA) / 2, len(okA) + 5} {
		text := "x " + call(a.name, okA)
		text = text[:len("x ")+len(beginTag(a.name))+cut]
		if _, err := checkToolCalls(text, tools, true); err != nil {
			t.Errorf("truncated call %q rejected: %v", text, err)
		}
	}
}

func TestTrainTokenizerMatchesDefault(t *testing.T) {
	if trainTokenizer(2000).Raw().Fingerprint() != xgrammar.DefaultTokenizer(2000).Raw().Fingerprint() {
		t.Fatal("trainTokenizer(2000) differs from the default tokenizer")
	}
}

func TestStreamedTextCoercesSplitRunes(t *testing.T) {
	euro := "€" // 3 bytes
	if got := streamedText([]string{"a" + euro[:2], euro[2:] + "b"}); got != "a���b" {
		t.Fatalf("got %q", got)
	}
	if got := streamedText([]string{"a", euro, "b"}); got != "a"+euro+"b" {
		t.Fatalf("got %q", got)
	}
}

// fingerprint hashes the plan's generated content (schemas, registration,
// and every request's fields), so tests can compare plans across seeds.
func (p *plan) fingerprint() string {
	h := sha256.New()
	for _, s := range p.schemas {
		fmt.Fprintf(h, "schema %q\n", s)
	}
	fmt.Fprintf(h, "register %v\n", p.register)
	for _, r := range p.all() {
		fmt.Fprintf(h, "%d %d %d %d %v %q %d\n", r.kind, r.seed, r.due, r.schema, r.tools, r.prefix, r.maxTokens)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestRatesScaleEachSegmentToTheReferenceSpeed(t *testing.T) {
	res := func(tokens int, failure string) *result {
		return &result{out: output{tokens: tokens}, failure: failure}
	}
	ph := &phase{
		results: []*result{res(10, ""), res(10, ""), res(10, ""), res(99, "validation")},
		segments: []segment{
			{lo: 0, hi: 2, wall: time.Second, ref: refNominal},     // at the reference speed
			{lo: 2, hi: 4, wall: time.Second, ref: 2 * refNominal}, // host at half speed
		},
	}
	r := ph.rates()
	// 30 tokens and 3 successes in 2 s of wall time, or in 1 s + 0.5 s at
	// the reference speed; the failed request counts for neither.
	if r.tokS != 15 || r.reqS != 1.5 {
		t.Errorf("wall-time rates %v tok/s, %v req/s; want 15, 1.5", r.tokS, r.reqS)
	}
	if r.tokSRef != 20 || r.reqSRef != 2 {
		t.Errorf("reference-speed rates %v tok/s, %v req/s; want 20, 2", r.tokSRef, r.reqSRef)
	}
}

func TestRefMeterRuns(t *testing.T) {
	m, err := newRefMeter(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	if d, err := m.measure(); err != nil || d <= 0 {
		t.Fatalf("measure = %v, %v", d, err)
	}
}
