package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"reflect"
	"sort"
	"strings"

	"xgrammar/internal/server"
)

// The output oracle checks generations without the grammar engine: JSON
// through encoding/json plus a small validator for the schema subset that
// workload.SchemaTasks emits.

// output is a parsed SSE stream.
type output struct {
	text     string // all chunks concatenated, the echoed prefix included
	tokens   int
	jfBytes  int
	segments int
	finish   string
}

// parseStream splits a raw SSE body into chunk events, the final summary
// event and the [DONE] sentinel.
func parseStream(raw []byte, prefix string) (output, error) {
	var out output
	events := bytes.Split(bytes.TrimSuffix(raw, sseSep), sseSep)
	if len(events) < 2 || string(events[len(events)-1]) != "data: [DONE]" {
		return out, errors.New("stream does not end with [DONE]")
	}
	var sb strings.Builder
	for i, ev := range events[:len(events)-2] {
		data, ok := bytes.CutPrefix(ev, []byte("data: "))
		if !ok {
			return out, fmt.Errorf("event %d is not a data event", i)
		}
		var c server.StreamChunk
		if err := json.Unmarshal(data, &c); err != nil {
			return out, fmt.Errorf("event %d: %w", i, err)
		}
		if i == 0 && prefix != "" && c.Text != prefix {
			return out, errors.New("first event does not echo the prefix")
		}
		sb.WriteString(c.Text)
	}
	data, ok := bytes.CutPrefix(events[len(events)-2], []byte("data: "))
	if !ok {
		return out, errors.New("summary is not a data event")
	}
	var fin server.GenerateResponse
	if err := json.Unmarshal(data, &fin); err != nil || !fin.Done {
		return out, fmt.Errorf("bad summary event %q", data)
	}
	out.text, out.tokens, out.jfBytes, out.segments, out.finish = sb.String(), fin.Tokens, fin.JumpForwardBytes, fin.Segments, fin.FinishReason
	return out, nil
}

// check classifies a result and, for a 200 response, parses and validates
// its output. It sets res.out and res.failure.
func (p *plan) check(res *result) {
	switch {
	case res.err != nil && res.status == 0:
		res.failure = "transport"
		return
	case res.status >= 500:
		res.failure = "5xx"
		return
	case res.status >= 400:
		res.failure = "4xx"
		return
	case res.err != nil || res.status != 200:
		res.failure = "transport"
		return
	}
	out, err := parseStream(res.raw, res.req.prefix)
	if err == nil {
		err = p.validate(res.req, out)
	}
	res.out = out
	if err != nil {
		res.failure = "validation"
		res.err = err
	}
}

// validate checks one finished output against its request.
func (p *plan) validate(r *request, out output) error {
	truncated := false
	switch out.finish {
	case "stop":
	case "length":
		truncated = true
	default:
		return fmt.Errorf("finish reason %q", out.finish)
	}
	if !strings.HasPrefix(out.text, r.prefix) {
		return errors.New("output does not start with the prefix")
	}
	switch r.kind {
	case kindByID, kindInline:
		return checkJSON(out.text, p.schemas[r.schema], truncated)
	case kindTemplate:
		return checkJSON(out.text, nil, truncated)
	case kindTools:
		n, err := checkToolCalls(out.text, r.tools, truncated)
		if err == nil && n != out.segments {
			err = fmt.Errorf("%d closed tool calls in the text, summary reports %d", n, out.segments)
		}
		return err
	}
	return fmt.Errorf("unknown request kind %d", r.kind)
}

// checkJSON checks a whole output: a complete document valid under schema
// (nil: any JSON), or, when truncated, a valid JSON prefix.
func checkJSON(text string, schema []byte, truncated bool) error {
	if truncated {
		if !validJSONPrefix(text) {
			return errors.New("truncated output is not a JSON prefix")
		}
		return nil
	}
	v, err := decodeJSON(text)
	if err != nil {
		return err
	}
	if schema == nil {
		return nil
	}
	return validateSchema(schema, v)
}

func decodeJSON(text string) (any, error) {
	dec := json.NewDecoder(strings.NewReader(text))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("output is not JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("output has data after the JSON value")
	}
	return v, nil
}

// validJSONPrefix reports whether some suffix completes s to one JSON value.
func validJSONPrefix(s string) bool {
	dec := json.NewDecoder(strings.NewReader(s))
	dec.UseNumber()
	depth, values := 0, 0
	for {
		tok, err := dec.Token()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return true
		}
		if err != nil {
			return false
		}
		if depth == 0 && values == 1 {
			return false // a second top-level value
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			depth++
		case json.Delim('}'), json.Delim(']'):
			depth--
		}
		if depth == 0 {
			values = 1
		}
	}
}

// checkToolCalls parses <tool_call name="X">BODY</tool_call> segments out
// of free text. Each closed body must be one JSON value valid under X's
// parameters; in a truncated output the last segment may be cut anywhere.
// It returns the number of closed segments.
func checkToolCalls(text string, tools []int, truncated bool) (int, error) {
	const end = "</tool_call>"
	closed := 0
	rest := text
	for {
		at, which := -1, -1
		for _, t := range tools {
			if i := strings.Index(rest, beginTag(toolSet[t].name)); i >= 0 && (at < 0 || i < at) {
				at, which = i, t
			}
		}
		if at < 0 {
			return closed, nil
		}
		body := rest[at+len(beginTag(toolSet[which].name)):]
		dec := json.NewDecoder(strings.NewReader(body))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			if truncated && validJSONPrefix(body) {
				return closed, nil
			}
			return closed, fmt.Errorf("tool call %s: body is not JSON: %w", toolSet[which].name, err)
		}
		if err := validateSchema(toolSet[which].params, v); err != nil {
			return closed, fmt.Errorf("tool call %s: %w", toolSet[which].name, err)
		}
		after := strings.TrimLeft(body[dec.InputOffset():], " \t\r\n")
		if !strings.HasPrefix(after, end) {
			if truncated && strings.HasPrefix(end, after) {
				return closed, nil
			}
			return closed, fmt.Errorf("tool call %s: body not followed by %s", toolSet[which].name, end)
		}
		closed++
		rest = after[len(end):]
	}
}

func beginTag(name string) string { return fmt.Sprintf("<tool_call name=%q>", name) }

// schemaNode is a parsed schema of the SchemaTasks subset: objects with
// properties and required keys, strings, integers with optional bounds,
// numbers, booleans, enums and arrays with item counts.
type schemaNode struct {
	typ                string
	props              map[string]*schemaNode
	required           []string
	enum               []any
	min, max           *big.Int
	items              *schemaNode
	minItems, maxItems int
}

// validateSchema validates v against a schema document.
func validateSchema(schema []byte, v any) error {
	s, err := parseSchema(schema)
	if err != nil {
		return err
	}
	return s.validate(v, "$")
}

func parseSchema(doc []byte) (*schemaNode, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	return schemaFrom(raw)
}

func schemaFrom(raw any) (*schemaNode, error) {
	m, ok := raw.(map[string]any)
	if !ok {
		return nil, errors.New("schema: not an object")
	}
	s := &schemaNode{minItems: -1, maxItems: -1}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := m[k]
		var err error
		switch k {
		case "type":
			s.typ, _ = v.(string)
		case "properties":
			s.props = map[string]*schemaNode{}
			pm, _ := v.(map[string]any)
			for name, sub := range pm {
				if s.props[name], err = schemaFrom(sub); err != nil {
					return nil, err
				}
			}
		case "required":
			list, _ := v.([]any)
			for _, x := range list {
				name, _ := x.(string)
				s.required = append(s.required, name)
			}
		case "enum":
			s.enum, _ = v.([]any)
		case "minimum", "maximum":
			n, ok := integer(v)
			if !ok {
				return nil, fmt.Errorf("schema: %s is not an integer", k)
			}
			if k == "minimum" {
				s.min = n
			} else {
				s.max = n
			}
		case "items":
			if s.items, err = schemaFrom(v); err != nil {
				return nil, err
			}
		case "minItems", "maxItems":
			n, ok := integer(v)
			if !ok || !n.IsInt64() {
				return nil, fmt.Errorf("schema: %s is not an integer", k)
			}
			if k == "minItems" {
				s.minItems = int(n.Int64())
			} else {
				s.maxItems = int(n.Int64())
			}
		default:
			return nil, fmt.Errorf("schema: keyword %q is outside the validated subset", k)
		}
	}
	if (s.min != nil || s.max != nil) && s.typ != "integer" {
		return nil, errors.New("schema: bounds on a non-integer type are outside the validated subset")
	}
	return s, nil
}

// integer parses a JSON number written as an integer literal (no fraction
// or exponent, which also keeps huge exponents from being expanded).
func integer(v any) (*big.Int, bool) {
	n, ok := v.(json.Number)
	if !ok || strings.ContainsAny(n.String(), ".eE") {
		return nil, false
	}
	return new(big.Int).SetString(n.String(), 10)
}

func (s *schemaNode) validate(v any, path string) error {
	if s.enum != nil {
		for _, e := range s.enum {
			if reflect.DeepEqual(e, v) {
				return nil
			}
		}
		return fmt.Errorf("%s: %v not in enum", path, v)
	}
	switch s.typ {
	case "object":
		obj, ok := v.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: not an object", path)
		}
		for _, k := range s.required {
			if _, ok := obj[k]; !ok {
				return fmt.Errorf("%s: missing required %q", path, k)
			}
		}
		for k, x := range obj {
			sub, ok := s.props[k]
			if !ok {
				return fmt.Errorf("%s: unexpected property %q", path, k)
			}
			if err := sub.validate(x, path+"."+k); err != nil {
				return err
			}
		}
	case "array":
		arr, ok := v.([]any)
		if !ok {
			return fmt.Errorf("%s: not an array", path)
		}
		if (s.minItems >= 0 && len(arr) < s.minItems) || (s.maxItems >= 0 && len(arr) > s.maxItems) {
			return fmt.Errorf("%s: %d items outside [%d, %d]", path, len(arr), s.minItems, s.maxItems)
		}
		for i, x := range arr {
			if err := s.items.validate(x, fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case "string":
		if _, ok := v.(string); !ok {
			return fmt.Errorf("%s: not a string", path)
		}
	case "boolean":
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("%s: not a boolean", path)
		}
	case "number":
		if _, ok := v.(json.Number); !ok {
			return fmt.Errorf("%s: not a number", path)
		}
	case "integer":
		n, ok := integer(v)
		if !ok {
			return fmt.Errorf("%s: %v is not an integer", path, v)
		}
		if (s.min != nil && n.Cmp(s.min) < 0) || (s.max != nil && n.Cmp(s.max) > 0) {
			return fmt.Errorf("%s: %v out of bounds", path, v)
		}
	default:
		return fmt.Errorf("%s: unsupported schema type %q", path, s.typ)
	}
	return nil
}

// digest hashes every output keyed by its request seed, in seed order.
func digest(results []*result) string {
	sorted := append([]*result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].req.seed < sorted[j].req.seed })
	h := sha256.New()
	for _, r := range sorted {
		fmt.Fprintf(h, "%d %s %q\n", r.req.seed, r.out.finish, r.out.text)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
