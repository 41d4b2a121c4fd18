package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// linkToRequest as a span's parent means "the request's root span": spans
// recorded where the request's root is not known yet (inside the gateway's
// backend calls) are attached to it after the run.
const linkToRequest = -2

// span is one timed call at a layer boundary. Times are nanoseconds since
// the recorder's epoch; parent is a span index or -1 for a root; req is the
// request's seed (0 outside requests).
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its index.
func (r *recorder) add(name string, parent int32, req int64, t0, t1 time.Time) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: int64(t0.Sub(r.epoch)), end: int64(t1.Sub(r.epoch)), parent: parent, req: req})
	return int32(len(r.spans) - 1)
}

// begin opens a span starting now; end closes it.
func (r *recorder) begin(name string, parent int32, req int64) int32 {
	now := time.Now()
	return r.add(name, parent, req, now, now)
}

// end closes span i now and returns its duration.
func (r *recorder) end(i int32) time.Duration {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].end = now
	return time.Duration(now - r.spans[i].start)
}

// link attaches linkToRequest spans to the root span of their request.
func (r *recorder) link(roots map[int64]int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if r.spans[i].parent == linkToRequest {
			root, ok := roots[r.spans[i].req]
			if !ok {
				root = -1
			}
			r.spans[i].parent = root
		}
	}
}

// layerTime is one span name's total and self time.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, the total time and the self time: a
// span's duration minus the part of its interval its children cover.
func (r *recorder) selfTimes() []layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int32][]int32{}
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	agg := map[string]*layerTime{}
	for i, s := range r.spans {
		lt := agg[s.name]
		if lt == nil {
			lt = &layerTime{Name: s.name}
			agg[s.name] = lt
		}
		dur := s.end - s.start
		covered := covered(r.spans, children[int32(i)], s.start, s.end)
		lt.Count++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(dur-covered) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to [lo, hi].
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// write dumps the spans and self times as gzipped JSON into dir, one row
// per span.
func (r *recorder) write(dir, name string, self []layerTime) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	selfJSON, err := json.Marshal(self)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(bw, `{"self": %s, "columns": ["name", "start_ns", "end_ns", "parent", "request_seed"], "spans": [`, selfJSON)
	r.mu.Lock()
	for i, s := range r.spans {
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, "[%q, %d, %d, %d, %d]", s.name, s.start, s.end, s.parent, s.req)
	}
	r.mu.Unlock()
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, f.Close()
}
