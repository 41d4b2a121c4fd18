package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns the load generator's HTTP client: at most conns
// keep-alive connections, no compression, no proxy.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
	}}
}

// result is one request's outcome as the client saw it. The stream is kept
// raw; it is parsed and checked after the phase, off the timed path.
type result struct {
	req     *request
	origin  time.Time // due time (open) or send time (closed)
	sent    time.Time // the client started the request
	gotConn time.Time // traced runs: a connection was assigned
	first   time.Time // first generated chunk arrived
	done    time.Time // [DONE] arrived
	status  int       // HTTP status; 0 on a transport error
	err     error     // transport or stream error
	raw     []byte
	traceID uint64 // gateway trace ID (X-Request-Id), traced runs

	// Filled in by check.
	out     output
	failure string // "", "4xx", "5xx", "transport" or "validation"
}

var (
	sseSep     = []byte("\n\n")
	doneMarker = []byte("data: [DONE]\n\n")
)

// do sends one request and reads its stream. It records the arrival of the
// first generated chunk (skipping the echoed prefix chunk) and of [DONE];
// no chunk is decoded here.
func do(c *http.Client, url string, r *request, origin time.Time, traced bool) *result {
	res := &result{req: r, origin: origin}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/generate", bytes.NewReader(r.body))
	if err != nil {
		res.err = err
		return res
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traced {
		hreq = hreq.WithContext(httptrace.WithClientTrace(hreq.Context(), &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { res.gotConn = time.Now() },
		}))
	}
	res.sent = time.Now()
	resp, err := c.Do(hreq)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	if id := resp.Header.Get("X-Request-Id"); id != "" {
		res.traceID, _ = strconv.ParseUint(id, 10, 64)
	}
	if resp.StatusCode != http.StatusOK {
		res.raw, _ = io.ReadAll(resp.Body)
		return res
	}
	skip := 0
	if r.prefix != "" {
		skip = 1
	}
	buf := make([]byte, 0, 4096)
	events, scanned := 0, 0
	for {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, 2*cap(buf)), buf...)
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		if n > 0 {
			now := time.Now()
			buf = buf[:len(buf)+n]
			for res.first.IsZero() {
				i := bytes.Index(buf[scanned:], sseSep)
				if i < 0 {
					break
				}
				scanned += i + len(sseSep)
				if events++; events > skip {
					res.first = now
				}
			}
			if bytes.HasSuffix(buf, doneMarker) {
				res.done = now
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			res.err = err
			break
		}
	}
	res.raw = buf
	if res.err == nil && res.done.IsZero() {
		res.err = fmt.Errorf("stream ended without [DONE]")
	}
	return res
}

// phase is the outcome of one phase.
type phase struct {
	name     string
	results  []*result
	lag      []time.Duration // open phase: how late each send started
	segments []segment       // closed phase
	wall     time.Duration   // closed phase: the segments', reference runs left out
}

// runOpen sends the list on its seeded Poisson schedule, each request timed
// from its due time whatever the state of earlier ones.
func runOpen(c *http.Client, url string, reqs []*request, traced bool) *phase {
	ph := &phase{name: "open", results: make([]*result, len(reqs)), lag: make([]time.Duration, len(reqs))}
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.due)
		sleepUntil(due)
		ph.lag[i] = time.Since(due)
		wg.Add(1)
		go func(i int, r *request) {
			defer wg.Done()
			ph.results[i] = do(c, url, r, due, traced)
		}(i, r)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// segment is a run of consecutive requests of a closed phase.
type segment struct {
	lo, hi int
	wall   time.Duration
	ref    time.Duration // mean of the reference runs just before and after
}

// runClosed has clients send the list back to back, in nseg consecutive
// segments: all clients finish a segment before the next starts. A
// reference run (refspeed.go) precedes the first segment and follows each
// one, with no request to the gateway in flight.
func runClosed(c *http.Client, url string, reqs []*request, clients, nseg int, traced bool) (*phase, error) {
	meter, err := newRefMeter(clients)
	if err != nil {
		return nil, err
	}
	defer meter.close()
	ph := &phase{name: "closed", results: make([]*result, len(reqs))}
	before, err := meter.measure()
	if err != nil {
		return nil, err
	}
	for k := 0; k < nseg; k++ {
		seg := segment{lo: k * len(reqs) / nseg, hi: (k + 1) * len(reqs) / nseg}
		var next atomic.Int64
		next.Store(int64(seg.lo))
		var wg sync.WaitGroup
		t0 := time.Now()
		for j := 0; j < clients; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= seg.hi {
						return
					}
					ph.results[i] = do(c, url, reqs[i], time.Now(), traced)
				}
			}()
		}
		wg.Wait()
		seg.wall = time.Since(t0)
		after, err := meter.measure()
		if err != nil {
			return nil, err
		}
		seg.ref, before = (before+after)/2, after
		ph.segments = append(ph.segments, seg)
		ph.wall += seg.wall
	}
	return ph, nil
}

// closedSegments is the number of segments a closed phase of the given
// length is run in: about two a second, so that each segment's reference
// runs are close enough in time to see the host's speed during it.
func closedSegments(seconds float64) int {
	if n := int(2*seconds + 0.5); n > 1 {
		return n
	}
	return 1
}

// rates is a closed phase's throughput: output tokens and completed
// requests over the segments' wall time, and over their time at the
// reference speed (each segment's wall time scaled by atRef), with the
// median reference-run time. Whole-phase sums, not a median over segments:
// on schema-churn a segment's rate depends on how many of the phase's
// compiles fall into it, which the seed's request order decides, while the
// phase as a whole holds the same compiles for every seed.
type rates struct {
	tokS, reqS       float64
	tokSRef, reqSRef float64
	refMS            float64
}

func (ph *phase) rates() rates {
	var wall, wallRef time.Duration
	var ref []float64
	for _, seg := range ph.segments {
		wall += seg.wall
		wallRef += atRef(seg.wall, seg.ref)
		ref = append(ref, ms(seg.ref))
	}
	tokens, done := 0, 0
	for _, r := range ph.results {
		if r.failure == "" {
			tokens += r.out.tokens
			done++
		}
	}
	return rates{
		tokS: float64(tokens) / secs(wall), reqS: float64(done) / secs(wall),
		tokSRef: float64(tokens) / secs(wallRef), reqSRef: float64(done) / secs(wallRef),
		refMS: median(ref),
	}
}

// counts is a phase's request accounting.
type counts struct {
	sent, ok, failed                   int
	http4xx, http5xx, transport, valid int
}

func (ph *phase) counts() counts {
	var c counts
	for _, r := range ph.results {
		c.sent++
		switch r.failure {
		case "":
			c.ok++
			continue
		case "4xx":
			c.http4xx++
		case "5xx":
			c.http5xx++
		case "transport":
			c.transport++
		case "validation":
			c.valid++
		}
		c.failed++
	}
	return c
}

func (c counts) String() string {
	return fmt.Sprintf("sent=%d succeeded=%d failed=%d (4xx=%d 5xx=%d transport=%d validation=%d)",
		c.sent, c.ok, c.failed, c.http4xx, c.http5xx, c.transport, c.valid)
}
