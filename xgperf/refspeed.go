package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The host's speed drifts within a run and between runs. On a shared
// 2-vCPU machine a fixed loop took from 0.38 s to 0.56 s in consecutive
// seconds with no steal time reported, set-up of identical work took from
// 0.25 s to 0.45 s, and the closed-phase throughput of five runs of
// agent-mix spread 0.35 of its median (IQR over median). Throughput is
// therefore also reported at a reference speed: each closed-phase segment
// is bracketed by runs of a reference workload owned by the benchmark, and
// the segment's wall time is scaled by refNominal over how long the
// reference took. A faster program raises the scaled rate as much as the raw
// one; a slower host slows the program and the reference together, and the
// two cancel.
//
// The reference has the two kinds of work the gateway does: a CPU-bound
// kernel on one thread (lookups in a 1 MiB table, like mask and cache
// accesses) and a loopback HTTP service that streams short SSE responses
// over the same number of keep-alive connections as the load generator
// (wake-ups, syscalls, net/http), which no CPU kernel tracks. In trials of
// five seeds, rates scaled by the kernel alone spread 0.10 (agent-mix) and
// 0.06 (schema-churn), by the HTTP service alone 0.13 and 0.20, and by
// their sum 0.06 and 0.05. With the sum, two sets of ten seeds spread
// 0.04-0.07 on both workloads.

// refNominal is the reference speed: a host on which one reference run
// takes 20 ms (about 10 ms in each part on the machine above).
const refNominal = 20 * time.Millisecond

// Sizes of the reference run's two parts.
const (
	refKernelIters = 1 << 19 // kernel iterations
	refRequests    = 40      // HTTP requests, spread over the connections
	refChunks      = 32      // SSE chunks per response
	refChunkIters  = 512     // kernel iterations per chunk
)

// refTable is the kernel's 1 MiB lookup table.
var refTable = func() []uint32 {
	t := make([]uint32, 1<<18)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// refKernel is a xorshift walk over refTable with a data-dependent branch.
func refKernel(n int) uint32 {
	x, acc := uint32(88172645), uint32(0)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := refTable[(x^acc)&(1<<18-1)]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v >> 3
		}
	}
	return acc
}

// refMeter times reference runs. It owns the reference HTTP service and
// the client that drives it.
type refMeter struct {
	hs     *http.Server
	url    string
	client *http.Client
	conns  int
	served chan struct{} // closed when Serve returns
	sink   atomic.Uint32 // keeps the kernel's results live
}

// newRefMeter starts the reference service on a loopback port and warms it
// with one untimed run.
func newRefMeter(conns int) (*refMeter, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference listen: %w", err)
	}
	m := &refMeter{url: "http://" + ln.Addr().String(), client: newClient(conns), conns: conns, served: make(chan struct{})}
	m.hs = &http.Server{Handler: http.HandlerFunc(m.serve)}
	go func() {
		defer close(m.served)
		m.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	if _, err := m.measure(); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// serve streams refChunks small JSON events, with kernel work before each.
func (m *refMeter) serve(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", "text/event-stream")
	fl := w.(http.Flusher)
	buf := make([]byte, 0, 64)
	for i := 0; i < refChunks; i++ {
		v := refKernel(refChunkIters)
		buf = append(buf[:0], `data: {"index": `...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `, "token": `...)
		buf = strconv.AppendUint(buf, uint64(v&0xffff), 10)
		buf = append(buf, "}\n\n"...)
		w.Write(buf)
		fl.Flush()
	}
	io.WriteString(w, "data: [DONE]\n\n")
}

// measure makes one reference run: the kernel on a locked thread, then
// refRequests requests to the reference service over conns clients.
func (m *refMeter) measure() (time.Duration, error) {
	runtime.LockOSThread()
	t0 := time.Now()
	m.sink.Add(refKernel(refKernelIters))
	kernel := time.Since(t0)
	runtime.UnlockOSThread()

	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, m.conns)
	t0 = time.Now()
	for j := 0; j < m.conns; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for next.Add(1) <= refRequests {
				resp, err := m.client.Post(m.url, "application/json", nil)
				if err != nil {
					errs[j] = err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("reference service: %s", resp.Status)
				}
				if err != nil {
					errs[j] = err
					return
				}
			}
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return kernel + time.Since(t0), nil
}

// close stops the reference service and waits for Serve to return.
func (m *refMeter) close() {
	m.hs.Close()
	<-m.served
	m.client.CloseIdleConnections()
}

// atRef returns how long wall, measured while a reference run took ref,
// would have taken at the reference speed.
func atRef(wall, ref time.Duration) time.Duration {
	return time.Duration(float64(wall) * float64(refNominal) / float64(ref))
}
