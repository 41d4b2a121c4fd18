// Command xgserve runs the structured-generation gateway: an OpenAI-style
// HTTP API over the continuous-batching engine, with a disk-backed
// compiled-grammar store for compile-once/serve-many across restarts.
//
// Usage:
//
//	xgserve -addr :8080 -store ./grammars
//	xgserve -backend sim -backend llama8b=http:http://gpu:8080
//
// -backend maps request "model" names to model backends (repeatable;
// MODEL=SPEC, a bare SPEC sets the default). Without it, generations decode
// against the built-in seeded simulated sampler.
//
// Endpoints:
//
//	POST /v1/grammars      register + compile a grammar -> content-addressed id
//	GET  /v1/grammars/{id} registered-grammar metadata
//	POST /v1/generate      constrained generation ("stream": true for SSE)
//	GET  /healthz          liveness
//	GET  /metrics          throughput, fill p50/p99, cache + store hit rates
//	                       (JSON by default; ?format=prometheus or an Accept
//	                       header naming text/plain switches to Prometheus
//	                       text exposition)
//	GET  /debug/requests   recently completed request traces with per-stage
//	                       spans (filter: model, grammar_id, min_ms, limit)
//
// -debug-addr starts a second listener serving net/http/pprof under
// /debug/pprof/ plus the same /metrics and /debug/requests — keep it
// private; the main address stays safe to expose. -log-format json emits
// one structured access-log line per request on stdout; -slow-ms logs
// requests slower than the threshold to stderr.
//
// With -store, compiled grammars are persisted (atomic write-then-rename)
// and preloaded at boot, so a restarted server serves its first request
// without re-running the vocabulary scan. Precompile blobs offline with
// xgrun -precompile and drop them in the store directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xgrammar"
	"xgrammar/internal/backend"
	"xgrammar/internal/obs"
	"xgrammar/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	vocab := flag.Int("vocab", 4000, "tokenizer vocabulary size")
	storeDir := flag.String("store", "", "compiled-grammar store directory (empty: in-memory only)")
	warm := flag.Bool("warm", true, "preload the store into the compile cache at boot")
	maxInflight := flag.Int("max-inflight", 64, "max concurrently decoding generations (429 beyond)")
	maxTokens := flag.Int("max-tokens", 256, "per-request decode-step budget cap")
	gpuStep := flag.Duration("gpu-step", 2*time.Millisecond, "simulated GPU forward-pass time per decode round")
	workers := flag.Int("workers", 0, "batch-fill workers (0: one per CPU, shared pool)")
	debugAddr := flag.String("debug-addr", "", "private listen address for pprof + trace endpoints (empty: disabled)")
	logFormat := flag.String("log-format", "", "access-log format: json or text (empty: no access log)")
	prefixMB := flag.Int("prefix-cache-mb", 32, "constraint-state prefix cache byte budget in MiB (0: disabled)")
	prefixDepth := flag.Int("prefix-depth", 0, "min forced-prefix bytes before checkpoints are cached (0: default)")
	prefixStride := flag.Int("prefix-stride", 0, "bytes between intermediate checkpoint captures during replay (0: default)")
	trace := flag.Bool("trace", true, "record request-lifecycle traces (stage histograms, /debug/requests)")
	traceRing := flag.Int("trace-ring", obs.DefaultRingSize, "completed request traces retained for /debug/requests")
	slowMS := flag.Float64("slow-ms", 0, "log requests slower than this many ms to stderr (0: disabled)")
	backendSpecs := multiFlag{}
	flag.Var(&backendSpecs, "backend",
		"model backend mapping MODEL=SPEC (repeatable; a bare SPEC sets the default backend), e.g. -backend sim -backend llama8b=http:http://gpu:8080; registered: "+
			strings.Join(backend.Names(), ", "))
	flag.Parse()

	backends := map[string]backend.Backend{}
	for _, s := range backendSpecs {
		model, spec := "", s
		if i := strings.IndexByte(s, '='); i >= 0 {
			model, spec = s[:i], s[i+1:]
		}
		bk, err := backend.Open(spec)
		if err != nil {
			fatal(err)
		}
		backends[model] = bk
		label := model
		if label == "" {
			label = "(default)"
		}
		fmt.Fprintf(os.Stderr, "xgserve: model %s -> backend %s\n", label, bk.Name())
	}

	t0 := time.Now()
	fmt.Fprintf(os.Stderr, "xgserve: training tokenizer (vocab=%d, cached per process)...\n", *vocab)
	info := xgrammar.DefaultTokenizer(*vocab)
	compiler := xgrammar.NewCompiler(info)
	fmt.Fprintf(os.Stderr, "xgserve: tokenizer ready in %v\n", time.Since(t0).Round(time.Millisecond))

	if *storeDir != "" {
		if err := compiler.AttachStore(*storeDir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "xgserve: grammar store at %s (%d blobs)\n", *storeDir, compiler.StoreStats().Blobs)
		if *warm {
			tw := time.Now()
			n, err := compiler.WarmStart()
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "xgserve: warm start loaded %d compiled grammars in %v (no vocabulary rescans)\n",
				n, time.Since(tw).Round(time.Millisecond))
		}
	}

	var engOpts []xgrammar.EngineOption
	if *workers > 0 {
		engOpts = append(engOpts, xgrammar.WithFillWorkers(*workers))
	}
	if *prefixMB > 0 {
		engOpts = append(engOpts, xgrammar.WithPrefixCache(int64(*prefixMB)<<20, *prefixDepth, *prefixStride))
		fmt.Fprintf(os.Stderr, "xgserve: prefix cache enabled (budget=%d MiB)\n", *prefixMB)
	}
	eng := xgrammar.NewEngine(compiler, engOpts...)
	tracer := obs.New(obs.Config{
		Disabled:      !*trace,
		RingSize:      *traceRing,
		SlowThreshold: time.Duration(*slowMS * float64(time.Millisecond)),
		SlowLogWriter: os.Stderr,
	})
	var accessLog func(server.AccessRecord)
	switch *logFormat {
	case "":
	case "json":
		accessLog = server.JSONAccessLogger(os.Stdout)
	case "text":
		accessLog = server.TextAccessLogger(os.Stdout)
	default:
		fatal(fmt.Errorf("unknown -log-format %q (want json or text)", *logFormat))
	}
	gw := server.New(server.Config{
		Engine:      eng,
		MaxInflight: *maxInflight,
		MaxTokens:   *maxTokens,
		GPUStep:     *gpuStep,
		Backends:    backends,
		Tracer:      tracer,
		AccessLog:   accessLog,
	})

	var debugSrv *http.Server
	if *debugAddr != "" {
		// pprof only on the side listener: the main address can face a
		// network; the profiling surface should not.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("GET /metrics", gw)
		dmux.Handle("GET /debug/requests", gw)
		debugSrv = &http.Server{Addr: *debugAddr, Handler: dmux,
			ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
		go func() {
			fmt.Fprintf(os.Stderr, "xgserve: debug endpoints (pprof, traces) on %s\n", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fatal(err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: gw,
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "xgserve: shutting down...")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		if debugSrv != nil {
			debugSrv.Shutdown(ctx)
		}
		gw.Close()
		eng.Close()
	}()

	fmt.Fprintf(os.Stderr, "xgserve: serving on %s (max-inflight=%d, max-tokens=%d, gpu-step=%v)\n",
		*addr, *maxInflight, *maxTokens, *gpuStep)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	<-done
}

// Connection deadlines for both listeners, so a slow or idle client cannot
// hold a connection open indefinitely. There is deliberately no
// WriteTimeout: a generation streams over SSE for as long as it decodes
// (bounded by -max-tokens), and a whole-response write deadline would cut
// long generations off mid-stream. A client that disconnects cancels its
// request context, which retires the sequence.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xgserve:", err)
	os.Exit(1)
}
