package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"xgrammar"
	"xgrammar/internal/backend"
	"xgrammar/internal/corpus"
	"xgrammar/internal/obs"
	"xgrammar/internal/server"
)

// gateway is an in-process xgserve: the server.New handler behind a real
// net/http listener on 127.0.0.1, configured as xgserve's defaults (sim
// backend, 32 MiB prefix cache, shared fill pool) except GPUStep 0.
type gateway struct {
	comp   *xgrammar.Compiler
	eng    *xgrammar.Engine
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan struct{} // closed when Serve returns
}

// xgserve's defaults for the settings the benchmark keeps.
const (
	maxInflight   = 64
	maxTokensCap  = 256
	prefixCacheMB = 32
)

// trainTokenizer trains the default tokenizer without the per-process cache
// of xgrammar.DefaultTokenizer, so every setup pays for it. The corpus size
// follows tokenizer.BuildDefault (tested to give the same tokenizer).
func trainTokenizer(vocab int) *xgrammar.TokenizerInfo {
	n := vocab * 192
	if n < 1<<16 {
		n = 1 << 16
	}
	if n > 8<<20 {
		n = 8 << 20
	}
	return xgrammar.TrainTokenizer(corpus.Default(n), vocab)
}

// startGateway builds the compiler, engine and gateway over info and starts
// serving on a loopback port. tracer nil means tracing off; bk nil means the
// gateway's built-in sim backend.
func startGateway(info *xgrammar.TokenizerInfo, tracer *obs.Tracer, bk backend.Backend) (*gateway, error) {
	comp := xgrammar.NewCompiler(info)
	eng := xgrammar.NewEngine(comp, xgrammar.WithPrefixCache(prefixCacheMB<<20, 0, 0))
	if tracer == nil {
		tracer = obs.New(obs.Config{Disabled: true})
	}
	cfg := server.Config{Engine: eng, MaxInflight: maxInflight, MaxTokens: maxTokensCap, Tracer: tracer}
	if bk != nil {
		cfg.Backends = map[string]backend.Backend{"": bk}
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		eng.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	g := &gateway{
		comp: comp, eng: eng, srv: srv,
		hs:     &http.Server{Handler: srv},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(g.served)
		g.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return g, nil
}

// close stops the listener and waits for Serve to return, then stops the
// decode loop and the engine.
func (g *gateway) close() {
	g.hs.Close()
	<-g.served
	g.srv.Close()
	g.eng.Close()
}

// register compiles the plan's setup schemas through POST /v1/grammars and
// returns their grammar IDs by schema index.
func (g *gateway) register(c *http.Client, p *plan) (map[int]string, error) {
	ids := map[int]string{}
	for _, k := range p.register {
		body, err := json.Marshal(server.GrammarRequest{Kind: "json_schema", Source: string(p.schemas[k])})
		if err != nil {
			return nil, err
		}
		var resp server.GrammarResponse
		if err := postJSON(c, g.url+"/v1/grammars", body, &resp); err != nil {
			return nil, fmt.Errorf("register schema %d: %w", k, err)
		}
		ids[k] = resp.ID
	}
	if p.w.name == "agent-mix" {
		// Templated requests name the builtin JSON grammar inline; registering
		// it compiles it into the same compile-cache entry before timing.
		body := []byte(`{"kind": "builtin", "source": "json"}`)
		if err := postJSON(c, g.url+"/v1/grammars", body, &server.GrammarResponse{}); err != nil {
			return nil, fmt.Errorf("register builtin json: %w", err)
		}
	}
	return ids, nil
}

// metrics fetches the gateway's JSON /metrics.
func (g *gateway) metrics(c *http.Client) (server.Metrics, error) {
	var m server.Metrics
	resp, err := c.Get(g.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func postJSON(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// setup is one timed set-up: tokenizer training, compiler, engine, gateway
// and listener, plus the workload's registered grammars.
type setup struct {
	gw   *gateway
	ids  map[int]string
	took time.Duration
}

func runSetup(c *http.Client, p *plan) (*setup, error) {
	t0 := time.Now()
	gw, err := startGateway(trainTokenizer(p.w.vocab), nil, nil)
	if err != nil {
		return nil, err
	}
	ids, err := gw.register(c, p)
	if err != nil {
		gw.close()
		return nil, err
	}
	return &setup{gw: gw, ids: ids, took: time.Since(t0)}, nil
}
