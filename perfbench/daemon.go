package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/ssta"
)

// daemon is sstad's HTTP front run in process behind a loopback listener,
// configured with sstad's default flags (concurrency 2, batching off, no
// store), and a keep-alive client.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan error
	tr     atomic.Pointer[tracer]
}

// Headers carrying the client span and request ids to the handler wrapper.
const (
	spanHeader = "X-Perfbench-Span"
	reqHeader  = "X-Perfbench-Req"
)

func startDaemon() (*daemon, error) {
	flow := ssta.DefaultFlow()
	flow.Cache = ssta.NewExtractCacheSized(256, 0)
	srv := server.New(server.Config{
		Flow:              flow,
		MaxConcurrent:     2,
		Workers:           1,
		QueueDepth:        64,
		JobWorkers:        1,
		GraphCacheEntries: 64,
		MaxItems:          256,
		MaxSessions:       64,
		DefaultTimeout:    60 * time.Second,
		MaxTimeout:        10 * time.Minute,
		SessionTTL:        15 * time.Minute,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:  srv,
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		},
	}
	d.hs = &http.Server{Handler: d.wrap(srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// close shuts the listener and server down and waits for both.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // an unclean shutdown still ends Serve below
	<-d.done
	d.srv.Close()
	d.client.CloseIdleConnections()
}

// wrap times each handler call into a server.handler_<endpoint> span that
// is a child of the client's request span.
func (d *daemon) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := d.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		id, _ := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
		tr.record(parent, id, "server.handler_"+endpoint(req), start, end)
	})
}

// endpoint classifies a request path for span names.
func endpoint(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/v1/analyze":
		return "analyze"
	case p == "/v1/sweep":
		return "sweep"
	case strings.HasSuffix(p, "/edits"):
		return "edit"
	case p == "/v1/sessions":
		return "session_create"
	}
	return "other"
}

// call sends one request and decodes a 2xx answer into out. Any other
// status is an error. Traced calls open a server.request span whose self
// time is the transport: client latency minus the handler's time.
func (d *daemon) call(method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	tr := d.tr.Load()
	s := tr.start(nil, "server.request")
	if s != nil {
		s.req = s.id
		req.Header.Set(spanHeader, strconv.FormatInt(s.id, 10))
		req.Header.Set(reqHeader, strconv.FormatInt(s.id, 10))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		s.end()
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// scrape reads /metrics into a map keyed by metric name with labels.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// serverRatios turns two /metrics scrapes into the per-layer server
// metrics of the interval between them.
func serverRatios(a, b map[string]float64) map[string]float64 {
	delta := func(k string) float64 { return b[k] - a[k] }
	coalesced := delta(`sstad_coalesce_hits_total{endpoint="analyze"}`) + delta(`sstad_coalesce_hits_total{endpoint="sweep"}`)
	requests := delta(`sstad_requests_total{endpoint="analyze"}`) + delta("sstad_sweep_requests_total")
	hits, misses := delta("sstad_graph_cache_hits_total"), delta("sstad_graph_cache_misses_total")
	scenSum, scenCount := delta("sstad_sweep_scenario_latency_seconds_sum"), delta("sstad_sweep_scenario_latency_seconds_count")
	return map[string]float64{
		"server.coalesce_hit_ratio":    coalesced / max(1, requests),
		"server.graph_cache_hit_ratio": hits / max(1, hits+misses),
		"server.rejected":              delta("sstad_requests_rejected_total"),
		"server.scenario_ms":           1e3 * scenSum / max(1, scenCount),
	}
}

// compare checks one served (mean, std) against the in-process answer.
func compare(what string, mean, std float64, want *ssta.Form) error {
	if relErr(mean, want.Mean()) > 1e-9 || relErr(std, want.Std()) > 1e-9 {
		return fmt.Errorf("%s: served %.12g/%.12g, in-process %.12g/%.12g", what, mean, std, want.Mean(), want.Std())
	}
	return nil
}

var errNoResult = errors.New("response carries no result")

// servingCheck drives a fresh daemon through one analyze, sweep and
// session-edit exchange on c432 and c880 at seed 1, on a fixed schedule,
// and checks each answer against the in-process library and the reference
// pins. It also records the serving layer's per-layer values for workloads
// that do not serve.
func servingCheck(r *run, tr *tracer) {
	d, err := startDaemon()
	if !r.op(err) {
		return
	}
	defer d.close()
	d.tr.Store(tr)
	before, err := d.scrape()
	if !r.op(err) {
		return
	}

	flow := ssta.DefaultFlow()
	ref := map[string]*ssta.Graph{}
	for _, bench := range []string{"c432", "c880"} {
		c, err := generate(tr, nil, bench, 1)
		if !r.op(err) {
			return
		}
		g, _, err := buildGraph(tr, nil, flow, c)
		if !r.op(err) {
			return
		}
		ref[bench] = g
	}
	base, err := maxDelay(tr, nil, ref["c432"])
	if !r.op(err) {
		return
	}
	scens := []server.SweepScenarioSpec{
		{ScenarioSpec: ssta.ScenarioSpec{Name: "base"}},
		{ScenarioSpec: ssta.ScenarioSpec{Name: "hot", Derate: 1.1}},
		{ScenarioSpec: ssta.ScenarioSpec{Name: "wide", LocSigma: 1.3}},
	}
	lib := make([]ssta.Scenario, len(scens))
	for i := range scens {
		lib[i] = scens[i].Scenario()
	}
	sweepRef, _, err := sweep(r, tr, func() (*ssta.SweepReport, error) {
		return ssta.SweepAnalyzeGraph(context.Background(), ref["c432"], lib, ssta.SweepOptions{Workers: 1})
	})
	if !r.op(err) {
		return
	}
	edge := len(ref["c432"].Edges) / 2
	sess, err := flow.NewGraphSession(context.Background(), ref["c432"])
	if !r.op(err) {
		return
	}

	var late samples
	steps := []func() error{
		func() error {
			var resp server.AnalyzeResponse
			err := d.call("POST", "/v1/analyze", server.AnalyzeRequest{Items: []server.ItemSpec{
				{Bench: "c432", Seed: 1}, {Bench: "c880", Seed: 1},
			}}, &resp)
			if err != nil {
				return err
			}
			if len(resp.Results) != 2 {
				return errNoResult
			}
			for i, bench := range []string{"c432", "c880"} {
				res := resp.Results[i]
				r.checkPins(bench, res.MeanPS, res.StdPS)
				want, err := ref[bench].MaxDelay()
				if err != nil {
					return err
				}
				if err := compare("analyze "+bench, res.MeanPS, res.StdPS, want); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			var resp server.SweepResponse
			err := d.call("POST", "/v1/sweep", server.SweepRequest{
				ItemSpec: server.ItemSpec{Bench: "c432", Seed: 1}, Scenarios: scens,
			}, &resp)
			if err != nil {
				return err
			}
			if len(resp.Results) != len(scens) {
				return errNoResult
			}
			for i, res := range resp.Results {
				want := sweepRef.Results[i]
				if relErr(res.MeanPS, want.Mean) > 1e-9 || relErr(res.StdPS, want.Std) > 1e-9 {
					return fmt.Errorf("sweep scenario %s: served %.12g/%.12g, in-process %.12g/%.12g",
						res.Name, res.MeanPS, res.StdPS, want.Mean, want.Std)
				}
			}
			return nil
		},
		func() error {
			var view server.SessionView
			err := d.call("POST", "/v1/sessions", server.SessionCreateRequest{
				ItemSpec: server.ItemSpec{Bench: "c432", Seed: 1},
			}, &view)
			if err != nil {
				return err
			}
			for _, scale := range []float64{2, 0.5} {
				var resp server.SessionEditResponse
				err := d.call("POST", "/v1/sessions/"+view.ID+"/edits", server.SessionEditRequest{
					Edits: []server.EditSpec{{Op: "scale_delay", Edge: edge, Scale: scale}},
				}, &resp)
				if err != nil {
					return err
				}
				s := tr.start(nil, "ssta.session_apply")
				rep, err := sess.Apply(context.Background(), []ssta.Edit{{Op: ssta.EditScaleDelay, Edge: edge, Scale: scale}})
				s.end()
				if err != nil {
					return err
				}
				if err := compare("session edit", resp.MeanPS, resp.StdPS, rep.Delay); err != nil {
					return err
				}
			}
			// Exact-inverse factors: the session is back at the base graph.
			return compare("session after inverse edits", sess.Delay().Mean(), sess.Delay().Std(), base)
		},
	}
	// The exchange runs on a fixed schedule (one step every 20 ms) so the
	// generator's lateness is measured the way the serve workload does.
	start := time.Now()
	for i, step := range steps {
		due := start.Add(time.Duration(i) * 20 * time.Millisecond)
		time.Sleep(time.Until(due))
		late.add(time.Since(due))
		r.op(step())
	}
	after, err := d.scrape()
	if !r.op(err) {
		return
	}
	d.tr.Store(nil)
	for k, v := range serverRatios(before, after) {
		r.set(k, v)
	}
	r.set("gen.late_ms", late.median())
}
