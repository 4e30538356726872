package server

// Distributed serving: sstad can run as a coordinator fronting a pool of
// worker nodes (ROADMAP "distributed sstad"). The coordinator partitions a
// sweep's scenario set into contiguous shards, dispatches each shard to a
// healthy worker over the cluster RPC transport, and streams per-scenario
// results back so SSE delivery and the per-scenario metrics hook behave
// exactly as in standalone mode. Stateful sessions pin to a worker by
// subject fingerprint (consistent hashing in the pool) and are served
// through a transparent HTTP proxy RPC, so session bodies — including SSE
// edit streams — are byte-identical to a locally served session.
//
// Degradation ladder, in order: a failed shard dispatch retries on the same
// node with jittered backoff, then re-homes to a surviving worker, then
// executes locally on the coordinator; a sweep with no healthy workers runs
// entirely locally. A cluster of one (or zero) workers therefore behaves
// exactly like standalone. Session proxying does not failover (the session's
// state lives on its worker); a dead worker yields 503 until the worker
// returns or the client re-creates the session.
//
// The remote model-cache tier runs in the other direction on the same
// connections: before paying a local extraction, a worker asks the
// coordinator's extract-cache index for the sealed model snapshot
// (cache.get) and seeds its own cache on a hit; after a local extraction it
// uploads the snapshot (cache.put) so the coordinator can serve the next
// worker and persist the model. A miss or a slow coordinator never blocks a
// worker — the consult is bounded by a short timeout and falls back to
// local extraction.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/ssta"
)

// RPC methods of the cluster protocol. Shard and proxy are served by
// workers; the cache methods are served by the coordinator on the same
// pool connections (the transport is symmetric).
const (
	shardMethod    = "sweep.shard"
	proxyMethod    = "http.proxy"
	cacheGetMethod = "cache.get"
	cachePutMethod = "cache.put"
)

const (
	// remoteCacheTimeout bounds a worker's consult of the coordinator's
	// model index; on expiry the worker extracts locally.
	remoteCacheTimeout = 2 * time.Second
	// remoteCachePutTimeout bounds the best-effort async snapshot upload.
	remoteCachePutTimeout = 5 * time.Second
	// maxModelIndex bounds the coordinator's in-memory model index.
	maxModelIndex = 64
	// sessionIDHeader carries the coordinator-allocated session id on a
	// proxied create, so the worker registers the session under the id the
	// coordinator routes by.
	sessionIDHeader = "X-Sstad-Session-Id"
)

// Wire error kinds: per-scenario errors cross the wire as a message plus a
// classification, so the coordinator's metrics accounting (rejected vs
// failed) matches standalone behavior.
const (
	errKindNone = iota
	errKindCanceled
	errKindDeadline
	errKindOther
)

// shardRequest asks a worker to run a contiguous slice of a sweep.
// Scenario names are pre-assigned by the coordinator (global default
// names), so the worker-local Normalize cannot rename them.
type shardRequest struct {
	Item      ItemSpec            `json:"item"`
	Scenarios []SweepScenarioSpec `json:"scenarios"`
	// Indices maps each scenario to its global index in the sweep.
	Indices   []int `json:"indices"`
	Workers   int   `json:"workers,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Stream asks for per-scenario event frames as results land. Only set
	// when the coordinator has a live progress consumer (SSE); a sync sweep
	// reads everything from the final response, and skipping the per-result
	// frames avoids a write syscall plus a coordinator wakeup per scenario.
	Stream bool `json:"stream,omitempty"`
}

// wireScenarioResult is one scenario outcome crossing the wire: scalar
// statistics only — canonical delay forms stay on the worker. Setup/Hold
// carry the worst setup/hold slack statistics on sequential subjects.
type wireScenarioResult struct {
	Index     int             `json:"i"`
	Name      string          `json:"name"`
	Mean      float64         `json:"mean,omitempty"`
	Std       float64         `json:"std,omitempty"`
	Quantile  float64         `json:"q,omitempty"`
	Setup     *ssta.SlackStat `json:"setup,omitempty"`
	Hold      *ssta.SlackStat `json:"hold,omitempty"`
	Shared    bool            `json:"shared,omitempty"`
	ElapsedUS int64           `json:"us,omitempty"`
	Err       string          `json:"err,omitempty"`
	ErrKind   int             `json:"errk,omitempty"`
}

// shardResponse carries the shard's results plus the worker-side subject
// graph's size. The graph itself never crosses the wire, so these scalars
// are the only way a coordinator can report verts/edges for a distributed
// sweep (the PR 9 Top-loss bug: quad sweeps through the coordinator came
// back with no graph stats at all).
type shardResponse struct {
	Results []wireScenarioResult `json:"results"`
	Verts   int                  `json:"verts,omitempty"`
	Edges   int                  `json:"edges,omitempty"`
}

// proxyRequest replays one HTTP request against a worker's own mux.
type proxyRequest struct {
	Method string            `json:"method"`
	Path   string            `json:"path"`
	Header map[string]string `json:"header,omitempty"`
	Body   []byte            `json:"body,omitempty"`
}

// proxyChunk is one streamed slice of a proxied response (SSE edit
// streams); the first chunk carries the status and headers.
type proxyChunk struct {
	Status int               `json:"status,omitempty"`
	Header map[string]string `json:"header,omitempty"`
	Data   []byte            `json:"data,omitempty"`
}

// proxyResponse closes a proxied request: the full response when nothing
// streamed, or the trailing bytes of a streamed one.
type proxyResponse struct {
	Status   int               `json:"status"`
	Header   map[string]string `json:"header,omitempty"`
	Body     []byte            `json:"body,omitempty"`
	Streamed bool              `json:"streamed,omitempty"`
}

type cacheGetRequest struct {
	Key string `json:"key"`
}

type cacheGetResponse struct {
	Found bool   `json:"found"`
	Data  []byte `json:"data,omitempty"`
}

type cachePutRequest struct {
	Key  string `json:"key"`
	Data []byte `json:"data"`
}

// remoteScenarioError reconstructs a worker-side scenario error on the
// coordinator: the message survives verbatim while errors.Is still matches
// the context sentinels, so metrics classification is wire-transparent.
type remoteScenarioError struct {
	msg  string
	kind int
}

func (e *remoteScenarioError) Error() string { return e.msg }

func (e *remoteScenarioError) Unwrap() error {
	switch e.kind {
	case errKindCanceled:
		return context.Canceled
	case errKindDeadline:
		return context.DeadlineExceeded
	}
	return nil
}

func errKindOf(err error) int {
	switch {
	case err == nil:
		return errKindNone
	case errors.Is(err, context.Canceled):
		return errKindCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return errKindDeadline
	}
	return errKindOther
}

func wireErrOf(kind int, msg string) error {
	if kind == errKindNone {
		return nil
	}
	if msg == "" {
		msg = "scenario failed on worker"
	}
	switch kind {
	case errKindCanceled:
		if msg == context.Canceled.Error() {
			return context.Canceled
		}
	case errKindDeadline:
		if msg == context.DeadlineExceeded.Error() {
			return context.DeadlineExceeded
		}
	}
	return &remoteScenarioError{msg: msg, kind: kind}
}

func toWire(global int, r *ssta.ScenarioResult) wireScenarioResult {
	w := wireScenarioResult{
		Index:     global,
		Name:      r.Name,
		Shared:    r.Shared,
		ElapsedUS: r.Elapsed.Microseconds(),
	}
	if r.Err != nil {
		w.Err = r.Err.Error()
		w.ErrKind = errKindOf(r.Err)
		return w
	}
	w.Mean, w.Std, w.Quantile = r.Mean, r.Std, r.Quantile
	w.Setup, w.Hold = r.SetupSlack, r.HoldSlack
	return w
}

func fromWire(w *wireScenarioResult) ssta.ScenarioResult {
	return ssta.ScenarioResult{
		Name:       w.Name,
		Mean:       w.Mean,
		Std:        w.Std,
		Quantile:   w.Quantile,
		SetupSlack: w.Setup,
		HoldSlack:  w.Hold,
		Shared:     w.Shared,
		Elapsed:    time.Duration(w.ElapsedUS) * time.Microsecond,
		Err:        wireErrOf(w.ErrKind, w.Err),
	}
}

// clusterState is the coordinator's cluster bookkeeping: the worker pool,
// the session routing table, the model index backing the remote cache
// tier, and the dispatch counters.
type clusterState struct {
	pool *cluster.Pool

	mu         sync.Mutex
	routes     map[string]*cluster.Node
	modelIndex map[string][]byte

	dispatches     atomic.Int64 // shard RPC attempts
	retries        atomic.Int64 // attempts beyond a shard's first
	failovers      atomic.Int64 // shards re-homed off their first node
	localFallbacks atomic.Int64 // executions (whole or shard) run locally
	proxyErrors    atomic.Int64 // session proxy transport failures
	indexHits      atomic.Int64
	indexMisses    atomic.Int64
	putsReceived   atomic.Int64
}

func newClusterState(pool *cluster.Pool) *clusterState {
	return &clusterState{
		pool:       pool,
		routes:     make(map[string]*cluster.Node),
		modelIndex: make(map[string][]byte),
	}
}

func (cl *clusterState) route(id string) *cluster.Node {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.routes[id]
}

func (cl *clusterState) setRoute(id string, n *cluster.Node) {
	cl.mu.Lock()
	cl.routes[id] = n
	cl.mu.Unlock()
	n.Sessions.Add(1)
}

func (cl *clusterState) dropRoute(id string) {
	cl.mu.Lock()
	n := cl.routes[id]
	delete(cl.routes, id)
	cl.mu.Unlock()
	if n != nil {
		n.Sessions.Add(-1)
	}
}

func (cl *clusterState) routedSessions() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.routes)
}

func (cl *clusterState) indexLen() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.modelIndex)
}

func (cl *clusterState) indexGet(key string) ([]byte, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	data, ok := cl.modelIndex[key]
	return data, ok
}

func (cl *clusterState) indexPut(key string, data []byte) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if _, ok := cl.modelIndex[key]; !ok && len(cl.modelIndex) >= maxModelIndex {
		// Same pragmatic bound as the quad-design cache: reset rather than
		// track recency — snapshots are cheap to re-upload.
		cl.modelIndex = make(map[string][]byte)
	}
	cl.modelIndex[key] = data
}

// remoteCacheStats counts this node's consults of the remote model-cache
// tier (worker side; zero on a standalone or coordinator node).
type remoteCacheStats struct {
	hits, misses, puts, putErrs atomic.Int64
}

// peerKey carries the cluster connection a worker-side handler is serving,
// so extraction deep in the request path can consult the coordinator.
type peerKey struct{}

func withPeer(ctx context.Context, c *cluster.Conn) context.Context {
	return context.WithValue(ctx, peerKey{}, c)
}

func peerFromContext(ctx context.Context) *cluster.Conn {
	c, _ := ctx.Value(peerKey{}).(*cluster.Conn)
	return c
}

// WorkerService is the RPC surface a worker node exposes to its
// coordinator: health pings, sweep shard execution, and the transparent
// HTTP proxy that serves pinned sessions.
func (s *Server) WorkerService() cluster.Service {
	return cluster.Service{
		cluster.PingMethod: pingHandler,
		shardMethod:        s.handleShardRPC,
		proxyMethod:        s.handleProxyRPC,
	}
}

// coordinatorService is what the coordinator serves back to workers on the
// pool connections: the remote model-cache tier.
func (s *Server) coordinatorService() cluster.Service {
	return cluster.Service{
		cluster.PingMethod: pingHandler,
		cacheGetMethod:     s.handleCacheGet,
		cachePutMethod:     s.handleCachePut,
	}
}

func pingHandler(context.Context, *cluster.Request) ([]byte, error) { return nil, nil }

// ---------------------------------------------------------------------------
// Coordinator: distributed sweep dispatch

// runSweep evaluates an execution's scenarios (scens, with their wire
// specs) against the resolved subject: locally when standalone (or when no
// worker is healthy), otherwise sharded across the pool.
func (s *Server) runSweep(ctx context.Context, sub *subject, specs []SweepScenarioSpec, scens []ssta.Scenario, opt ssta.SweepOptions) (*ssta.SweepReport, error) {
	cl := s.cluster
	if cl == nil {
		return sub.sweep(ctx, scens, opt)
	}
	healthy := cl.pool.Healthy()
	if len(healthy) == 0 {
		cl.localFallbacks.Add(1)
		return sub.sweep(ctx, scens, opt)
	}
	return s.runSweepDistributed(ctx, cl, healthy, sub, specs, scens, opt)
}

// runSweepDistributed shards the scenarios across the healthy workers.
// Every scenario carries its name (the executor names them), so a
// worker's shard-local defaults never rename one.
func (s *Server) runSweepDistributed(ctx context.Context, cl *clusterState, healthy []*cluster.Node, sub *subject, specs []SweepScenarioSpec, scens []ssta.Scenario, opt ssta.SweepOptions) (*ssta.SweepReport, error) {
	start := time.Now()
	n := len(scens)

	var timeoutMS int64
	if dl, ok := ctx.Deadline(); ok {
		timeoutMS = int64(time.Until(dl) / time.Millisecond)
	}

	results := make([]ssta.ScenarioResult, n)
	done := make([]bool, n)
	var mu sync.Mutex
	record := func(i int, r ssta.ScenarioResult) {
		if i < 0 || i >= n {
			return
		}
		mu.Lock()
		if done[i] {
			mu.Unlock()
			return
		}
		done[i] = true
		results[i] = r
		mu.Unlock()
		if opt.OnScenarioDone != nil {
			opt.OnScenarioDone(i, &results[i])
		}
	}
	remaining := func(idx []int) []int {
		mu.Lock()
		defer mu.Unlock()
		var left []int
		for _, i := range idx {
			if !done[i] {
				left = append(left, i)
			}
		}
		return left
	}
	// Subject graph size, reassembled from whichever shard (or local
	// fallback) reports it first — the scalar stand-in for the worker-side
	// top graph, which never crosses the wire.
	var topVerts, topEdges int
	noteTop := func(verts, edges int) {
		if verts <= 0 {
			return
		}
		mu.Lock()
		if topVerts == 0 {
			topVerts, topEdges = verts, edges
		}
		mu.Unlock()
	}

	// Contiguous shards over the healthy nodes, one goroutine per shard,
	// starting at the subject's ring node: an execution smaller than the
	// pool (a lone analyze item, a short sweep) lands by subject — spreading
	// load and reusing that worker's caches — instead of always on the
	// first configured node.
	fp := ItemFingerprint(&sub.spec)
	first := max(slices.Index(healthy, cl.pool.Pick(fp[:])), 0)
	nw := min(len(healthy), n)
	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		lo, hi := k*n/nw, (k+1)*n/nw
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		wg.Add(1)
		go func(node *cluster.Node, idx []int) {
			defer wg.Done()
			s.dispatchShard(ctx, cl, node, sub, specs, scens, idx, timeoutMS, opt, record, remaining, noteTop)
		}(healthy[(first+k)%len(healthy)], idx)
	}
	wg.Wait()

	// Anything still missing (total dispatch and fallback failure) gets the
	// context error, mirroring the engine's fillUnrun accounting.
	for i := 0; i < n; i++ {
		mu.Lock()
		missing := !done[i]
		mu.Unlock()
		if !missing {
			continue
		}
		err := ctx.Err()
		if err == nil {
			err = errors.New("scenario: not run")
		}
		record(i, ssta.ScenarioResult{Name: scens[i].Name, Err: err})
	}

	rep := scenario.NewReport(results, scenario.Options{TopK: opt.TopK, Quantile: opt.Quantile})
	rep.Elapsed = time.Since(start)
	if sub.design == nil {
		// The shared flat graph is local; report its size as standalone
		// would. A distributed design sweep has no local stitched top — its
		// scalar stats come back in the shard responses instead.
		rep.Top = sub.graph
		rep.TopVerts, rep.TopEdges = sub.graph.NumVerts, len(sub.graph.Edges)
	} else {
		mu.Lock()
		rep.TopVerts, rep.TopEdges = topVerts, topEdges
		mu.Unlock()
	}
	return rep, nil
}

// dispatchShard drives one shard to completion: dispatch to its node,
// retry with jittered backoff, re-home to a survivor, and finally execute
// the remainder locally. Every path records results through record, so the
// per-scenario hook fires exactly once per scenario.
func (s *Server) dispatchShard(ctx context.Context, cl *clusterState, node *cluster.Node, sub *subject, specs []SweepScenarioSpec, scens []ssta.Scenario, idx []int, timeoutMS int64, opt ssta.SweepOptions, record func(int, ssta.ScenarioResult), remaining func([]int) []int, noteTop func(int, int)) {
	bo := store.Backoff{Base: 25 * time.Millisecond, Cap: 250 * time.Millisecond, MaxAttempts: 3, Jitter: 0.5}
	attempt := 0
	err := bo.Retry(ctx, func() error {
		attempt++
		if attempt > 1 {
			cl.retries.Add(1)
			// Prefer re-homing to a survivor: the common failure is a dead
			// or demoted node, and hammering it wastes the remaining budget.
			if alt := pickOther(cl.pool, node); alt != nil {
				node = alt
				cl.failovers.Add(1)
			}
		}
		left := remaining(idx)
		if len(left) == 0 {
			return nil
		}
		return s.callShard(ctx, cl, node, sub, specs, left, timeoutMS, opt, record, noteTop)
	})
	if err == nil {
		return
	}
	left := remaining(idx)
	if len(left) == 0 || ctx.Err() != nil {
		return
	}
	cl.failovers.Add(1)
	cl.localFallbacks.Add(1)
	s.runShardLocal(ctx, sub, scens, left, opt, record, noteTop)
}

// pickOther returns a healthy node other than cur, if any.
func pickOther(pool *cluster.Pool, cur *cluster.Node) *cluster.Node {
	for _, n := range pool.Healthy() {
		if n != cur {
			return n
		}
	}
	return nil
}

// callShard performs one shard RPC against one node, recording streamed
// per-scenario events as they arrive and the final response as backstop. A
// node that goes unhealthy mid-dispatch (crash, hang) aborts the call so
// the shard can re-home instead of waiting out the request deadline.
func (s *Server) callShard(ctx context.Context, cl *clusterState, node *cluster.Node, sub *subject, specs []SweepScenarioSpec, idx []int, timeoutMS int64, opt ssta.SweepOptions, record func(int, ssta.ScenarioResult), noteTop func(int, int)) error {
	shard := make([]SweepScenarioSpec, len(idx))
	for k, i := range idx {
		shard[k] = specs[i]
	}
	req := shardRequest{
		Item:      sub.spec,
		Scenarios: shard,
		Indices:   idx,
		Workers:   opt.Workers,
		TimeoutMS: timeoutMS,
		Stream:    opt.OnScenarioDone != nil,
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	cl.dispatches.Add(1)

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-watchDone:
				return
			case <-cctx.Done():
				return
			case <-t.C:
				if !node.Healthy() {
					cancel()
					return
				}
			}
		}
	}()

	onEvent := func(b []byte) {
		var ev wireScenarioResult
		if json.Unmarshal(b, &ev) != nil {
			return
		}
		record(ev.Index, fromWire(&ev))
	}
	respBody, err := cl.pool.Do(cctx, node, shardMethod, body, onEvent)
	if err != nil {
		return err
	}
	var resp shardResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return err
	}
	noteTop(resp.Verts, resp.Edges)
	for k := range resp.Results {
		record(resp.Results[k].Index, fromWire(&resp.Results[k]))
	}
	return nil
}

// runShardLocal executes the remaining scenario subset on the coordinator,
// remapping the per-scenario hook back to global indices.
func (s *Server) runShardLocal(ctx context.Context, sub *subject, scens []ssta.Scenario, idx []int, opt ssta.SweepOptions, record func(int, ssta.ScenarioResult), noteTop func(int, int)) {
	part := make([]ssta.Scenario, len(idx))
	for k, i := range idx {
		part[k] = scens[i]
	}
	lopt := opt
	lopt.OnScenarioDone = func(k int, r *ssta.ScenarioResult) {
		if k >= 0 && k < len(idx) {
			record(idx[k], *r)
		}
	}
	if rep, _ := sub.sweep(ctx, part, lopt); rep != nil {
		noteTop(rep.TopVerts, rep.TopEdges)
	}
}

// ---------------------------------------------------------------------------
// Worker: shard execution

// handleShardRPC runs a coordinator's shard as one execution with one
// sweep seat. Like a job, it owns its turn and waits for a slot on its
// own context.
func (s *Server) handleShardRPC(ctx context.Context, req *cluster.Request) ([]byte, error) {
	var sr shardRequest
	if err := json.Unmarshal(req.Body, &sr); err != nil {
		return nil, fmt.Errorf("sweep.shard: bad request: %v", err)
	}
	if len(sr.Scenarios) == 0 || len(sr.Scenarios) != len(sr.Indices) {
		return nil, errors.New("sweep.shard: malformed shard")
	}
	if sr.TimeoutMS > 0 {
		d := time.Duration(sr.TimeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	ctx = withPeer(ctx, req.Conn)
	st := &seat{specs: sr.Scenarios}
	if sr.Stream {
		st.onScenario = func(k int, r *ssta.ScenarioResult) {
			// Best effort: the final response repeats every result.
			_ = req.Emit(marshalJSON(toWire(sr.Indices[k], r)))
		}
	}
	err := s.execute(ctx, false, 1, &execution{subject: sr.Item, seats: []*seat{st}, workers: sr.Workers})
	if err == nil {
		err = st.err
	}
	if err != nil {
		return nil, err
	}
	out := shardResponse{
		Results: make([]wireScenarioResult, len(st.rep.Results)),
		Verts:   st.rep.TopVerts,
		Edges:   st.rep.TopEdges,
	}
	for k := range st.rep.Results {
		out.Results[k] = toWire(sr.Indices[k], &st.rep.Results[k])
	}
	return marshalJSON(out), nil
}

// ---------------------------------------------------------------------------
// Remote model-cache tier

// extractModel resolves the extracted timing model for a cached graph: the
// local extract cache first, then — on a worker — the coordinator's model
// index, and finally a local extraction (checkpointed, and uploaded to the
// coordinator so the tier warms for the other workers).
func (s *Server) extractModel(ctx context.Context, gk graphKey, g *ssta.Graph) (*ssta.Model, error) {
	if m, ok := s.flow.Cache.Lookup(g, ssta.ExtractOptions{}); ok {
		return m, nil
	}
	key, durable := modelKey(gk)
	peer := peerFromContext(ctx)
	if peer != nil && durable {
		if m := s.remoteCacheGet(ctx, peer, key, g); m != nil {
			return m, nil
		}
	}
	m, err := s.flow.ExtractCtx(ctx, g, ssta.ExtractOptions{})
	if err != nil {
		return nil, err
	}
	s.checkpointModel(gk, m)
	if peer != nil && durable {
		s.remoteCachePutAsync(peer, key, m)
	}
	return m, nil
}

func (s *Server) remoteCacheGet(ctx context.Context, peer *cluster.Conn, key string, g *ssta.Graph) *ssta.Model {
	cctx, cancel := context.WithTimeout(ctx, remoteCacheTimeout)
	defer cancel()
	resp, err := peer.Call(cctx, cacheGetMethod, marshalJSON(cacheGetRequest{Key: key}), nil)
	if err != nil {
		s.remoteCache.misses.Add(1)
		return nil
	}
	var out cacheGetResponse
	if json.Unmarshal(resp, &out) != nil || !out.Found {
		s.remoteCache.misses.Add(1)
		return nil
	}
	m, err := ssta.DecodeModelSnapshot(out.Data)
	if err != nil {
		s.remoteCache.misses.Add(1)
		return nil
	}
	s.flow.Cache.Seed(g, ssta.ExtractOptions{}, m)
	s.remoteCache.hits.Add(1)
	return m
}

func (s *Server) remoteCachePutAsync(peer *cluster.Conn, key string, m *ssta.Model) {
	go func() {
		data, err := m.EncodeSnapshot()
		if err != nil {
			s.remoteCache.putErrs.Add(1)
			return
		}
		cctx, cancel := context.WithTimeout(context.Background(), remoteCachePutTimeout)
		defer cancel()
		if _, err := peer.Call(cctx, cachePutMethod, marshalJSON(cachePutRequest{Key: key, Data: data}), nil); err != nil {
			s.remoteCache.putErrs.Add(1)
			return
		}
		s.remoteCache.puts.Add(1)
	}()
}

// handleCacheGet serves the coordinator's extract-cache index: the
// in-memory model index first, falling back to encoding a model the
// coordinator's own extract cache already holds for an already built
// graph. It never builds graphs or extracts on a worker's behalf.
func (s *Server) handleCacheGet(ctx context.Context, req *cluster.Request) ([]byte, error) {
	var q cacheGetRequest
	if err := json.Unmarshal(req.Body, &q); err != nil {
		return nil, fmt.Errorf("cache.get: bad request: %v", err)
	}
	cl := s.cluster
	if cl == nil {
		return marshalJSON(cacheGetResponse{}), nil
	}
	if data, ok := cl.indexGet(q.Key); ok {
		cl.indexHits.Add(1)
		return marshalJSON(cacheGetResponse{Found: true, Data: data}), nil
	}
	if gk, ok := parseModelKey(q.Key); ok {
		if g := s.graphs.peek(gk); g != nil {
			if m, ok := s.flow.Cache.Lookup(g, ssta.ExtractOptions{}); ok {
				if data, err := m.EncodeSnapshot(); err == nil {
					cl.indexPut(q.Key, data)
					cl.indexHits.Add(1)
					return marshalJSON(cacheGetResponse{Found: true, Data: data}), nil
				}
			}
		}
	}
	cl.indexMisses.Add(1)
	return marshalJSON(cacheGetResponse{}), nil
}

// handleCachePut receives a worker's extracted-model snapshot: validated,
// indexed for the other workers, and fed to the persister.
func (s *Server) handleCachePut(ctx context.Context, req *cluster.Request) ([]byte, error) {
	var q cachePutRequest
	if err := json.Unmarshal(req.Body, &q); err != nil {
		return nil, fmt.Errorf("cache.put: bad request: %v", err)
	}
	gk, ok := parseModelKey(q.Key)
	if !ok {
		return nil, fmt.Errorf("cache.put: bad key %q", q.Key)
	}
	m, err := ssta.DecodeModelSnapshot(q.Data)
	if err != nil {
		return nil, fmt.Errorf("cache.put: %v", err)
	}
	cl := s.cluster
	if cl == nil {
		return nil, nil
	}
	cl.indexPut(q.Key, q.Data)
	cl.putsReceived.Add(1)
	s.checkpointModel(gk, m)
	return nil, nil
}

// ---------------------------------------------------------------------------
// Session affinity: coordinator-side routing and the worker-side proxy

// validSessionID bounds the ids a proxied create will honor (they become
// store keys on the worker).
func validSessionID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' {
			continue
		}
		return false
	}
	return true
}

// clusterSessionCreate routes a session create to its affinity worker.
// It reports true when it fully handled the request; false means the
// caller should serve it locally (no healthy node, or dispatch failed —
// the degradation ladder's local fallback), with r.Body restored.
func (s *Server) clusterSessionCreate(w http.ResponseWriter, r *http.Request) bool {
	cl := s.cluster
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return true
	}
	var req SessionCreateRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return true
	}
	fp := ItemFingerprint(&req.ItemSpec)
	node := cl.pool.Pick(fp[:])
	if node == nil {
		cl.localFallbacks.Add(1)
		r.Body = io.NopCloser(bytes.NewReader(raw))
		return false
	}
	id := s.sessions.nextID()
	pq := &proxyRequest{
		Method: http.MethodPost,
		Path:   "/v1/sessions",
		Header: map[string]string{
			"Content-Type":  "application/json",
			sessionIDHeader: id,
		},
		Body: raw,
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	status, started, err := s.proxyRoundTrip(ctx, w, node, pq)
	if err != nil {
		cl.proxyErrors.Add(1)
		if started {
			return true // response already underway; nothing safe to add
		}
		// The worker may or may not have created the session; an orphan is
		// reaped by its idle janitor. Serving locally keeps the request
		// answered — the degradation the issue demands.
		cl.failovers.Add(1)
		r.Body = io.NopCloser(bytes.NewReader(raw))
		return false
	}
	if status == http.StatusCreated {
		cl.setRoute(id, node)
	}
	return true
}

// clusterSessionProxy forwards a pinned session request (get, edits —
// including SSE streams — and delete) to the session's worker. Reports
// true when the request was handled (successfully or with an error
// response); false when the id has no route and the caller should serve
// locally.
func (s *Server) clusterSessionProxy(w http.ResponseWriter, r *http.Request, id string) bool {
	cl := s.cluster
	node := cl.route(id)
	if node == nil {
		return false
	}
	var raw []byte
	if r.Body != nil {
		var err error
		raw, err = io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			s.metrics.badRequests.Add(1)
			httpError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
			return true
		}
	}
	pq := &proxyRequest{
		Method: r.Method,
		Path:   r.URL.Path,
		Header: map[string]string{},
		Body:   raw,
	}
	for _, h := range []string{"Accept", "Content-Type"} {
		if v := r.Header.Get(h); v != "" {
			pq.Header[h] = v
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	status, started, err := s.proxyRoundTrip(ctx, w, node, pq)
	if err != nil {
		cl.proxyErrors.Add(1)
		if !started {
			httpError(w, http.StatusServiceUnavailable, "session worker unavailable")
		}
		return true
	}
	switch {
	case status == http.StatusNotFound:
		// The worker no longer has the session (restart, eviction): drop
		// the stale route so a re-created session can pin afresh.
		cl.dropRoute(id)
	case r.Method == http.MethodDelete && status == http.StatusOK:
		cl.dropRoute(id)
	}
	return true
}

// proxyRoundTrip replays one HTTP request on the node and copies the
// response — streamed chunks as they arrive, then the closing frame —
// onto w. It reports whether any bytes reached w (after which no error
// response can be written).
func (s *Server) proxyRoundTrip(ctx context.Context, w http.ResponseWriter, node *cluster.Node, pq *proxyRequest) (status int, started bool, err error) {
	body, err := json.Marshal(pq)
	if err != nil {
		return 0, false, err
	}
	fl, _ := w.(http.Flusher)
	streamStatus := 0
	onEvent := func(b []byte) {
		var ch proxyChunk
		if json.Unmarshal(b, &ch) != nil {
			return
		}
		if !started {
			started = true
			streamStatus = ch.Status
			for k, v := range ch.Header {
				w.Header().Set(k, v)
			}
			w.WriteHeader(ch.Status)
		}
		if len(ch.Data) > 0 {
			_, _ = w.Write(ch.Data)
		}
		if fl != nil {
			fl.Flush()
		}
	}
	respBody, err := s.cluster.pool.Do(ctx, node, proxyMethod, body, onEvent)
	if err != nil {
		return streamStatus, started, err
	}
	var pr proxyResponse
	if err := json.Unmarshal(respBody, &pr); err != nil {
		return streamStatus, started, err
	}
	if pr.Streamed || started {
		if len(pr.Body) > 0 {
			_, _ = w.Write(pr.Body)
			if fl != nil {
				fl.Flush()
			}
		}
		if streamStatus == 0 {
			streamStatus = pr.Status
		}
		return streamStatus, true, nil
	}
	for k, v := range pr.Header {
		w.Header().Set(k, v)
	}
	w.WriteHeader(pr.Status)
	_, _ = w.Write(pr.Body)
	return pr.Status, true, nil
}

// handleProxyRPC replays a coordinator's HTTP request against this
// worker's own mux, so proxied sessions behave byte-identically to local
// ones. Flushes stream back as event frames (SSE transparency).
func (s *Server) handleProxyRPC(ctx context.Context, req *cluster.Request) ([]byte, error) {
	var pq proxyRequest
	if err := json.Unmarshal(req.Body, &pq); err != nil {
		return nil, fmt.Errorf("http.proxy: bad request: %v", err)
	}
	hr, err := http.NewRequestWithContext(withPeer(ctx, req.Conn), pq.Method, pq.Path, bytes.NewReader(pq.Body))
	if err != nil {
		return nil, fmt.Errorf("http.proxy: %v", err)
	}
	for k, v := range pq.Header {
		hr.Header.Set(k, v)
	}
	pw := &proxyWriter{req: req, header: make(http.Header)}
	s.mux.ServeHTTP(pw, hr)
	return marshalJSON(pw.response()), nil
}

// proxyWriter is the worker-side ResponseWriter behind handleProxyRPC: a
// buffering writer whose Flush ships the buffered bytes to the
// coordinator as one event frame. Implementing http.Flusher is what makes
// the worker's SSE path stream instead of buffer.
type proxyWriter struct {
	req         *cluster.Request
	header      http.Header
	status      int
	wroteHeader bool
	buf         bytes.Buffer
	streamed    bool
	sendErr     error
}

func (p *proxyWriter) Header() http.Header { return p.header }

func (p *proxyWriter) WriteHeader(code int) {
	if !p.wroteHeader {
		p.status = code
		p.wroteHeader = true
	}
}

func (p *proxyWriter) Write(b []byte) (int, error) {
	if !p.wroteHeader {
		p.WriteHeader(http.StatusOK)
	}
	return p.buf.Write(b)
}

func (p *proxyWriter) Flush() {
	if p.sendErr != nil {
		return
	}
	if !p.wroteHeader {
		p.WriteHeader(http.StatusOK)
	}
	ch := proxyChunk{Data: append([]byte(nil), p.buf.Bytes()...)}
	if !p.streamed {
		ch.Status = p.status
		ch.Header = flattenHeader(p.header)
		p.streamed = true
	}
	p.buf.Reset()
	p.sendErr = p.req.Emit(marshalJSON(ch))
}

func (p *proxyWriter) response() proxyResponse {
	if !p.wroteHeader {
		p.status = http.StatusOK
	}
	resp := proxyResponse{
		Status:   p.status,
		Body:     p.buf.Bytes(),
		Streamed: p.streamed,
	}
	if !p.streamed {
		resp.Header = flattenHeader(p.header)
	}
	return resp
}

func flattenHeader(h http.Header) map[string]string {
	if len(h) == 0 {
		return nil
	}
	out := make(map[string]string, len(h))
	for k, vs := range h {
		if len(vs) > 0 {
			out[k] = vs[0]
		}
	}
	return out
}
