package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/ssta"
)

// This file is the coalescing/batching front of the request path: every
// synchronous analysis flows through here instead of reaching the engine
// directly. Two layers, both keyed by the canonical fingerprints of
// fingerprint.go:
//
//  1. The coalescer is an in-flight singleflight table over full request
//     fingerprints: identical concurrent /v1/analyze and /v1/sweep requests
//     attach to one execution and share its response bytes verbatim. The
//     graph cache dedupes *completed* work; this dedupes work that is
//     still running.
//  2. The micro-batcher gathers *compatible* requests — same analysis
//     subject (ItemFingerprint) and mode, different scenarios — within a
//     size/latency window (Config.BatchMax / Config.BatchWindow) as seats
//     of ONE execution, which answers them from one shared-prep sweep and
//     splits the report back per seat. A plain /v1/analyze request is the
//     identity-scenario seat it is everywhere else.
//
// Admission accounting is per-execution: one coalesced or batched
// execution holds one analysis slot no matter how many callers it answers.
// Coalescing is always on (it is pure dedup); batching is opt-in via
// Config.BatchWindow because it trades first-request latency for
// throughput. It decides only whether seats wait to gather: the same
// executor answers them, and every seat counts in the per-item and
// per-scenario metrics exactly as it would alone.

// flight is one in-flight coalesced execution. The leader runs it and
// publishes the response; followers wait on done and replay the bytes.
// refs counts attached callers; when the last one departs before the
// result lands, execCancel aborts the execution.
type flight struct {
	fp         Fingerprint
	done       chan struct{}
	status     int
	body       []byte
	refs       int
	published  bool
	execCancel context.CancelFunc
}

// coalescer is the in-flight singleflight table.
type coalescer struct {
	mu      sync.Mutex
	flights map[Fingerprint]*flight
}

func newCoalescer() *coalescer {
	return &coalescer{flights: make(map[Fingerprint]*flight)}
}

// join attaches to the in-flight execution for fp, creating it when none
// exists. The second result is true for the leader (creator).
func (c *coalescer) join(fp Fingerprint) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[fp]; ok {
		f.refs++
		return f, false
	}
	f := &flight{fp: fp, done: make(chan struct{}), refs: 1}
	c.flights[fp] = f
	return f, true
}

// leave detaches one caller. When the last caller leaves an unpublished
// flight, the execution is cancelled — nobody is waiting for its result.
func (c *coalescer) leave(f *flight) {
	c.mu.Lock()
	f.refs--
	abort := f.refs == 0 && !f.published
	cancel := f.execCancel
	c.mu.Unlock()
	if abort && cancel != nil {
		cancel()
	}
}

// publish records the response and releases every waiter. The flight
// leaves the table first, so late identical requests start fresh —
// coalescing shares in-flight work only, never stale results.
func (c *coalescer) publish(f *flight, status int, body []byte) {
	c.mu.Lock()
	f.status, f.body = status, body
	f.published = true
	delete(c.flights, f.fp)
	c.mu.Unlock()
	close(f.done)
}

// inFlight samples the table size for /metrics.
func (c *coalescer) inFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flights)
}

// serveCoalesced funnels one synchronous request through the coalescer:
// followers of an identical in-flight request wait for its bytes; the
// leader runs exec under a context that is detached from any single client
// (derived from the server lifetime plus the request deadline) and
// cancelled only when every attached caller has disconnected.
func (s *Server) serveCoalesced(w http.ResponseWriter, r *http.Request, endpoint string, fp Fingerprint, timeoutMS int64, exec func(ctx context.Context) (int, []byte)) {
	f, leader := s.coalesce.join(fp)
	if !leader {
		s.metrics.coalesceHit(endpoint)
		defer s.coalesce.leave(f)
		select {
		case <-f.done:
			writeRaw(w, f.status, f.body)
		case <-r.Context().Done():
			// Client gone; the execution continues for the other callers.
		}
		return
	}
	execCtx, execCancel := s.requestCtx(s.baseCtx, timeoutMS)
	defer execCancel()
	f.execCancel = execCancel
	// The leader's own departure is tracked like a follower's: if its
	// client disconnects mid-execution while followers remain, the work
	// keeps running for them.
	stop := context.AfterFunc(r.Context(), func() { s.coalesce.leave(f) })
	status, body := exec(execCtx)
	s.coalesce.publish(f, status, body)
	if stop() {
		s.coalesce.leave(f)
	}
	writeRaw(w, status, body)
}

// batchKey groups compatible executions: same analysis subject, same
// correlation mode. Scheduling knobs (workers, timeout) deliberately stay
// out — they do not change results, and the group runs under the most
// generous of its callers' settings.
type batchKey struct {
	subject Fingerprint
	mode    ssta.Mode
}

// batchKeyOf returns the group of a lone execution, false when it answers
// alone: a subject that is not exactly one valid input fails on its own,
// and an extraction would hold every other seat of its group until it
// finished.
func batchKeyOf(ex *execution) (batchKey, bool) {
	spec := &ex.subject
	mode, err := parseMode(spec.Mode)
	if err != nil || len(spec.inputs()) != 1 || ex.extract {
		return batchKey{}, false
	}
	return batchKey{subject: ItemFingerprint(spec), mode: mode}, true
}

// batchCall is one caller's execution waiting in a micro-batch.
type batchCall struct {
	ex   *execution
	ctx  context.Context // caller-side context (deadline, departure tracking)
	done chan struct{}
	err  error
}

// batchGroup is one gathering micro-batch.
type batchGroup struct {
	key     batchKey
	calls   []*batchCall
	timer   *time.Timer
	flushed bool
}

// batcher gathers compatible executions and flushes them as one execution
// when the group reaches max callers or the window expires, whichever
// comes first.
type batcher struct {
	s      *Server
	mu     sync.Mutex
	groups map[batchKey]*batchGroup
	max    int
	window time.Duration
}

func newBatcher(s *Server, max int, window time.Duration) *batcher {
	if max <= 1 {
		max = 8
	}
	return &batcher{s: s, groups: make(map[batchKey]*batchGroup), max: max, window: window}
}

// do enqueues one execution and blocks until its group's execution has
// answered its seats, returning the group's admission error. When the
// caller's context dies first, do returns that instead and the group
// continues for the others — the caller must then not read its seats.
func (b *batcher) do(ctx context.Context, key batchKey, ex *execution) error {
	call := &batchCall{ex: ex, ctx: ctx, done: make(chan struct{})}
	b.s.metrics.batchRequests.Add(1)
	b.mu.Lock()
	g, ok := b.groups[key]
	if !ok {
		g = &batchGroup{key: key}
		b.groups[key] = g
		g.timer = time.AfterFunc(b.window, func() { b.flush(g, "deadline") })
	}
	g.calls = append(g.calls, call)
	full := len(g.calls) >= b.max
	b.mu.Unlock()
	if full {
		b.flush(g, "size")
	}
	select {
	case <-call.done:
		return call.err
	case <-ctx.Done():
		// Late result may have raced the cancellation; prefer it.
		select {
		case <-call.done:
			return call.err
		default:
		}
		return fmt.Errorf("request expired before its micro-batch completed: %w", ctx.Err())
	}
}

// flush detaches the group from the gathering table and runs it. Exactly
// one flush wins (size and deadline can race); the execution runs on its
// own goroutine so neither the timer goroutine nor a caller blocks on it.
func (b *batcher) flush(g *batchGroup, reason string) {
	b.mu.Lock()
	if g.flushed {
		b.mu.Unlock()
		return
	}
	g.flushed = true
	delete(b.groups, g.key)
	if g.timer != nil {
		g.timer.Stop()
	}
	calls := g.calls
	b.mu.Unlock()
	b.s.metrics.batchFlush(reason)
	go b.run(calls)
}

// gathering samples the number of groups currently open for /metrics.
func (b *batcher) gathering() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.groups)
}

// run executes one flushed micro-batch: the callers' seats, over the
// first caller's subject (unnamed: every seat keeps its own label), as ONE
// execution.
func (b *batcher) run(calls []*batchCall) {
	s, m := b.s, b.s.metrics
	m.batchExecutions.Add(1)
	m.batchOccSum.Add(int64(len(calls)))

	ex := &execution{subject: calls[0].ex.subject, workers: s.cfg.Workers}
	ex.subject.Name = ""
	var deadline time.Time
	for _, c := range calls {
		ex.seats = append(ex.seats, c.ex.seats...)
		ex.workers = max(ex.workers, c.ex.workers)
		if dl, ok := c.ctx.Deadline(); ok && dl.After(deadline) {
			deadline = dl
		}
	}
	// Group execution context: the server's lifetime bounded by the most
	// generous caller deadline, cancelled early when every caller departs.
	ctx, cancel := context.WithDeadline(s.baseCtx, deadline)
	defer cancel()
	var refs atomic.Int64
	refs.Store(int64(len(calls)))
	for _, c := range calls {
		context.AfterFunc(c.ctx, func() {
			if refs.Add(-1) == 0 {
				cancel()
			}
		})
	}

	err := s.execute(ctx, true, 1, ex)
	for _, c := range calls {
		c.err = err
		close(c.done)
	}
}

// marshalJSON renders v exactly like writeJSON does (no HTML escaping,
// trailing newline), so coalesced followers replay byte-identical bodies.
func marshalJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
	return buf.Bytes()
}

// errorBody is the byte form of httpError's payload.
func errorBody(code int, msg string) []byte {
	return marshalJSON(map[string]any{"error": msg, "status": fmt.Sprint(code)})
}

// writeRaw writes a prerendered JSON response, carrying the Retry-After
// hint on overload statuses like the direct handlers do.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
