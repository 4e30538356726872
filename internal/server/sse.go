package server

import (
	"context"
	"net/http"
	"strings"

	"repro/ssta"
)

// Server-sent-events delivery: a client that asks for
// `Accept: text/event-stream` on POST /v1/sweep or POST
// /v1/sessions/{id}/edits gets per-scenario progress as the engine
// finishes each scenario, then one final summary that is byte-identical
// (modulo SSE framing) to the synchronous JSON answer.
//
// Streaming requests are never coalesced or micro-batched: the stream is
// the caller's private progress channel, so sharing an execution would
// interleave foreign event orders. Validation and admission errors raised
// before the first event still travel as plain JSON status codes; once the
// stream is open, failures arrive as an `error` event.
//
// Shutdown ordering: every live stream registers in Server.streamWG and
// ties its context to the server's base context, so SIGTERM cancels the
// in-flight sweep (per-scenario cancellation errors stream out), the
// handler emits its final event and returns, and Close drains streamWG
// before the durable store's final flush — no stream outlives persistence.

// wantsEventStream reports whether the client negotiated SSE delivery.
func wantsEventStream(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// SweepScenarioEvent is the payload of one `scenario` SSE event: the
// finished scenario's result plus its index in the request's scenario list
// (events arrive in completion order, not request order).
type SweepScenarioEvent struct {
	Index int `json:"index"`
	SweepScenarioResult
}

// sseWriter frames events onto a flushable response.
type sseWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
}

// start switches the response to an event stream. Must be called before
// any event; once called, status codes can no longer change.
func (e *sseWriter) start() {
	h := e.w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	e.w.WriteHeader(http.StatusOK)
	e.fl.Flush()
}

// event frames one named event. The payload is the same encoder as the
// synchronous JSON path (marshalJSON), so a summary event's data line is
// byte-identical to the sync response body.
func (e *sseWriter) event(name string, v any) {
	body := marshalJSON(v)
	// marshalJSON ends with exactly one newline and (compact encoding)
	// contains none internally, so a single data line frames it.
	e.w.Write([]byte("event: " + name + "\ndata: "))
	e.w.Write(body)
	e.w.Write([]byte("\n"))
	e.fl.Flush()
}

// eventError frames a failure that happened after the stream opened, with
// the same body shape httpError would have sent.
func (e *sseWriter) eventError(status int, msg string) {
	e.w.Write([]byte("event: error\ndata: "))
	e.w.Write(errorBody(status, msg))
	e.w.Write([]byte("\n"))
	e.fl.Flush()
}

// trackStream registers a live stream for shutdown draining and ties ctx
// to the server's base context so SIGTERM cancels in-flight work. The
// returned release must be deferred.
func (s *Server) trackStream(cancel context.CancelFunc) (release func()) {
	s.streamWG.Add(1)
	s.metrics.streaming.Add(1)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return func() {
		stop()
		s.metrics.streaming.Add(-1)
		s.streamWG.Done()
	}
}

// streamSweep is the SSE arm of POST /v1/sweep: one `scenario` event per
// finished scenario (completion order), then one `summary` event carrying
// the exact synchronous SweepResponse.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, fl http.Flusher, req *SweepRequest, specs []SweepScenarioSpec) {
	ctx, cancel := s.requestCtx(r.Context(), req.TimeoutMS)
	defer cancel()
	release := s.trackStream(cancel)
	defer release()

	// The seat's hook runs on sweep worker goroutines; the response writer
	// is not concurrency-safe, so events cross a channel sized to the
	// scenario count — the hook can never block on a slow client.
	events := make(chan SweepScenarioEvent, len(specs))
	st := &seat{name: req.Name, specs: specs, topK: req.TopK,
		onScenario: func(k int, res *ssta.ScenarioResult) {
			events <- SweepScenarioEvent{Index: k, SweepScenarioResult: sweepScenarioView(res)}
		}}
	var err error
	go func() {
		defer close(events)
		if err = s.execute(ctx, true, 1, sweepExecution(req, st)); err == nil {
			err = st.err
		}
	}()

	// The stream opens with the first event, so admission and validation
	// failures — raised before any scenario runs — keep real status codes.
	var sse *sseWriter
	for ev := range events {
		if sse == nil {
			sse = &sseWriter{w: w, fl: fl}
			sse.start()
		}
		sse.event("scenario", ev)
	}
	switch {
	case sse == nil: // failed before any scenario ran
		status, body := failure(err)
		writeRaw(w, status, body)
	case err != nil:
		sse.eventError(statusOf(err), err.Error())
	default:
		sse.event("summary", sweepResponseView(st.name, st.rep, millis(st.rep.Elapsed)))
	}
}
