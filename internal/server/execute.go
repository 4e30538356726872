package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/scenario"
	"repro/internal/timing"
	"repro/ssta"
)

// This file is the one execution path of the serving layer. Every analysis
// a request asks for — a /v1/analyze or job item, a /v1/sweep (direct,
// streamed or micro-batched), a coordinator's shard RPC — becomes an
// execution: one subject plus the seats it answers. A plain analyze is the
// subject's identity scenario, so the shared-prep sweep engine answers
// every seat, with model extraction as an optional stage beside it;
// admission, failure classification and metrics live here once.

// execution is one subject and the seats it answers.
type execution struct {
	subject ItemSpec
	seats   []*seat
	// workers bounds the scenarios propagating concurrently (<=0: server
	// default); itemWorkers bounds the goroutines of a design subject's
	// stitch (<=0: engine default).
	workers, itemWorkers int
	// extract adds the extraction stage: the flat subject's timing model,
	// through the shared extraction cache, lands in model.
	extract bool
	model   *ssta.Model
}

// seat is one caller's share of an execution: an analyze item's identity
// scenario (specs nil) or a sweep's scenario list. run fills the outcome
// fields; a caller reads them only once execute (or the batcher) returned.
type seat struct {
	name  string // caller's label; "" takes the subject's own name
	specs []SweepScenarioSpec
	topK  int
	// onScenario, when set, receives each of the seat's scenario results
	// (seat-local index and name) as it lands — the SSE and shard-stream
	// hook. It runs on sweep worker goroutines.
	onScenario func(k int, r *ssta.ScenarioResult)

	err   error             // seat-level failure; rep is then nil
	rep   *ssta.SweepReport // the seat's scenarios, in its order and names
	union []int             // seat scenario k -> sweep index
}

// seatRef names one seat scenario.
type seatRef struct {
	st *seat
	k  int
}

// identity is the scenario an analyze seat contributes: the zero
// transform, evaluated over the shared base bank — numerically the plain
// analysis of the subject.
var identity = []SweepScenarioSpec{{}}

func (st *seat) scenarios() []SweepScenarioSpec {
	if st.specs == nil {
		return identity
	}
	return st.specs
}

// isItem reports whether the seat is an analyze item rather than a sweep.
func (st *seat) isItem() bool { return st.specs == nil }

// scenarioName is the display name of scenario k: its own, or the
// engine's positional default.
func scenarioName(specs []SweepScenarioSpec, k int) string {
	if specs[k].Name != "" {
		return specs[k].Name
	}
	return fmt.Sprintf("scenario-%d", k)
}

// errNoSlot marks an admission failure: every analysis slot stayed busy
// for as long as the caller could wait.
var errNoSlot = errors.New("no analysis slot")

// panicError is a panic recovered from an execution.
type panicError struct{ value any }

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// statusOf classifies an execution failure: no slot is 429, a panic 500, a
// deadline or cancellation 408, anything else (a bad subject, scenario or
// combination) 400.
func statusOf(err error) int {
	var pe *panicError
	switch {
	case errors.Is(err, errNoSlot):
		return http.StatusTooManyRequests
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	case isCut(err):
		return http.StatusRequestTimeout
	}
	return http.StatusBadRequest
}

// isCut reports whether err is a cancellation or an expired deadline.
func isCut(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// failure renders an execution failure as its status and JSON body.
func failure(err error) (int, []byte) {
	status := statusOf(err)
	return status, errorBody(status, err.Error())
}

// admit takes an analysis slot under ctx. A synchronous caller gives up
// at half its remaining deadline, so an overloaded server sheds load (429)
// instead of queueing work that would blow its deadline anyway; job
// workers, shard RPCs and sessions own their turn and wait on ctx alone.
// A refusal is counted here, once per call.
func (s *Server) admit(ctx context.Context, sync bool) error {
	wait := ctx
	if dl, ok := ctx.Deadline(); ok && sync {
		var cancel context.CancelFunc
		wait, cancel = context.WithTimeout(ctx, time.Until(dl)/2)
		defer cancel()
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-wait.Done():
		s.metrics.rejected.Add(1)
		return fmt.Errorf("%w: %w", errNoSlot, wait.Err())
	}
}

func (s *Server) releaseSlot() { <-s.sem }

// execute answers every seat of the executions under ONE analysis slot,
// running up to workers executions at once. Its only error is the
// admission failure; every other outcome lands in the seats.
func (s *Server) execute(ctx context.Context, sync bool, workers int, execs ...*execution) error {
	if err := s.admit(ctx, sync); err != nil {
		return err
	}
	defer s.releaseSlot()
	// run recovers its own panics, so the pool never sees one.
	_ = timing.ParallelFor(len(execs), workers, func(i int) error {
		s.run(ctx, execs[i])
		return nil
	})
	return nil
}

// executeSync is execute for a synchronous request: with batching on, a
// lone execution whose subject can share a group waits in the
// micro-batcher for compatible seats instead.
func (s *Server) executeSync(ctx context.Context, workers int, execs ...*execution) error {
	if s.batch != nil && len(execs) == 1 {
		if key, ok := batchKeyOf(execs[0]); ok {
			return s.batch.do(ctx, key, execs[0])
		}
	}
	return s.execute(ctx, true, workers, execs...)
}

// run answers one execution's seats: resolve the subject once, convert
// and validate each seat's scenarios, run the optional extraction stage
// and one shared-prep sweep over the live seats' scenario union through
// the cluster seam, and split the report per seat. A panic fails the
// unanswered seats instead of killing the process; every seat is counted
// exactly once on the way out.
func (s *Server) run(ctx context.Context, ex *execution) {
	var resolved time.Time // when the subject resolved: items time from there
	defer func() {
		if r := recover(); r != nil {
			for _, st := range ex.seats {
				if st.rep == nil && st.err == nil {
					st.err = &panicError{value: r}
				}
			}
		}
		for _, st := range ex.seats {
			s.settle(st, resolved)
		}
	}()
	fail := func(err error) {
		for _, st := range ex.seats {
			if st.err == nil {
				st.err = err
			}
		}
	}

	err := ctx.Err() // an execution past its deadline resolves nothing
	var sub *subject
	if err == nil {
		sub, err = s.resolve(ctx, &ex.subject)
	}
	if err != nil {
		fail(err)
		return
	}
	resolved = time.Now()

	// The union of the live seats' scenarios, deduplicated by transform:
	// seats naming the same knobs differently share one evaluation, which
	// runs under its first seat's name. A scenario that fails to convert
	// or validate fails only its own seat.
	var specs []SweepScenarioSpec
	var scens []ssta.Scenario
	var users [][]seatRef // sweep index -> the seat scenarios it answers
	hooked := false
	index := make(map[Fingerprint]int)
	total := 0
	for _, st := range ex.seats {
		if st.name == "" {
			st.name = sub.name
		}
		own := st.scenarios()
		named := make([]SweepScenarioSpec, len(own))
		conv := make([]ssta.Scenario, len(own))
		for k := range own {
			named[k] = own[k]
			named[k].Name = scenarioName(own, k)
			sc, err := s.convertScenario(ctx, &named[k], sub.design != nil)
			if err == nil {
				err = sc.Validate()
			}
			if err != nil {
				st.err = fmt.Errorf("scenario %d: %w", k, err)
				break
			}
			conv[k] = sc
		}
		if st.err != nil {
			continue
		}
		st.union = make([]int, len(own))
		for k := range own {
			fp := ScenarioFingerprint(&own[k])
			u, ok := index[fp]
			if !ok {
				u = len(specs)
				index[fp] = u
				specs = append(specs, named[k])
				scens = append(scens, conv[k])
				users = append(users, nil)
			}
			st.union[k] = u
			users[u] = append(users[u], seatRef{st, k})
		}
		total += len(own)
		hooked = hooked || st.onScenario != nil
	}
	s.metrics.scenariosDeduped.Add(int64(total - len(specs)))
	if len(specs) == 0 {
		return // every seat failed on its scenarios
	}

	// Extraction applies to flat subjects only; a quad's modules are
	// extracted models already.
	if ex.extract && sub.graph != nil {
		if ex.model, err = s.extractModel(ctx, sub.key, sub.graph); err != nil {
			fail(fmt.Errorf("extract: %w", err))
			return
		}
	}

	workers := ex.workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	opt := ssta.SweepOptions{Workers: workers, Analyze: ssta.AnalyzeOptions{Workers: ex.itemWorkers}}
	if hooked {
		opt.OnScenarioDone = func(i int, r *ssta.ScenarioResult) {
			for _, ref := range users[i] {
				if ref.st.onScenario != nil {
					rk := *r
					rk.Name = scenarioName(ref.st.scenarios(), ref.k)
					ref.st.onScenario(ref.k, &rk)
				}
			}
		}
	}
	rep, err := s.runSweep(ctx, sub, specs, scens, opt)
	if err != nil {
		fail(err)
		return
	}
	elapsed := time.Since(resolved)

	// Split the shared report back per seat: seat-local names and order,
	// and an envelope and divergence ranking over exactly the seat's
	// scenarios, so every seat reads as if it had run alone.
	for _, st := range ex.seats {
		if st.err != nil {
			continue
		}
		own := st.scenarios()
		results := make([]ssta.ScenarioResult, len(own))
		for k, u := range st.union {
			results[k] = rep.Results[u]
			results[k].Name = scenarioName(own, k)
		}
		st.rep = scenario.NewReport(results, scenario.Options{TopK: st.topK})
		st.rep.Top, st.rep.TopVerts, st.rep.TopEdges = rep.Top, rep.TopVerts, rep.TopEdges
		st.rep.Elapsed = elapsed
	}
}

// settle counts one seat's outcome: an analyze seat as an item, a sweep
// seat as its scenarios. Scenarios and items cut by a deadline are
// rejections, not latency samples — a deadline burst must not drag the
// reported mean toward zero. An analyze item whose subject never resolved
// (resolved is zero) is a rejected item, as its request still answers
// 200; one that fails after — extraction, the sweep itself, a panic — is a
// failed item. A sweep seat that failed as a whole counts by its status.
func (s *Server) settle(st *seat, resolved time.Time) {
	m := s.metrics
	if st.err != nil {
		switch status := statusOf(st.err); {
		case status == http.StatusRequestTimeout,
			st.isItem() && resolved.IsZero():
			m.itemsRejected.Add(1)
		case st.isItem():
			m.observeItem(time.Since(resolved), true)
		case status == http.StatusInternalServerError:
			m.internalErrors.Add(1)
		default:
			m.badRequests.Add(1)
		}
		return
	}
	for i := range st.rep.Results {
		r := &st.rep.Results[i]
		switch {
		case !st.isItem():
			m.observeScenario(i, r)
		case isCut(r.Err):
			m.itemsRejected.Add(1)
		default:
			m.observeItem(st.rep.Elapsed, r.Err != nil)
		}
	}
}

// itemResult renders an analyze execution's one seat as its wire item.
func (ex *execution) itemResult() ItemResult {
	st := ex.seats[0]
	out := ItemResult{Name: st.name}
	if st.err != nil {
		out.Error = st.err.Error()
		return out
	}
	r := &st.rep.Results[0]
	out.ElapsedMS = millis(st.rep.Elapsed)
	if r.Err != nil {
		out.Error = r.Err.Error()
		return out
	}
	out.MeanPS, out.StdPS, out.P9987PS = r.Mean, r.Std, r.Quantile
	// Scalar graph stats: they survive distributed execution, where the
	// worker-side graph never crosses the wire.
	out.Verts, out.Edges = st.rep.TopVerts, st.rep.TopEdges
	if ex.model != nil && ex.model.Graph != nil {
		out.ModelVerts = ex.model.Graph.NumVerts
		out.ModelEdges = len(ex.model.Graph.Edges)
	}
	out.Setup = slackViewOfStat(r.SetupSlack)
	out.Hold = slackViewOfStat(r.HoldSlack)
	return out
}

func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
