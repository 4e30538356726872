package server

import (
	"context"
	"fmt"
	"net/http"

	"repro/ssta"
)

// This file is the MCMM surface of the daemon: POST /v1/sweep evaluates
// many scenarios against one item with shared prep (one graph build or one
// design partition/PCA/stitch, then one propagation per scenario that
// rescales the shared edge delays as it gathers them). The sweep is one execution (see execute.go) holding
// one analysis slot, like any other analysis; per-scenario failures —
// including a deadline firing mid-sweep — land in the per-scenario
// results, so the response always accounts for every scenario.

// SweepRequest is the body of POST /v1/sweep: one item (same vocabulary as
// /v1/analyze — exactly one of bench, netlist, mult, quad) plus the
// scenario list. An absent/empty scenario list selects the server's
// default scenario set (sstad -scenarios), if one is configured.
type SweepRequest struct {
	ItemSpec
	Scenarios []SweepScenarioSpec `json:"scenarios,omitempty"`
	// Workers bounds how many scenarios propagate concurrently (<=0:
	// server default).
	Workers int `json:"workers,omitempty"`
	// TopK bounds the divergence ranking (<=0: 3).
	TopK int `json:"top_k,omitempty"`
	// TimeoutMS caps the whole sweep. Zero: server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepScenarioSpec is one scenario over the wire: the rescale knobs of
// scenario.Spec plus module swaps, which only the serving layer can
// materialize (through the shared graph and extraction caches).
type SweepScenarioSpec struct {
	ssta.ScenarioSpec
	// Swaps maps instance names to replacement modules for quad items;
	// each module is generated and extracted through the shared caches.
	Swaps map[string]SwapSpec `json:"swaps,omitempty"`
}

// SwapSpec names a replacement module by benchmark identity.
type SwapSpec struct {
	Bench string `json:"bench"`
	Seed  int64  `json:"seed,omitempty"`
}

// SweepScenarioResult is one scenario outcome on the wire. Setup/Hold carry
// the worst statistical setup/hold slack under the scenario's clock when the
// swept subject is sequential; absent on combinational sweeps.
type SweepScenarioResult struct {
	Name      string     `json:"name"`
	Error     string     `json:"error,omitempty"`
	MeanPS    float64    `json:"mean_ps,omitempty"`
	StdPS     float64    `json:"std_ps,omitempty"`
	P9987PS   float64    `json:"p9987_ps,omitempty"`
	Setup     *SlackView `json:"setup,omitempty"`
	Hold      *SlackView `json:"hold,omitempty"`
	Shared    bool       `json:"shared_prep"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// SweepEnvelopeView is the cross-scenario worst case on the wire.
type SweepEnvelopeView struct {
	MeanPS  float64 `json:"mean_ps"`
	StdPS   float64 `json:"std_ps"`
	P9987PS float64 `json:"p9987_ps"`
	Worst   string  `json:"worst"`
}

// DivergenceView is one divergence-ranking entry.
type DivergenceView struct {
	Name  string  `json:"name"`
	Score float64 `json:"score_ps"`
}

// SweepResponse is the body returned by /v1/sweep.
type SweepResponse struct {
	Name         string                `json:"name"`
	Results      []SweepScenarioResult `json:"results"`
	Envelope     SweepEnvelopeView     `json:"envelope"`
	TopDivergent []DivergenceView      `json:"top_divergent,omitempty"`
	// Scenarios and Completed are the sweep accounting: a deadline firing
	// mid-sweep yields Completed < Scenarios with the per-scenario errors
	// naming the cut.
	Scenarios int `json:"scenarios"`
	Completed int `json:"completed"`
	// Verts/Edges are the shared subject graph's size — scalar stats that
	// survive distributed execution, where the graph itself stays on the
	// workers (coordinator shards reassemble them from shard responses).
	Verts     int     `json:"verts,omitempty"`
	Edges     int     `json:"edges,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// convertScenario materializes one wire scenario, resolving swap modules
// through the shared graph and extraction caches.
func (s *Server) convertScenario(ctx context.Context, spec *SweepScenarioSpec, isQuad bool) (ssta.Scenario, error) {
	sc := spec.Scenario()
	if len(spec.Swaps) == 0 {
		return sc, nil
	}
	if !isQuad {
		return sc, fmt.Errorf("scenario %q: swaps apply to quad items only", spec.Name)
	}
	sc.Swaps = make(map[string]*ssta.Module, len(spec.Swaps))
	for inst, sw := range spec.Swaps {
		if sw.Bench == "" {
			return sc, fmt.Errorf("scenario %q: swap for instance %q needs a bench", spec.Name, inst)
		}
		gk := graphKey{bench: sw.Bench, seed: sw.Seed}
		g, plan, err := s.graphs.get(ctx, s.flow, gk)
		if err != nil {
			return sc, err
		}
		model, err := s.extractModel(ctx, gk, g)
		if err != nil {
			return sc, fmt.Errorf("scenario %q: extract %s: %w", spec.Name, sw.Bench, err)
		}
		mod, err := ssta.NewModule(sw.Bench, model, plan)
		if err != nil {
			return sc, err
		}
		sc.Swaps[inst] = mod
	}
	return sc, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := decodeJSONStrict(r, &req); err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return
	}
	specs := req.Scenarios
	if len(specs) == 0 {
		specs = s.cfg.DefaultScenarios
	}
	if len(specs) == 0 {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "request has no scenarios and the server has no default scenario set")
		return
	}
	if len(specs) > s.cfg.MaxItems {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("request has %d scenarios, limit %d", len(specs), s.cfg.MaxItems))
		return
	}
	s.metrics.sweepRequests.Add(1)
	if wantsEventStream(r) {
		// A transport that cannot flush incrementally gets the sync answer.
		if fl, ok := w.(http.Flusher); ok {
			s.streamSweep(w, r, fl, &req, specs)
			return
		}
	}
	fp := requestFingerprint("sweep",
		&AnalyzeRequest{Items: []ItemSpec{req.ItemSpec}, Workers: req.Workers, TimeoutMS: req.TimeoutMS},
		specs, req.TopK)
	s.serveCoalesced(w, r, "sweep", fp, req.TimeoutMS, func(ctx context.Context) (int, []byte) {
		st := &seat{name: req.Name, specs: specs, topK: req.TopK}
		err := s.executeSync(ctx, 1, sweepExecution(&req, st))
		if err == nil {
			err = st.err
		}
		if err != nil {
			return failure(err)
		}
		return http.StatusOK, marshalJSON(sweepResponseView(st.name, st.rep, millis(st.rep.Elapsed)))
	})
}

// sweepExecution is the execution of a sweep request answering one seat.
func sweepExecution(req *SweepRequest, st *seat) *execution {
	return &execution{subject: req.ItemSpec, seats: []*seat{st}, workers: req.Workers}
}

// sweepResponseView flattens a sweep report into the wire response — the
// one assembly every sweep answer (direct, batched, streamed, session)
// goes through.
func sweepResponseView(name string, rep *ssta.SweepReport, elapsedMS float64) *SweepResponse {
	resp := &SweepResponse{
		Name:      name,
		Results:   make([]SweepScenarioResult, len(rep.Results)),
		Scenarios: len(rep.Results),
		Completed: rep.Completed,
		Envelope: SweepEnvelopeView{
			MeanPS:  rep.Envelope.Mean,
			StdPS:   rep.Envelope.Std,
			P9987PS: rep.Envelope.Quantile,
			Worst:   rep.Envelope.Worst,
		},
		Verts:     rep.TopVerts,
		Edges:     rep.TopEdges,
		ElapsedMS: elapsedMS,
	}
	for i := range rep.Results {
		resp.Results[i] = sweepScenarioView(&rep.Results[i])
	}
	for _, dv := range rep.TopDivergent {
		resp.TopDivergent = append(resp.TopDivergent, DivergenceView{Name: dv.Name, Score: dv.Score})
	}
	return resp
}

// sweepScenarioView flattens one scenario result for the wire.
func sweepScenarioView(res *ssta.ScenarioResult) SweepScenarioResult {
	out := SweepScenarioResult{
		Name:      res.Name,
		Shared:    res.Shared,
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
	} else {
		out.MeanPS, out.StdPS, out.P9987PS = res.Mean, res.Std, res.Quantile
		out.Setup = slackViewOfStat(res.SetupSlack)
		out.Hold = slackViewOfStat(res.HoldSlack)
	}
	return out
}
