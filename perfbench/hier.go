package main

import (
	"context"
	"fmt"
	"time"

	"repro/ssta"
)

// hierWorkload is the Fig. 7 path: the paper's quad of 16x16 array
// multipliers, analyzed from extracted models by one caller in a closed
// loop of cold and warm analyses, sweeps and module-swap ECO edits. The
// seed orders the operations, draws the sweep scenarios and picks the
// swapped instances.
type hierWorkload struct {
	flow       *ssta.Flow
	g          *ssta.Graph
	m05, m20   *ssta.Model
	modA, modB *ssta.Module
	d          *ssta.Design
	sess       *ssta.Session
	full, glob *ssta.Form // warm analyses of the unedited design
	dim        int
}

func (h *hierWorkload) setup(r *run, tr *tracer) (time.Duration, error) {
	start := time.Now()
	width, name := 16, "mult16"
	if r.cfg.tiny {
		width, name = 4, "mult4"
	}
	h.flow = ssta.DefaultFlow()
	h.flow.Cache = nil
	ckt, err := multiplier(tr, nil, width)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	g, plan, err := buildGraph(tr, nil, h.flow, ckt)
	if err != nil {
		return 0, err
	}
	r.addChar(name+" graph", time.Since(t0))
	var models [2]*ssta.Model
	for i, delta := range []float64{0.05, 0.20} {
		t0 = time.Now()
		if models[i], err = extract(tr, nil, h.flow, g, ssta.ExtractOptions{Delta: delta}); err != nil {
			return 0, err
		}
		r.addChar(fmt.Sprintf("%s extract delta=%.2f", name, delta), time.Since(t0))
	}
	h.m05, h.m20 = models[0], models[1]
	h.g = g
	if h.modA, err = ssta.NewModule(name, h.m05, plan); err != nil {
		return 0, err
	}
	if h.modB, err = ssta.NewModule(name, h.m20, plan); err != nil {
		return 0, err
	}
	h.modA.Orig, h.modB.Orig = g, g
	if h.d, err = h.flow.QuadDesign("quad-"+name, h.modA); err != nil {
		return 0, err
	}
	res, err := h.d.AnalyzeOpt(ssta.FullCorrelation, ssta.AnalyzeOptions{Workers: 1})
	if err != nil {
		return 0, err
	}
	h.full, h.dim = res.Delay, res.Space.Dim()
	if res, err = h.d.AnalyzeOpt(ssta.GlobalOnly, ssta.AnalyzeOptions{Workers: 1}); err != nil {
		return 0, err
	}
	h.glob = res.Delay
	h.sess, err = h.flow.NewDesignSession(context.Background(), h.d, ssta.FullCorrelation, ssta.AnalyzeOptions{Workers: 1})
	if err != nil {
		return 0, err
	}
	r.sameForm("session vs analyze", h.sess.Delay(), h.full)
	return time.Since(start), nil
}

// Operation kinds of one hier round.
const (
	opCold = iota
	opWarm
	opGlobal
	opSweep
	opSwap
)

// hierRound is the operation mix of one round: one cold analysis, four
// warm ones, two global-only ones, one 16-scenario sweep and a pair of
// module swaps that returns the session to its original design.
var hierRound = []int{opCold, opWarm, opWarm, opWarm, opWarm, opGlobal, opGlobal, opSweep, opSwap, opSwap}

// sweepScenarios draws 16 scenarios: the identity first, then derate and
// sigma knobs.
func sweepScenarios(r *run) []ssta.Scenario {
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*r.rng.Float64() }
	scens := []ssta.Scenario{{Name: "base"}}
	for i := 1; i < 16; i++ {
		sc := ssta.Scenario{Name: fmt.Sprintf("s%d", i), Derate: u(0.9, 1.15)}
		switch i % 3 {
		case 0:
			sc.GlobSigma = u(0.8, 1.4)
		case 1:
			sc.LocSigma = u(0.8, 1.4)
		default:
			sc.RandSigma = u(0.8, 1.4)
		}
		scens = append(scens, sc)
	}
	return scens
}

func (h *hierWorkload) loop(r *run, tr *tracer, budget time.Duration) loopStats {
	ctx := context.Background()
	var warm, sweeps samples
	var scenarios int
	insts := []string{"A", "B", "C", "D"}
	start := time.Now()
	for time.Since(start) < budget {
		order := r.rng.Perm(len(hierRound))
		inst, swapped := insts[r.rng.Intn(len(insts))], false
		for _, k := range order {
			switch op := hierRound[k]; op {
			case opCold, opWarm, opGlobal:
				mode, want, name := ssta.FullCorrelation, h.full, "hier.analyze"
				if op == opGlobal {
					mode, want, name = ssta.GlobalOnly, h.glob, "hier.analyze_global"
				}
				root := tr.start(nil, name)
				t0 := time.Now()
				got, err := analyzeDesign(tr, root, h.d, mode, op == opCold)
				root.end()
				if !r.op(err) {
					continue
				}
				if op == opWarm {
					warm.add(time.Since(t0))
				}
				r.sameForm("analysis", got, want)
			case opSweep:
				scens := sweepScenarios(r)
				rep, elapsed, err := sweep(r, tr, func() (*ssta.SweepReport, error) {
					return ssta.SweepAnalyze(ctx, h.d, ssta.FullCorrelation, scens,
						ssta.SweepOptions{Workers: 1, Analyze: ssta.AnalyzeOptions{Workers: 1}})
				})
				if !r.op(err) {
					continue
				}
				scenarios += rep.Completed
				sweeps.add(elapsed)
				if rep.Completed != len(scens) {
					r.op(fmt.Errorf("sweep completed %d of %d scenarios", rep.Completed, len(scens)))
				}
				r.same("sweep identity scenario mean", rep.Results[0].Mean, h.full.Mean())
				r.same("sweep identity scenario std", rep.Results[0].Std, h.full.Std())
			case opSwap:
				mod := h.modB
				if swapped {
					mod = h.modA
				}
				s := tr.start(nil, "ssta.session_apply")
				rep, err := h.sess.Apply(ctx, []ssta.Edit{{Op: ssta.EditSwapModule, Instance: inst, Module: mod}})
				s.end()
				if !r.op(err) {
					continue
				}
				if swapped {
					// Swapped back: the session must match a fresh analysis.
					r.sameForm("swap and swap back", rep.Delay, h.full)
				}
				swapped = !swapped
			}
		}
	}
	// Throughput counts each sweep at the median sweep time, so a sweep
	// that a garbage collection or a neighbour on the host stalled does
	// not set it.
	return loopStats{
		latency: warm,
		work:    float64(scenarios),
		busy:    time.Duration(sweeps.median() * float64(len(sweeps)) * 1e6),
		ops:     len(warm),
		what:    "warm FullCorrelation analyses",
	}
}

func (h *hierWorkload) finish(r *run, tr *tracer) {
	apSamples, mdSamples := mcSamples(r.cfg.tiny)
	if ks, err := quadCheck(r, tr, h.d, mdSamples); r.op(err) {
		r.set("fig7_ks", ks)
	}
	if me, ve, err := modelErrors(tr, nil, h.g, h.m05, apSamples); r.op(err) {
		r.set("merr_max_pct", 100*me)
		r.set("verr_max_pct", 100*ve)
	}
	if tr != nil {
		if n, err := criticality(tr, nil, h.g); r.op(err) {
			r.set("core.screened_boundaries", float64(n))
		}
	}
	r.set("model_edge_pct", 100*h.m05.Stats.PE())
	r.set("core.model_edges", float64(h.m05.Stats.EdgesModel))
	r.set("core.model_verts", float64(h.m05.Stats.VertsModel))
	r.set("canon.dim", float64(h.dim))
	accuracyGates(r)
	servingCheck(r, tr)
}

func (h *hierWorkload) close() {
	*h = hierWorkload{}
}
