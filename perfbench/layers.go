package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/mc"
	"repro/internal/place"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/variation"
	"repro/ssta"
)

// This file holds the benchmark's calls into the program's layers. Each
// call opens a span named <module>.<call> when the run is traced; untraced
// runs make the same calls through the public entry points.

// Reference pins of the default flow at generator seed 1 (mean, std in ps).
var refPins = []struct {
	bench     string
	mean, std float64
}{
	{"c432", 512.72, 72.15},
	{"c880", 713.99, 99.00},
}

// The Monte Carlo oracles run at a fixed seed and sample counts, so the
// accuracy metrics depend only on the models.
const mcSeed = 1

func mcSamples(tiny bool) (allPairs, maxDelay int) {
	if tiny {
		return 100, 400
	}
	return 2000, 10000
}

func generate(tr *tracer, parent *span, name string, seed int64) (*circuit.Circuit, error) {
	spec, ok := circuit.SpecByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	s := tr.start(parent, "circuit.generate")
	defer s.end()
	return circuit.Generate(spec, seed)
}

func multiplier(tr *tracer, parent *span, width int) (*circuit.Circuit, error) {
	s := tr.start(parent, "circuit.generate")
	defer s.end()
	return circuit.ArrayMultiplier(width)
}

// buildGraph is ssta.Flow.Graph. Traced runs call its three layers
// (placement, grid PCA, graph build) one by one so each gets a span.
func buildGraph(tr *tracer, parent *span, flow *ssta.Flow, c *circuit.Circuit) (*ssta.Graph, *ssta.Plan, error) {
	if tr == nil {
		return flow.Graph(c)
	}
	s := tr.start(parent, "place.topological")
	plan, err := place.Topological(c, flow.Pitch)
	s.end()
	if err != nil {
		return nil, nil, err
	}
	s = tr.start(parent, "variation.grid_model")
	gm, err := variation.NewGridModel(plan.NX, plan.NY, plan.Pitch, flow.Corr)
	s.end()
	if err != nil {
		return nil, nil, err
	}
	s = tr.start(parent, "timing.build")
	g, err := timing.Build(c, flow.Lib, plan, gm)
	s.end()
	return g, plan, err
}

func extract(tr *tracer, parent *span, flow *ssta.Flow, g *ssta.Graph, opt ssta.ExtractOptions) (*ssta.Model, error) {
	s := tr.start(parent, "core.extract")
	defer s.end()
	return flow.Extract(g, opt)
}

// criticality runs the criticality engine as a default extraction does
// (screened at the paper's threshold) and returns the screened-boundary
// count. Only traced runs call it: untraced runs reach it inside
// Flow.Extract.
func criticality(tr *tracer, parent *span, g *ssta.Graph) (int64, error) {
	s := tr.start(parent, "core.criticality")
	defer s.end()
	res, err := ssta.EdgeCriticalitiesOpt(context.Background(), g, ssta.CriticalityOptions{ScreenDelta: core.DefaultDelta})
	if err != nil {
		return 0, err
	}
	return res.ScreenedBoundaries, nil
}

func maxDelay(tr *tracer, parent *span, g *ssta.Graph) (*ssta.Form, error) {
	s := tr.start(parent, "timing.propagate")
	defer s.end()
	return g.MaxDelay()
}

// analyzeDesign is Design.AnalyzeOpt on one worker. Traced runs split it
// into the stitch (with the prep cache on or off) and the propagation on
// the stitched top graph.
func analyzeDesign(tr *tracer, parent *span, d *ssta.Design, mode ssta.Mode, cold bool) (*ssta.Form, error) {
	opt := ssta.AnalyzeOptions{Workers: 1, DisableCache: cold}
	if tr == nil {
		res, err := d.AnalyzeOpt(mode, opt)
		if err != nil {
			return nil, err
		}
		return res.Delay, nil
	}
	name := "hier.stitch_warm"
	switch {
	case cold:
		name = "hier.stitch_cold"
	case mode == ssta.GlobalOnly:
		name = "hier.stitch_global"
	}
	s := tr.start(parent, name)
	res, err := d.Stitch(context.Background(), mode, opt)
	s.end()
	if err != nil {
		return nil, err
	}
	return maxDelay(tr, parent, res.Graph)
}

// modelErrors is Table I's merr/verr: the largest relative error of the
// model's input-output delay means and stds against Monte Carlo on the
// original graph.
func modelErrors(tr *tracer, parent *span, g *ssta.Graph, m *ssta.Model, samples int) (merr, verr float64, err error) {
	s := tr.start(parent, "mc.all_pairs")
	ref, err := mc.AllPairsStats(g, mc.Config{Samples: samples, Seed: mcSeed})
	s.end()
	if err != nil {
		return 0, 0, err
	}
	ap, err := m.Graph.AllPairsDelays(0)
	if err != nil {
		return 0, 0, err
	}
	for i := range ap.M {
		for j, f := range ap.M[i] {
			if f == nil || !ref.Reachable[i][j] {
				continue
			}
			merr = math.Max(merr, math.Abs(f.Mean()-ref.Mean[i][j])/ref.Mean[i][j])
			if ref.Std[i][j] > 0 {
				verr = math.Max(verr, math.Abs(f.Std()-ref.Std[i][j])/ref.Std[i][j])
			}
		}
	}
	return merr, verr, nil
}

// designKS is Fig. 7's distance: the KS statistic of the proposed
// hierarchical delay CDF against Monte Carlo on the flattened design.
func designKS(tr *tracer, parent *span, d *ssta.Design, delay *ssta.Form, samples int) (float64, error) {
	s := tr.start(parent, "hier.flatten")
	flat, _, err := d.Flatten()
	s.end()
	if err != nil {
		return 0, err
	}
	s = tr.start(parent, "mc.max_delay_samples")
	xs, err := mc.MaxDelaySamples(flat, mc.Config{Samples: samples, Seed: mcSeed})
	s.end()
	if err != nil {
		return 0, err
	}
	ecdf, err := stats.NewECDF(xs)
	if err != nil {
		return 0, err
	}
	return ecdf.KSAgainst(delay.CDF), nil
}

// quadOf builds the paper's four-instance design around one module.
func quadOf(flow *ssta.Flow, name string, g *ssta.Graph, plan *ssta.Plan, m *ssta.Model) (*ssta.Design, error) {
	mod, err := hier.NewModule(name, m, plan)
	if err != nil {
		return nil, err
	}
	mod.Orig = g
	return flow.QuadDesign("quad-"+name, mod)
}

// sweep runs one scenario sweep under a scenario.sweep span and returns
// its wall time. Traced runs also note the sweep's allocation and
// per-scenario times for the scenario layer's metrics.
func sweep(r *run, tr *tracer, fn func() (*ssta.SweepReport, error)) (*ssta.SweepReport, time.Duration, error) {
	var gc gcCounters
	if tr != nil {
		gc = readGC()
	}
	s := tr.start(nil, "scenario.sweep")
	t0 := time.Now()
	rep, err := fn()
	elapsed := time.Since(t0)
	s.end()
	if tr != nil && err == nil {
		mb, _ := gc.since()
		r.noteSweep(tr.phase.Load().(string), rep, mb)
	}
	return rep, elapsed, err
}
