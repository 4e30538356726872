package main

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/ssta"
)

// characterize is the Table I path, run cold: a fresh flow with no
// extraction cache turns each netlist into a timing graph and a timing
// model. Set-up builds the large multiplier's graph on its own, so
// set-up time carries a second of graph build and grid PCA rather than
// milliseconds that host noise would swamp. The netlists are Table I's
// (generator seed 1) on every seed; the seed orders the modules within
// each round.
type characterize struct {
	flow     *ssta.Flow
	names    []string
	netlists []*circuit.Circuit
	mult     *circuit.Circuit

	// Outputs of the latest round, for the checks.
	graphs []*ssta.Graph
	plans  []*ssta.Plan
	models []*ssta.Model
	big    *ssta.Graph // the multiplier graph, held until the next set-up
	dim    int
	sizes  map[string][2]int // model edges/verts of the first round
}

// Table I modules without c5315 and c7552, which take about a minute each.
var characterizeModules = []string{"c432", "c880", "c1355", "c1908", "c2670", "c3540"}

func (c *characterize) setup(r *run, tr *tracer) (time.Duration, error) {
	start := time.Now()
	c.names, c.netlists = characterizeModules, nil
	width := 64
	if r.cfg.tiny {
		c.names, width = []string{"c432", "c880"}, 8
	}
	c.flow = ssta.DefaultFlow()
	c.flow.Cache = nil
	for _, name := range c.names {
		n, err := generate(tr, nil, name, 1)
		if err != nil {
			return 0, err
		}
		c.netlists = append(c.netlists, n)
	}
	var err error
	if c.mult, err = multiplier(tr, nil, width); err != nil {
		return 0, err
	}
	root := tr.start(nil, "ssta.graph")
	c.big, _, err = buildGraph(tr, root, c.flow, c.mult)
	root.end()
	if err != nil {
		return 0, err
	}
	c.dim = c.big.Space.Dim()
	c.graphs = make([]*ssta.Graph, len(c.names))
	c.plans = make([]*ssta.Plan, len(c.names))
	c.models = make([]*ssta.Model, len(c.names))
	if c.sizes == nil {
		c.sizes = map[string][2]int{}
	}
	return time.Since(start), nil
}

// round characterizes every module once.
func (c *characterize) round(r *run, tr *tracer) {
	for _, i := range r.rng.Perm(len(c.names)) {
		root := tr.start(nil, "ssta.characterize")
		t0 := time.Now()
		g, plan, err := buildGraph(tr, root, c.flow, c.netlists[i])
		var m *ssta.Model
		if err == nil {
			m, err = extract(tr, root, c.flow, g, ssta.ExtractOptions{})
		}
		if tr == nil && err == nil {
			r.addChar(c.names[i], time.Since(t0))
		}
		root.end()
		if !r.op(err) {
			continue
		}
		// Every round must yield a model of the same size. (Its delays can
		// differ in the last bits between extractions; see matchServer.)
		size := [2]int{m.Stats.EdgesModel, m.Stats.VertsModel}
		if prev, ok := c.sizes[c.names[i]]; ok && prev != size {
			r.op(fmt.Errorf("%s: model %v differs from the first round's %v", c.names[i], size, prev))
		}
		c.sizes[c.names[i]] = size
		c.graphs[i], c.plans[i], c.models[i] = g, plan, m
	}
}

func (c *characterize) loop(r *run, tr *tracer, budget time.Duration) loopStats {
	var rounds samples
	var last, total time.Duration
	start := time.Now()
	// Rounds take seconds: start another only while at least half of one
	// fits in the budget.
	for len(rounds) == 0 || time.Since(start)+last/2 < budget {
		t0 := time.Now()
		c.round(r, tr)
		last = time.Since(t0)
		total += last
		rounds.add(last)
	}
	return loopStats{
		latency: rounds,
		work:    float64(len(rounds) * len(c.names)),
		busy:    total,
		ops:     len(rounds),
		what:    "characterization rounds",
	}
}

func (c *characterize) finish(r *run, tr *tracer) {
	apSamples, mdSamples := mcSamples(r.cfg.tiny)
	var pe, merr, verr float64
	var edges, verts, screened int64
	quad := -1
	for i, name := range c.names {
		g, m := c.graphs[i], c.models[i]
		if g == nil || m == nil {
			continue
		}
		if d, err := maxDelay(tr, nil, g); r.op(err) {
			r.checkPins(name, d.Mean(), d.Std())
		}
		pe += 100 * m.Stats.PE() / float64(len(c.names))
		edges += int64(m.Stats.EdgesModel)
		verts += int64(m.Stats.VertsModel)
		me, ve, err := modelErrors(tr, nil, g, m, apSamples)
		if r.op(err) {
			merr, verr = max(merr, 100*me), max(verr, 100*ve)
		}
		if tr != nil {
			n, err := criticality(tr, nil, g)
			if r.op(err) {
				screened += n
			}
		}
		if name == "c1355" || quad < 0 {
			quad = i
		}
	}
	r.set("model_edge_pct", pe)
	r.set("merr_max_pct", merr)
	r.set("verr_max_pct", verr)
	r.set("core.model_edges", float64(edges))
	r.set("core.model_verts", float64(verts))
	r.set("core.screened_boundaries", float64(screened))
	r.set("canon.dim", float64(c.dim))
	if quad >= 0 {
		d, err := quadOf(c.flow, c.names[quad], c.graphs[quad], c.plans[quad], c.models[quad])
		if r.op(err) {
			if ks, err := quadCheck(r, tr, d, mdSamples); r.op(err) {
				r.set("fig7_ks", ks)
			}
		}
	}
	accuracyGates(r)
	servingCheck(r, tr)
}

func (c *characterize) close() {
	c.flow, c.netlists, c.mult, c.big = nil, nil, nil, nil
	c.graphs, c.plans, c.models = nil, nil, nil
}

// quadCheck analyzes a four-instance design cold, warm and global-only,
// checks that the warm analysis equals the cold one, and returns the
// design's KS distance against Monte Carlo.
func quadCheck(r *run, tr *tracer, d *ssta.Design, mdSamples int) (float64, error) {
	cold, err := analyzeDesign(tr, nil, d, ssta.FullCorrelation, true)
	if err != nil {
		return 0, err
	}
	warm, err := analyzeDesign(tr, nil, d, ssta.FullCorrelation, false)
	if err != nil {
		return 0, err
	}
	r.sameForm(d.Name+" warm vs cold", warm, cold)
	if _, err := analyzeDesign(tr, nil, d, ssta.GlobalOnly, false); err != nil {
		return 0, err
	}
	return designKS(tr, nil, d, warm, mdSamples)
}

// accuracyGates fails the run when the accuracy metrics leave the range
// the paper's method stays in by a wide margin (Table I reports maxima
// near 1%, Fig. 7 a KS distance near 0.04). Smoke runs use too few Monte
// Carlo samples for these bounds and skip them.
func accuracyGates(r *run) {
	if r.cfg.tiny {
		return
	}
	for _, g := range []struct {
		name  string
		limit float64
	}{{"merr_max_pct", 5}, {"verr_max_pct", 10}, {"fig7_ks", 0.15}} {
		if v := r.vals[g.name]; v > g.limit {
			r.op(fmt.Errorf("%s = %.4g exceeds the sanity bound %g", g.name, v, g.limit))
		} else {
			r.op(nil)
		}
	}
}
