package timing

import (
	"errors"
	"fmt"

	"repro/internal/canon"
)

// This file computes statistical setup/hold slack for the registers of a
// sequential timing graph, following the register-to-register recipe of
// "Timing Model Extraction for Sequential Circuits Considering Process
// Variations" (arXiv 1705.04976): launch clock -> clk->Q arc -> combinational
// path -> D pin, checked against the capture edge one period later (setup)
// or the same edge (hold). Constraints, arrivals and slacks are all
// canonical forms, so the slack distributions stay correlated with the
// parameter space exactly like delays do.

// ClockSpec describes the clock a sequential analysis is run against. All
// values are picoseconds. Skew is the deterministic worst-case launch/capture
// edge separation: it tightens setup (the capture edge may come SkewPS early)
// and hold (the capture edge may come SkewPS late) symmetrically. Jitter is
// the 1-sigma cycle-to-cycle clock uncertainty; it enters the slack forms as
// an independent random contribution (RSS with the path randomness).
type ClockSpec struct {
	PeriodPS float64
	SkewPS   float64
	JitterPS float64
}

// DefaultClockPeriodPS is the clock period assumed when a sequential design
// is analyzed without an explicit clock — roughly 2 GHz, comfortable for the
// synthetic 90nm library's benchmark depths.
const DefaultClockPeriodPS = 500.0

// DefaultClock returns the clock used when none is specified.
func DefaultClock() ClockSpec { return ClockSpec{PeriodPS: DefaultClockPeriodPS} }

// normalize fills the default period and rejects negatives.
func (c ClockSpec) normalize() (ClockSpec, error) {
	if c.PeriodPS == 0 {
		c.PeriodPS = DefaultClockPeriodPS
	}
	if c.PeriodPS < 0 || c.SkewPS < 0 || c.JitterPS < 0 {
		return c, fmt.Errorf("timing: negative clock spec %+v", c)
	}
	return c, nil
}

// RegSlack holds one register's statistical slack forms. Setup is
// (T - skew) - setup - latestArrival(D) with clock jitter in the random
// part; Hold is earliestArrival(D) - hold - skew likewise. Negative slack
// mass is failure probability.
type RegSlack struct {
	Name  string
	Setup *canon.Form
	Hold  *canon.Form
}

// SeqResult is the sequential analysis of a graph under one clock.
type SeqResult struct {
	Clock ClockSpec
	Regs  []RegSlack
	// WorstSetup/WorstHold are the statistical minima of the per-register
	// slacks — the design-level setup and hold margins.
	WorstSetup *canon.Form
	WorstHold  *canon.Form
}

// SequentialSlacks computes per-register statistical setup and hold slack
// under the given clock, launching max and min arrival passes from the
// graph's launch sources (inputs and clock roots).
func (g *Graph) SequentialSlacks(clock ClockSpec) (*SeqResult, error) {
	return g.SequentialSlacksOver(nil, clock)
}

// SequentialSlacksOver is SequentialSlacks reading every edge delay through
// the given gather-time rescale — the scenario-sweep hook. A nil rescale
// uses the graph's own delays.
func (g *Graph) SequentialSlacksOver(rs *Rescale, clock ClockSpec) (*SeqResult, error) {
	if !g.Sequential() {
		return nil, errors.New("timing: graph has no registers")
	}
	clock, err := clock.normalize()
	if err != nil {
		return nil, err
	}
	sources := g.LaunchSources()

	late := g.AcquirePass().WithRescale(rs)
	defer late.Release()
	early := g.AcquirePass().WithRescale(rs)
	defer early.Release()
	if err := late.Arrivals(sources...); err != nil {
		return nil, err
	}
	if err := early.ArrivalsMin(sources...); err != nil {
		return nil, err
	}

	res := &SeqResult{Clock: clock, Regs: make([]RegSlack, 0, len(g.Registers))}
	setups := make([]*canon.Form, 0, len(g.Registers))
	holds := make([]*canon.Form, 0, len(g.Registers))
	for _, r := range g.Registers {
		if r.D < 0 || r.D >= g.NumVerts {
			return nil, fmt.Errorf("timing: register %q D vertex %d out of range", r.Name, r.D)
		}
		if !late.Reached(r.D) {
			// The D cone is cut off from every launch source (possible on
			// aggressively reduced models); the register is unconstrained.
			continue
		}
		arrMax := late.At(r.D).Form(g.Space)
		arrMin := early.At(r.D).Form(g.Space)

		// Setup: the data must beat the capture edge at T - skew by the
		// setup requirement. Jitter rides on the capture edge as an
		// independent random term (the Sub RSS-combines it with the path
		// and constraint randomness).
		capture := g.Space.NewForm()
		capture.Nominal = clock.PeriodPS - clock.SkewPS
		capture.Rand = clock.JitterPS
		setup := canon.Sub(capture, canon.Add(arrMax, r.Setup))

		// Hold: the earliest next-cycle data must stay beyond the hold
		// requirement after a capture edge that may arrive skew late.
		edge := g.Space.NewForm()
		edge.Nominal = clock.SkewPS
		edge.Rand = clock.JitterPS
		hold := canon.Sub(arrMin, canon.Add(edge, r.Hold))

		res.Regs = append(res.Regs, RegSlack{Name: r.Name, Setup: setup, Hold: hold})
		setups = append(setups, setup)
		holds = append(holds, hold)
	}
	if len(res.Regs) == 0 {
		return nil, errors.New("timing: no register D pin reachable from any launch source")
	}
	if res.WorstSetup, err = canon.MinAll(setups); err != nil {
		return nil, err
	}
	if res.WorstHold, err = canon.MinAll(holds); err != nil {
		return nil, err
	}
	return res, nil
}

// SegMatrix holds the register-to-register path segmentation of a sequential
// graph: M[i][j] is the maximum statistical combinational delay from launch
// point i to capture point j (nil when no path exists). Launch points are
// the registers' Q outputs (excluding the clk->Q arc) followed by the
// primary inputs; capture points are the registers' D pins followed by the
// primary outputs.
type SegMatrix struct {
	LaunchNames  []string
	CaptureNames []string
	M            [][]*canon.Form
}

// RegToReg computes the path segmentation matrix with one exclusive forward
// pass per launch point, fanned out over workers (<=0 means GOMAXPROCS) —
// the sequential analogue of AllPairsDelays.
func (g *Graph) RegToReg(workers int) (*SegMatrix, error) {
	if !g.Sequential() {
		return nil, errors.New("timing: graph has no registers")
	}
	if _, err := g.Order(); err != nil {
		return nil, err
	}
	g.EdgeDelays() // build the flat delay bank before fanning out

	launches := make([]int, 0, len(g.Registers)+len(g.Inputs))
	launchNames := make([]string, 0, cap(launches))
	for _, r := range g.Registers {
		if r.Q < 0 {
			continue // extracted-model register: Q vertex reduced away
		}
		launches = append(launches, r.Q)
		launchNames = append(launchNames, r.Name)
	}
	for i, in := range g.Inputs {
		launches = append(launches, in)
		launchNames = append(launchNames, g.InputNames[i])
	}
	captures := make([]int, 0, len(g.Registers)+len(g.Outputs))
	captureNames := make([]string, 0, cap(captures))
	for _, r := range g.Registers {
		captures = append(captures, r.D)
		captureNames = append(captureNames, r.Name)
	}
	for j, out := range g.Outputs {
		captures = append(captures, out)
		captureNames = append(captureNames, g.OutputNames[j])
	}

	sm := &SegMatrix{
		LaunchNames:  launchNames,
		CaptureNames: captureNames,
		M:            make([][]*canon.Form, len(launches)),
	}
	err := ParallelFor(len(launches), workers, func(i int) error {
		p := g.AcquirePass()
		defer p.Release()
		if err := p.Arrivals(launches[i]); err != nil {
			return err
		}
		row := make([]*canon.Form, len(captures))
		for j, cpt := range captures {
			if cpt == launches[i] {
				continue // zero-length self segment carries no information
			}
			row[j] = p.Form(cpt)
		}
		sm.M[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sm, nil
}
