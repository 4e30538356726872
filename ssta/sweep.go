package ssta

import (
	"context"

	"repro/internal/scenario"
)

// Re-exported MCMM sweep types. The scenario package carries the full
// documentation.
type (
	// Scenario describes one named transform of a timing graph or design
	// (derates, per-edge-class scales, sigma multipliers, module swaps).
	Scenario = scenario.Scenario
	// SweepOptions tunes a multi-scenario sweep.
	SweepOptions = scenario.Options
	// SweepReport is the outcome of a sweep: per-scenario results, the
	// cross-scenario worst-case envelope, and the divergence ranking.
	SweepReport = scenario.Report
	// ScenarioResult is the outcome of one scenario.
	ScenarioResult = scenario.Result
	// SweepEnvelope is the cross-scenario worst case.
	SweepEnvelope = scenario.Envelope
	// ScenarioSpec is the JSON wire form of a scenario's rescale knobs.
	ScenarioSpec = scenario.Spec
	// SlackStat summarizes one worst-slack distribution (mean, std, and the
	// low-tail quantile) in a scenario result on sequential graphs.
	SlackStat = scenario.SlackStat
)

// Re-exported scenario constructors.
var (
	// ParseScenariosJSON decodes a JSON array of scenario specs.
	ParseScenariosJSON = scenario.ParseJSON
	// ParseScenariosFlag resolves a -scenarios flag value (inline JSON or
	// @path to a file).
	ParseScenariosFlag = scenario.ParseFlag
	// ScenarioFlagBytes resolves a -scenarios flag value to its raw JSON
	// without decoding, for callers with extended spec types.
	ScenarioFlagBytes = scenario.FlagBytes
)

// SweepAnalyze evaluates every scenario against a hierarchical design with
// shared prep: one partition/PCA/stitch pass (through the design's prep
// cache) serves all swap-free scenarios, each of which only re-runs the
// propagation kernel over the stitched graph's delays, rescaling them as
// it gathers them.
// Scenarios with module swaps stitch a private structural copy. Results
// come back per scenario, with failures (including cancellation mid-sweep)
// recorded per result instead of aborting the sweep.
func SweepAnalyze(ctx context.Context, d *Design, mode Mode, scens []Scenario, opt SweepOptions) (*SweepReport, error) {
	return scenario.SweepDesign(ctx, d, mode, scens, opt)
}

// SweepAnalyzeGraph is SweepAnalyze for a flat timing graph: the graph and
// its edge delays are the shared prep.
func SweepAnalyzeGraph(ctx context.Context, g *Graph, scens []Scenario, opt SweepOptions) (*SweepReport, error) {
	return scenario.SweepGraph(ctx, g, scens, opt)
}
