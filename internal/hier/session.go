package hier

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/timing"
)

// Session is a live, mutable hierarchical design: the stitched top-level
// graph of a design the session owns. It stitches through the same
// buildTop as Analyze, Stitch and the sweep engine, so its graph carries
// everything theirs do: instance edges, nets, registers and clock roots.
// The per-instance units an ECO re-derives live in the design's prep
// cache, next to the partition and PCA. A module swap changes the design
// fingerprint, and the cache derives the new prep from the previous one:
// only the swapped instance's replacement matrix and rewritten edges are
// recomputed, and every other unit carries over. A swap back to a cached
// fingerprint re-derives nothing; this includes the prep a CopyStructure
// copy inherits from its source. Model re-extraction for the incoming
// module is the caller's job (through the shared ExtractCache), which is
// what keeps an ECO's cost proportional to the changed module, not the
// design.
//
// The session owns its Design (callers hand over a private copy, e.g. from
// CopyStructure) and its top graph. It is not safe for concurrent use; the
// ssta session layer serializes access.
type Session struct {
	d       *Design
	mode    Mode
	opt     AnalyzeOptions
	top     *timing.Graph
	netBase int // top edge index of design net 0; the nets follow in order
}

// NewSession stitches the initial top graph. The design is owned by the
// session afterwards.
func NewSession(ctx context.Context, d *Design, mode Mode, opt AnalyzeOptions) (*Session, error) {
	s := &Session{d: d, mode: mode, opt: opt}
	if err := s.stitch(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// Graph returns the live stitched top-level graph. Edge-level edits through
// the timing edit API apply directly to it; the session replaces the graph
// object on restitch (after SwapModule), so callers must re-fetch it then.
func (s *Session) Graph() *timing.Graph { return s.top }

// Design returns the session-owned design.
func (s *Session) Design() *Design { return s.d }

// Mode returns the correlation mode the session was built with.
func (s *Session) Mode() Mode { return s.mode }

// NetEdge returns the top-graph edge index carrying design net i.
func (s *Session) NetEdge(i int) (int, error) {
	if i < 0 || i >= len(s.d.Nets) {
		return 0, fmt.Errorf("hier: net index %d out of range (%d nets)", i, len(s.d.Nets))
	}
	return s.netBase + i, nil
}

// SetNetDelay changes the constant wire delay of design net i, updating
// both the design description (so later restitches keep it) and the live
// top-graph edge (so the incremental propagation sees it as a dirty seed).
func (s *Session) SetNetDelay(i int, ps float64) error {
	ei, err := s.NetEdge(i)
	if err != nil {
		return err
	}
	if ps < 0 {
		return fmt.Errorf("hier: negative net delay %g", ps)
	}
	s.d.Nets[i].Delay = ps
	return s.top.SetEdgeDelay(ei, s.top.Space.Const(ps))
}

// SwapModule replaces the module of one instance — the paper's ECO case —
// and restitches. For a same-footprint swap (identical NX/NY/pitch, the
// abutted-IP scenario) the prep cache re-derives only the swapped
// instance's units (see Session); a footprint change re-preps the design.
//
// The swap is transactional: on any error — validation, cancellation
// mid-derivation or mid-stitch — the design is restored and the previous
// top graph keeps serving; a swap either fully applies or fully does not.
// On success the top graph is a new object; callers holding incremental
// propagation state must rebase onto Graph().
func (s *Session) SwapModule(ctx context.Context, name string, m *Module) error {
	inst, _, err := s.d.instance(name)
	if err != nil {
		return err
	}
	if m == nil || m.Model == nil || m.Model.Graph == nil {
		return errors.New("hier: nil replacement module")
	}
	old := inst.Module
	inst.Module = m
	if err := s.stitch(ctx); err != nil {
		inst.Module = old
		return err
	}
	return nil
}

// stitch validates the design and commits a freshly stitched top graph. On
// error the previous top graph stays in place.
func (s *Session) stitch(ctx context.Context) error {
	if err := s.d.Validate(); err != nil {
		return err
	}
	res, err := s.d.buildTop(ctx, s.mode, false, s.opt)
	if err != nil {
		return err
	}
	s.top, s.netBase = res.Graph, len(res.Graph.Edges)-len(s.d.Nets)
	return nil
}
