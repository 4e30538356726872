package hier

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/canon"
	"repro/internal/mat"
	"repro/internal/timing"
	"repro/internal/variation"
)

// Package-wide prep-cache counters. The prep cache is per-Design, so
// aggregate statistics live here: the serving layer exposes them to
// prove that warm-started designs skip the dominant setup cost (the
// partition + PCA + replacement matrices) after a restart.
var (
	prepHits   atomic.Int64
	prepMisses atomic.Int64
)

// PrepCacheStats reports aggregate prep-cache hits (an analysis reused a
// cached per-mode prep) and misses (a prep had to be computed) across
// all designs in the process.
func PrepCacheStats() (hits, misses int64) {
	return prepHits.Load(), prepMisses.Load()
}

// prep is the per-design, per-mode analysis model: everything a stitch
// derives from the design geometry and the instance models alone,
// independent of boundary conditions and propagation. For FullCorrelation
// that is the heterogeneous partition, its PCA, the per-instance
// replacement matrices and every instance's model edges rewritten into the
// design space (together the dominant setup cost); for GlobalOnly the
// per-instance component block offsets. A prep is immutable once built and
// safe to share between concurrent analyses.
type prep struct {
	mode  Mode
	space canon.Space
	part  *Partition   // FullCorrelation only
	repl  []*mat.Dense // FullCorrelation only, one per instance
	// edges holds, per instance, the model's edge delays rewritten into
	// the design space (eq. 19) without any boundary scale. Every top
	// graph stitched from the prep shares these forms. FullCorrelation
	// only, and nil in a cold prep built for flattening; GlobalOnly's
	// rewrite is a plain block copy and not worth holding.
	edges        [][]canon.Form
	instLocStart []int // GlobalOnly only, len(instances)+1
}

// prepSlot is a singleflight cache slot: the first analysis for a mode
// computes the prep, concurrent analyses block on done and share it.
type prepSlot struct {
	fp   designFP
	done chan struct{}
	p    *prep
	err  error
}

// ready reports whether the slot holds a successfully computed prep.
func (s *prepSlot) ready() bool {
	select {
	case <-s.done:
		return s.err == nil
	default:
		return false
	}
}

// designFP captures every design property the prep depends on, so a
// mutated design (moved instance, swapped module) transparently invalidates
// the cached prep instead of serving stale grids. It retains the Module and
// CorrelationModel pointers it compares, so a pointer match can never be a
// recycled allocation at the same address.
type designFP struct {
	width, height, pitch float64
	corr                 *variation.CorrelationModel
	nParams              int
	insts                []instFP
}

type instFP struct {
	name   string
	module *Module
	x, y   float64
}

func (d *Design) fingerprint() designFP {
	fp := designFP{
		width: d.Width, height: d.Height, pitch: d.Pitch,
		corr: d.Corr, nParams: len(d.Params),
		insts: make([]instFP, len(d.Instances)),
	}
	for i, inst := range d.Instances {
		fp.insts[i] = instFP{name: inst.Name, module: inst.Module, x: inst.OriginX, y: inst.OriginY}
	}
	return fp
}

func (a designFP) equal(b designFP) bool {
	if !a.samePartition(b) {
		return false
	}
	for i := range a.insts {
		if a.insts[i].module != b.insts[i].module {
			return false
		}
	}
	return true
}

// samePartition reports whether two fingerprints share the design-level
// partition and its PCA: they may differ only in which module fills an
// instance, and only between modules of the same footprint.
func (a designFP) samePartition(b designFP) bool {
	if a.width != b.width || a.height != b.height || a.pitch != b.pitch ||
		a.corr != b.corr || a.nParams != b.nParams || len(a.insts) != len(b.insts) {
		return false
	}
	for i, x := range a.insts {
		y := b.insts[i]
		if x.name != y.name || x.x != y.x || x.y != y.y || x.module.NX != y.module.NX ||
			x.module.NY != y.module.NY || x.module.Pitch != y.module.Pitch {
			return false
		}
	}
	return true
}

// getPrep returns the cached prep for the mode, computing it on first use
// or after the design changed. The cache holds the mode's latest slot plus,
// on a CopyStructure copy, the slot inherited from its source; either one
// serves a matching fingerprint, so a module swapped back is a hit. A
// FullCorrelation miss derives the new prep from a cached one with the same
// partition when there is one, re-deriving only the instances whose module
// changed. Concurrent callers for the same mode are coalesced into one
// computation; a waiter whose ctx fires stops waiting. The computing
// caller runs under its own ctx — a cancellation there surfaces as an
// error and restores the slot it replaced. A waiter that coalesced onto
// such an aborted computation must not inherit the other caller's context
// error: if its own ctx is still live it retries instead of failing
// spuriously. DisableCache computes a private prep from scratch, holding
// the rewritten model edges only when the stitch uses the models.
func (d *Design) getPrep(ctx context.Context, mode Mode, opt AnalyzeOptions, useOrig bool) (*prep, error) {
	if opt.DisableCache {
		return d.computePrep(ctx, mode, opt.Workers, nil, !useOrig)
	}
	fp := d.fingerprint()
	for {
		d.prepMu.Lock()
		if d.preps == nil {
			d.preps = make(map[Mode]*prepSlot)
		}
		cur := d.preps[mode]
		var hit, base *prepSlot
		for _, s := range [2]*prepSlot{cur, d.inherited[mode]} {
			if s != nil && s.fp.equal(fp) {
				hit = s
				break
			}
			if s != nil && base == nil && s.ready() && s.fp.samePartition(fp) {
				base = s
			}
		}
		if s := hit; s != nil {
			d.preps[mode] = s
			d.prepMu.Unlock()
			select {
			case <-s.done:
				if errors.Is(s.err, context.Canceled) || errors.Is(s.err, context.DeadlineExceeded) {
					if ctx.Err() == nil {
						continue // the computer was cancelled, we were not: retry
					}
					return nil, ctx.Err()
				}
				if s.err == nil {
					prepHits.Add(1)
				}
				return s.p, s.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		prepMisses.Add(1)
		s := &prepSlot{fp: fp, done: make(chan struct{})}
		d.preps[mode] = s
		d.prepMu.Unlock()

		s.p, s.err = d.computePrep(ctx, mode, opt.Workers, base, true)
		if s.err != nil {
			// Restore the replaced slot BEFORE waking waiters: a retrying
			// waiter must not find this one and loop on it until we win the
			// mutex again, and a rolled-back swap finds its prep again.
			d.prepMu.Lock()
			if d.preps[mode] == s {
				d.preps[mode] = cur
			}
			d.prepMu.Unlock()
		}
		close(s.done)
		return s.p, s.err
	}
}

// InvalidatePrep drops every cached analysis prep, the rewritten model
// edges and any prep inherited from a CopyStructure source included.
// Analyze detects geometry changes and module swaps on its own via the
// design fingerprint; this is only needed after mutations the fingerprint
// cannot see, such as editing a module's model graph in place.
func (d *Design) InvalidatePrep() {
	d.prepMu.Lock()
	d.preps, d.inherited = nil, nil
	d.prepMu.Unlock()
}

// readyPreps returns, per mode, the design's latest successfully computed
// prep slot (falling back to its own inherited one) — what a structural
// copy inherits.
func (d *Design) readyPreps() map[Mode]*prepSlot {
	d.prepMu.Lock()
	defer d.prepMu.Unlock()
	var out map[Mode]*prepSlot
	for _, mode := range []Mode{FullCorrelation, GlobalOnly} {
		for _, s := range [2]*prepSlot{d.preps[mode], d.inherited[mode]} {
			if s != nil && s.ready() {
				if out == nil {
					out = make(map[Mode]*prepSlot)
				}
				out[mode] = s
				break
			}
		}
	}
	return out
}

// computePrep derives the per-mode analysis model, fanning the
// per-instance replacement matrices and edge rewrites out over the worker
// pool. A FullCorrelation base with the same partition lends its
// partition, and every instance whose module it shares keeps the base's
// replacement matrix and rewritten edges — bit-identical to recomputing
// them. edges selects whether the model edges are rewritten at all.
func (d *Design) computePrep(ctx context.Context, mode Mode, workers int, base *prepSlot, edges bool) (*prep, error) {
	nP := len(d.Params)
	p := &prep{mode: mode}
	switch mode {
	case FullCorrelation:
		if base != nil {
			p.part = base.p.part
		} else {
			part, err := d.partition()
			if err != nil {
				return nil, err
			}
			p.part = part
		}
		p.space = canon.Space{Globals: nP, Components: nP * p.part.Grids.Comps}
		p.repl = make([]*mat.Dense, len(d.Instances))
		if edges {
			p.edges = make([][]canon.Form, len(d.Instances))
		}
		var todo []int
		for i, inst := range d.Instances {
			if base != nil && base.fp.insts[i].module == inst.Module {
				p.repl[i] = base.p.repl[i]
				if edges {
					p.edges[i] = base.p.edges[i]
				}
				continue
			}
			todo = append(todo, i)
		}
		err := timing.ParallelForCtx(ctx, len(todo), workers, func(_ context.Context, k int) error {
			i := todo[k]
			r, err := replacementMatrix(d.Instances[i].Module.gridModel(), p.part, i)
			if err != nil {
				return fmt.Errorf("hier: instance %q: %w", d.Instances[i].Name, err)
			}
			p.repl[i] = r
			return nil
		})
		if err != nil {
			return nil, err
		}
		if edges {
			if err := d.rewriteEdges(ctx, p, todo, false, workers, p.edges); err != nil {
				return nil, err
			}
		}
	case GlobalOnly:
		p.instLocStart = make([]int, len(d.Instances)+1)
		for i, inst := range d.Instances {
			p.instLocStart[i+1] = p.instLocStart[i] + nP*inst.Module.gridModel().Comps
		}
		p.space = canon.Space{Globals: nP, Components: p.instLocStart[len(d.Instances)]}
	default:
		return nil, fmt.Errorf("hier: unknown mode %d", mode)
	}
	return p, nil
}
