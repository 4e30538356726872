package timing

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/canon"
)

// Pass is a reusable propagation arena: one flat canon.Bank with a slot per
// vertex plus one scratch slot, and a per-vertex reached mask. A forward
// (Arrivals) or backward (Required) pass writes its result forms into the
// bank in place, so a full pass over the graph performs no per-vertex
// allocations — the paper's all-pairs extraction scheme (eq. 12) runs one
// such pass per input, and pooled passes make that loop allocation-free.
//
// Both kernels are serial: a forward pass pushes each vertex's arrival
// along its fan-out in the graph's topological order (Graph.Order), and a
// backward pass gathers each vertex's fan-out in reverse order, so the
// operation order at every vertex — and with it every result bit — is a
// function of the graph alone. Parallelism lives one level up, in
// independent passes (AllPairsDelays, the criticality engine, batches).
//
// Acquire with Graph.AcquirePass, give it back with Release. A Pass is
// bound to the graph that created it and is not safe for concurrent use;
// concurrent workers each acquire their own. Backing slabs are recycled
// through a global pool, so both repeated passes over one graph (the
// all-pairs workers) and passes over a stream of fresh graphs (the
// hierarchical engine, the batch scheduler) stay at O(1) allocations —
// and reused slabs are never re-zeroed.
type Pass struct {
	g     *Graph
	bank  *canon.Bank
	reach []bool
	// ctx, when set via WithContext, is polled every ctxCheckStride
	// vertices during Arrivals/Required so a long pass observes
	// cancellation between vertices instead of running to completion.
	ctx context.Context
	// rs, when set via WithRescale, rescales every edge delay at gather
	// time.
	rs *Rescale
}

// ctxCheckStride is how many vertices a pass processes between context
// polls: frequent enough for sub-millisecond cancellation latency on any
// realistic graph, rare enough that the atomic load never shows up in
// profiles.
const ctxCheckStride = 256

// WithContext attaches a cancellation context to the pass and returns it.
// A nil ctx (the AcquirePass default) disables polling entirely.
func (p *Pass) WithContext(ctx context.Context) *Pass {
	p.ctx = ctx
	return p
}

// stepCtx polls a (possibly nil) context on stride boundaries.
func stepCtx(ctx context.Context, step int) error {
	if ctx != nil && step%ctxCheckStride == 0 {
		return ctx.Err()
	}
	return nil
}

// The pass pools are global so arena slabs outlive individual graphs: a
// flow that builds a fresh top-level graph per analysis (the hierarchical
// engine, the batch scheduler) still recycles the same storage instead of
// allocating and zeroing megabyte slabs each time. Slab contents are never
// zeroed on reuse — every kernel fully overwrites its destination slot and
// the reach mask is reset at the start of each pass.
//
// Each pool is split into power-of-two size classes: a Get from class c
// always yields capacity >= 1<<c, so a workload mixing graph sizes recycles
// storage instead of dropping undersized buffers on the floor (small-graph
// slabs no longer collide with big-graph requests and vice versa).
const passPoolClasses = 28

var (
	passSlabPools [passPoolClasses]sync.Pool // *[]float64 — bank backing storage
	passMaskPools [passPoolClasses]sync.Pool // *[]bool    — reach masks
)

// poolClass maps a required capacity to the smallest class whose buffers
// can hold it: class c holds buffers with capacity >= 1<<c.
func poolClass(need int) int {
	if need <= 1 {
		return 0
	}
	return bits.Len(uint(need - 1))
}

// takeSlab returns a float64 buffer with capacity >= need from the pool,
// allocating a class-sized one on a miss. need above the largest class is
// served unpooled.
func takeSlab(need int) []float64 {
	c := poolClass(need)
	if c >= passPoolClasses {
		return make([]float64, need)
	}
	if s, ok := passSlabPools[c].Get().(*[]float64); ok {
		return *s
	}
	return make([]float64, 1<<c)
}

// putSlab recycles a buffer into the class it can serve: the largest c with
// 1<<c <= cap, so every future Get from that class fits. Oversized buffers
// (beyond the class table) are dropped.
func putSlab(s []float64) {
	if cap(s) == 0 {
		return
	}
	c := bits.Len(uint(cap(s))) - 1
	if c >= passPoolClasses {
		return
	}
	passSlabPools[c].Put(&s)
}

// takeMask and putMask mirror takeSlab/putSlab for reach masks.
func takeMask(need int) []bool {
	c := poolClass(need)
	if c >= passPoolClasses {
		return make([]bool, need)
	}
	if m, ok := passMaskPools[c].Get().(*[]bool); ok {
		return (*m)[:need]
	}
	return make([]bool, 1<<c)[:need]
}

func putMask(m []bool) {
	if cap(m) == 0 {
		return
	}
	c := bits.Len(uint(cap(m))) - 1
	if c >= passPoolClasses {
		return
	}
	passMaskPools[c].Put(&m)
}

// AcquirePass returns a propagation arena for the graph, recycling pooled
// storage when available.
func (g *Graph) AcquirePass() *Pass {
	return &Pass{
		g:     g,
		bank:  canon.NewBankOver(g.Space, g.NumVerts+1, takeSlab((g.NumVerts+1)*g.Space.Stride())),
		reach: takeMask(g.NumVerts),
	}
}

// Release returns the pass's storage to the pool. The pass and every View
// obtained from it must not be used afterwards.
func (p *Pass) Release() {
	putSlab(p.bank.Data())
	putMask(p.reach)
	p.bank, p.reach, p.ctx, p.rs = nil, nil, nil, nil
}

// Reached reports whether the last pass reached vertex v.
func (p *Pass) Reached(v int) bool { return p.reach[v] }

// At returns the flat view of vertex v's form from the last pass. The
// contents are meaningful only when Reached(v); the view is invalidated by
// the next pass or Release.
func (p *Pass) At(v int) canon.View { return p.bank.View(v) }

// Scratch returns the pass's spare slot — free for caller-side folds (e.g.
// a running max over outputs) between passes.
func (p *Pass) Scratch() canon.View { return p.bank.View(p.g.NumVerts) }

// Form materializes vertex v's form from the last pass, or nil when the
// pass did not reach v.
func (p *Pass) Form(v int) *canon.Form {
	if !p.reach[v] {
		return nil
	}
	return p.bank.View(v).Form(p.g.Space)
}

// Forms materializes the whole pass as a per-vertex pointer-form slice with
// nil entries for unreached vertices — the pointer-based API shape.
func (p *Pass) Forms() []*canon.Form {
	out := make([]*canon.Form, p.g.NumVerts)
	for v := range out {
		if p.reach[v] {
			out[v] = p.bank.View(v).Form(p.g.Space)
		}
	}
	return out
}

// Rescale is a gather-time linear rescale of a graph's edge delays: the
// MCMM sweep's per-scenario transform, applied inside the propagation
// kernels instead of into a materialized delay bank. Edge ei enters the
// pass exactly as canon.ScalePartsView with factors (Edge[ei], Glob, Loc,
// Rand) would produce it (canon.AddScaledViews). Edge holds one
// all-components factor per edge index (tombstoned slots are never read);
// Glob, Loc and Rand multiply the global, spatially correlated and private
// random blocks on top. A nil *Rescale is the identity.
type Rescale struct {
	Edge            []float64
	Glob, Loc, Rand float64
}

// WithRescale makes every subsequent pass read the edge delays through the
// rescale (nil restores the plain delays) and returns the pass.
func (p *Pass) WithRescale(rs *Rescale) *Pass {
	p.rs = rs
	return p
}

// edgeDelays is where a propagation kernel reads edge delays from: a flat
// delay bank, optionally rescaled at gather time, or the edges' pointer
// forms. All three perform the floating-point operations of a pass over
// the equivalent materialized bank, so the choice never changes results.
type edgeDelays struct {
	edges []Edge
	bank  *canon.Bank // nil: read edges[ei].Delay
	rs    *Rescale
	nGlob int
}

// flatDelays reads the graph's own cached flat delay bank.
func (g *Graph) flatDelays() edgeDelays {
	return edgeDelays{edges: g.Edges, bank: g.EdgeDelays(), nGlob: g.Space.Globals}
}

// add writes a + delay(ei) into dst; dst may alias a.
func (d *edgeDelays) add(dst, a canon.View, ei int32) {
	switch {
	case d.rs != nil:
		canon.AddScaledViews(dst, a, d.bank.View(int(ei)), d.nGlob, d.rs.Edge[ei], d.rs.Glob, d.rs.Loc, d.rs.Rand)
	case d.bank != nil:
		canon.AddViews(dst, a, d.bank.View(int(ei)))
	default:
		canon.AddFormView(dst, a, d.edges[ei].Delay)
	}
}

// delays resolves where the pass reads edge delays from. A non-nil bank
// (the *Over entry points) replaces the graph's own delays. Otherwise a
// graph's first unscaled pass reads the pointer forms directly — building
// the flat bank costs one extra sweep over every edge and only pays off
// when passes repeat (the all-pairs scheme, criticality, repeated queries)
// — and every other pass reads the cached flat bank.
func (p *Pass) delays(bank *canon.Bank) (edgeDelays, error) {
	g := p.g
	d := edgeDelays{edges: g.Edges, bank: bank, rs: p.rs, nGlob: g.Space.Globals}
	if bank == nil && (g.passes.Add(1) > 1 || g.hasDelayBank() || p.rs != nil) {
		d.bank = g.EdgeDelays()
	}
	if d.bank != nil && d.bank.Cap() < len(g.Edges) {
		return d, fmt.Errorf("timing: delay bank has %d slots for %d edges", d.bank.Cap(), len(g.Edges))
	}
	if p.rs != nil && len(p.rs.Edge) < len(g.Edges) {
		return d, fmt.Errorf("timing: rescale has %d edge factors for %d edges", len(p.rs.Edge), len(g.Edges))
	}
	return d, nil
}

func (g *Graph) hasDelayBank() bool {
	g.delayMu.Lock()
	defer g.delayMu.Unlock()
	return g.delayBank != nil
}

// Arrivals runs a forward propagation from the given source vertices (all
// arriving at time zero) into the pass arena. With a single source this is
// the paper's exclusive propagation ("arrival exclusively from vi",
// Section IV-B).
func (p *Pass) Arrivals(sources ...int) error {
	return p.forward(nil, canon.MaxViews, sources)
}

// ArrivalsOver runs the forward propagation reading edge delays from the
// given bank instead of the graph's own. The bank must hold one slot per
// edge index (tombstoned slots are never read) in the graph's space; it is
// read-only during the pass.
func (p *Pass) ArrivalsOver(delays *canon.Bank, sources ...int) error {
	if delays == nil {
		return errors.New("timing: ArrivalsOver needs a delay bank")
	}
	return p.forward(delays, canon.MaxViews, sources)
}

// forward runs the forward kernel over the resolved delay source, folding
// contributions with fold: the Clark max for latest arrivals, the Clark min
// for earliest ones.
func (p *Pass) forward(bank *canon.Bank, fold func(dst, a, b canon.View), sources []int) error {
	d, err := p.delays(bank)
	if err != nil {
		return err
	}
	return forwardPass(p.g, p.bank, p.reach, d, fold, p.ctx, sources)
}

// seedSources resets the reach mask and seeds the given vertices at time
// zero — the shared preamble of every propagation kernel. The kind string
// names the vertex role in range errors ("source" or "output").
func seedSources(g *Graph, bank *canon.Bank, reach []bool, seeds []int, kind string) error {
	for i := range reach {
		reach[i] = false
	}
	for _, s := range seeds {
		if s < 0 || s >= g.NumVerts {
			return fmt.Errorf("timing: %s vertex %d out of range", kind, s)
		}
		bank.View(s).SetConst(0)
		reach[s] = true
	}
	return nil
}

// forwardPass is the forward propagation kernel shared by pooled passes
// and the persistent incremental state: arrivals are written into bank
// (slot g.NumVerts is scratch) with the per-vertex reach mask, each vertex
// folding its contributions with fold (canon.MaxViews for latest arrivals,
// canon.MinViews for the earliest arrivals hold analysis needs).
//
// Vertices push along their fan-out in topological order, so every vertex
// receives its fan-in contributions in the topological order of their
// sources — the operation order Incremental.recomputeArrival replays.
func forwardPass(g *Graph, bank *canon.Bank, reach []bool, d edgeDelays, fold func(dst, a, b canon.View), ctx context.Context, sources []int) error {
	order, err := g.Order()
	if err != nil {
		return err
	}
	if err := seedSources(g, bank, reach, sources, "source"); err != nil {
		return err
	}
	scratch := bank.View(g.NumVerts)
	edges, out := g.Edges, g.Out
	for step, v := range order {
		if err := stepCtx(ctx, step); err != nil {
			return err
		}
		if !reach[v] {
			continue
		}
		av := bank.View(v)
		for _, ei := range out[v] {
			to := edges[ei].To
			d.add(scratch, av, ei)
			tv := bank.View(to)
			if !reach[to] {
				canon.CopyView(tv, scratch)
				reach[to] = true
			} else {
				fold(tv, tv, scratch)
			}
		}
	}
	return nil
}

// RequiredOver mirrors ArrivalsOver for backward propagation.
func (p *Pass) RequiredOver(delays *canon.Bank, outputs ...int) error {
	if delays == nil {
		return errors.New("timing: RequiredOver needs a delay bank")
	}
	return p.backward(delays, outputs)
}

// Required runs a backward propagation into the pass arena: after it, At(v)
// holds the maximum statistical delay from v to any of the given output
// vertices — the negated required time of the paper's eq. 15 when the
// required time at the outputs is zero.
func (p *Pass) Required(outputs ...int) error {
	return p.backward(nil, outputs)
}

func (p *Pass) backward(bank *canon.Bank, outputs []int) error {
	d, err := p.delays(bank)
	if err != nil {
		return err
	}
	return backwardPass(p.g, p.bank, p.reach, d, p.ctx, outputs)
}

// backwardPass is the backward propagation kernel shared by pooled passes
// and the persistent incremental state (see forwardPass): vertices gather
// their fan-out in reverse topological order.
func backwardPass(g *Graph, bank *canon.Bank, reach []bool, d edgeDelays, ctx context.Context, outputs []int) error {
	order, err := g.Order()
	if err != nil {
		return err
	}
	if err := seedSources(g, bank, reach, outputs, "output"); err != nil {
		return err
	}
	scratch := bank.View(g.NumVerts)
	for i := len(order) - 1; i >= 0; i-- {
		if err := stepCtx(ctx, len(order)-1-i); err != nil {
			return err
		}
		v := order[i]
		reach[v] = gatherFanout(g, bank, reach, &d, v, bank.View(v), scratch, reach[v])
	}
	return nil
}

// gatherFanout folds v's required-time contributions — each reached
// fan-out target's form in bank plus the edge delay — into dst with the
// Clark max, in Out[v] adjacency order, using tmp as scratch. reached says
// whether dst already holds a form (a seeded output); the result says
// whether it holds one afterwards. The full backward pass and the
// incremental fan-in sweep share it, so both fold in the same order.
func gatherFanout(g *Graph, bank *canon.Bank, reach []bool, d *edgeDelays, v int, dst, tmp canon.View, reached bool) bool {
	for _, ei := range g.Out[v] {
		to := g.Edges[ei].To
		if !reach[to] {
			continue
		}
		d.add(tmp, bank.View(to), ei)
		if !reached {
			canon.CopyView(dst, tmp)
			reached = true
		} else {
			canon.MaxViews(dst, dst, tmp)
		}
	}
	return reached
}

// ArrivalAll propagates arrival times from all inputs simultaneously (every
// input at time zero) and returns the arrival form per vertex. Vertices not
// reachable from any input have a nil entry.
func (g *Graph) ArrivalAll() ([]*canon.Form, error) {
	return g.arrivalForms(g.Inputs)
}

// ArrivalFrom propagates arrival times exclusively from one input vertex
// (paper Section IV-B: arrival "exclusively from vi"). Unreachable vertices
// are nil.
func (g *Graph) ArrivalFrom(src int) ([]*canon.Form, error) {
	return g.arrivalForms([]int{src})
}

func (g *Graph) arrivalForms(sources []int) ([]*canon.Form, error) {
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Arrivals(sources...); err != nil {
		return nil, err
	}
	return p.Forms(), nil
}

// DelayToOutput computes, for every vertex, the maximum statistical delay
// from that vertex to the given output vertex. Vertices that cannot reach
// the output are nil.
func (g *Graph) DelayToOutput(out int) ([]*canon.Form, error) {
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Required(out); err != nil {
		return nil, err
	}
	return p.Forms(), nil
}

// MaxDelay returns the statistical maximum delay over all outputs with all
// inputs arriving at time zero — the circuit delay distribution. The fold
// over outputs runs in the pass arena, so the whole computation allocates
// only the returned form.
func (g *Graph) MaxDelay() (*canon.Form, error) {
	return g.MaxDelayCtx(nil)
}

// MaxDelayCtx is MaxDelay with cooperative cancellation: the forward pass
// polls ctx between vertices and returns its error once it fires. A nil
// ctx disables polling (MaxDelay calls through with nil). On sequential
// graphs the pass launches from the clock roots as well as the inputs, so
// register-launched logic is covered.
func (g *Graph) MaxDelayCtx(ctx context.Context) (*canon.Form, error) {
	p := g.AcquirePass().WithContext(ctx)
	defer p.Release()
	if err := p.Arrivals(g.LaunchSources()...); err != nil {
		return nil, err
	}
	acc := p.Scratch()
	first := true
	for _, o := range g.Outputs {
		if !p.Reached(o) {
			continue
		}
		if first {
			canon.CopyView(acc, p.At(o))
			first = false
		} else {
			canon.MaxViews(acc, acc, p.At(o))
		}
	}
	if first {
		return nil, errors.New("timing: no output reachable from any input")
	}
	return acc.Form(g.Space), nil
}

// AllPairs holds the maximum input-output delay forms M_ij (paper eq. 12).
// M[i][j] is nil when output j is not reachable from input i.
type AllPairs struct {
	Inputs  []int
	Outputs []int
	M       [][]*canon.Form
}

// AllPairsDelays computes the full delay matrix with one exclusive forward
// propagation per input (Sapatnekar's all-pairs scheme), fanning the passes
// out over `workers` goroutines (<=0 means GOMAXPROCS). Each pass runs in a
// pooled arena, so the per-input cost allocates only the output row.
func (g *Graph) AllPairsDelays(workers int) (*AllPairs, error) {
	if _, err := g.Order(); err != nil {
		return nil, err
	}
	g.EdgeDelays() // build the flat delay bank before fanning out
	ap := &AllPairs{
		Inputs:  exactInts(g.Inputs),
		Outputs: exactInts(g.Outputs),
		M:       make([][]*canon.Form, len(g.Inputs)),
	}
	err := ParallelFor(len(g.Inputs), workers, func(i int) error {
		p := g.AcquirePass()
		defer p.Release()
		if err := p.Arrivals(g.Inputs[i]); err != nil {
			return err
		}
		row := make([]*canon.Form, len(g.Outputs))
		for j, o := range g.Outputs {
			row[j] = p.Form(o)
		}
		ap.M[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ap, nil
}

// ReachSets holds the graph's IO reachability bitsets in two strided
// []uint64 slabs — one FromInput row and one ToOutput row per vertex, each
// a fixed number of words, so building them costs two slab allocations
// instead of two slices per vertex.
type ReachSets struct {
	WIn, WOut int // words per vertex in the respective slab
	fromInput []uint64
	toOutput  []uint64
}

// FromInput returns the bitset of inputs (by position in Graph.Inputs)
// reaching vertex v. The slice aliases the shared slab — treat as read-only.
func (r *ReachSets) FromInput(v int) []uint64 {
	return r.fromInput[v*r.WIn : (v+1)*r.WIn]
}

// ToOutput returns the bitset of outputs (by position in Graph.Outputs)
// reachable from vertex v. Read-only, like FromInput.
func (r *ReachSets) ToOutput(v int) []uint64 {
	return r.toOutput[v*r.WOut : (v+1)*r.WOut]
}

// InputReaches reports whether input position i reaches vertex v.
func (r *ReachSets) InputReaches(i, v int) bool {
	return r.fromInput[v*r.WIn+i/64]&(1<<uint(i%64)) != 0
}

// ReachesOutput reports whether vertex v reaches output position j.
func (r *ReachSets) ReachesOutput(v, j int) bool {
	return r.toOutput[v*r.WOut+j/64]&(1<<uint(j%64)) != 0
}

// Reachability returns per-vertex bitsets marking which inputs reach each
// vertex (forward) and which outputs each vertex reaches (backward) — used
// to prune criticality work. It runs once per extraction; the flattened
// slab layout keeps it at two bulk allocations.
func (g *Graph) Reachability() (*ReachSets, error) {
	order, err := g.Order()
	if err != nil {
		return nil, err
	}
	r := &ReachSets{
		WIn:  (len(g.Inputs) + 63) / 64,
		WOut: (len(g.Outputs) + 63) / 64,
	}
	// SetIO accepts the port lists unvalidated; reject bad vertices here
	// with an error rather than an index panic (the criticality engine
	// depends on this surfacing promptly — see the pool-hang regression
	// test in internal/core).
	for _, in := range g.Inputs {
		if in < 0 || in >= g.NumVerts {
			return nil, fmt.Errorf("timing: input vertex %d out of range", in)
		}
	}
	for _, out := range g.Outputs {
		if out < 0 || out >= g.NumVerts {
			return nil, fmt.Errorf("timing: output vertex %d out of range", out)
		}
	}
	r.fromInput = make([]uint64, g.NumVerts*r.WIn)
	r.toOutput = make([]uint64, g.NumVerts*r.WOut)
	for i, in := range g.Inputs {
		r.fromInput[in*r.WIn+i/64] |= 1 << uint(i%64)
	}
	for _, v := range order {
		fv := r.FromInput(v)
		for _, ei := range g.Out[v] {
			tv := r.FromInput(g.Edges[ei].To)
			for w := range fv {
				tv[w] |= fv[w]
			}
		}
	}
	for j, out := range g.Outputs {
		r.toOutput[out*r.WOut+j/64] |= 1 << uint(j%64)
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		tv := r.ToOutput(v)
		for _, ei := range g.In[v] {
			sv := r.ToOutput(g.Edges[ei].From)
			for w := range tv {
				sv[w] |= tv[w]
			}
		}
	}
	return r, nil
}

// exactInts copies a slice with exact capacity (append-to-nil rounds up).
func exactInts(xs []int) []int {
	out := make([]int, len(xs))
	copy(out, xs)
	return out
}
