package circuit

import (
	"fmt"
	"math/rand"
)

// TopoSpec describes the structural footprint of a benchmark circuit: the
// counts that determine its timing graph (vertices Vo = Gates + PIs, edges
// Eo = total fanin connections) plus the logic depth.
type TopoSpec struct {
	Name  string
	PIs   int
	POs   int
	Gates int
	Edges int // total fanin connections (= timing-graph edge count Eo)
	Depth int
}

// ISCAS85Specs holds the structural footprints of the ten ISCAS85
// benchmarks used in the paper's Table I. Gate/PI/PO counts and depths
// follow Hansen, Yalcin & Hayes ("Unveiling the ISCAS-85 benchmarks") and
// the paper's Eo/Vo columns: Vo = Gates + PIs and Eo = fanin connections.
var ISCAS85Specs = []TopoSpec{
	{Name: "c432", PIs: 36, POs: 7, Gates: 160, Edges: 336, Depth: 17},
	{Name: "c499", PIs: 41, POs: 32, Gates: 202, Edges: 408, Depth: 11},
	{Name: "c880", PIs: 60, POs: 26, Gates: 383, Edges: 729, Depth: 24},
	{Name: "c1355", PIs: 41, POs: 32, Gates: 546, Edges: 1064, Depth: 24},
	{Name: "c1908", PIs: 33, POs: 25, Gates: 880, Edges: 1498, Depth: 40},
	{Name: "c2670", PIs: 233, POs: 140, Gates: 1193, Edges: 2076, Depth: 32},
	{Name: "c3540", PIs: 50, POs: 22, Gates: 1669, Edges: 2939, Depth: 47},
	{Name: "c5315", PIs: 178, POs: 123, Gates: 2307, Edges: 4386, Depth: 49},
	{Name: "c6288", PIs: 32, POs: 32, Gates: 2416, Edges: 4800, Depth: 124},
	{Name: "c7552", PIs: 207, POs: 108, Gates: 3512, Edges: 6144, Depth: 43},
}

// SpecByName looks up an ISCAS85 spec by benchmark name.
func SpecByName(name string) (TopoSpec, bool) {
	for _, s := range ISCAS85Specs {
		if s.Name == name {
			return s, true
		}
	}
	return TopoSpec{}, false
}

// maxFanin caps generated gate fanin; the ISCAS85 set has gates up to 9
// inputs.
const maxFanin = 9

// Validate checks that the spec is realizable by the generator.
func (s TopoSpec) Validate() error {
	switch {
	case s.PIs < 1 || s.POs < 1 || s.Gates < 1:
		return fmt.Errorf("circuit: spec %q needs positive PI/PO/gate counts", s.Name)
	case s.Depth < 1 || s.Depth > s.Gates:
		return fmt.Errorf("circuit: spec %q depth %d out of range [1, %d]", s.Name, s.Depth, s.Gates)
	case s.Edges < s.Gates:
		return fmt.Errorf("circuit: spec %q has fewer edges (%d) than gates (%d); min fanin is 1", s.Name, s.Edges, s.Gates)
	case s.Edges > s.Gates*maxFanin:
		return fmt.Errorf("circuit: spec %q has too many edges (%d) for max fanin %d", s.Name, s.Edges, maxFanin)
	case s.POs > s.Gates:
		return fmt.Errorf("circuit: spec %q has more outputs (%d) than gates", s.Name, s.POs)
	}
	return nil
}

// Generate builds a deterministic pseudo-random combinational circuit whose
// structural footprint matches the spec exactly: PI/PO counts, gate count,
// total fanin-connection count (Eo), and logic depth. It is used as a
// topology-matched stand-in for the ISCAS85 netlists, which are not
// redistributed with this repository: every benchmark name the tools
// accept is generated from its spec this way, and only c17 ships as a real
// netlist.
//
// The construction is leveled, so the result is acyclic by construction:
// every gate takes its first fanin from the previous level (fixing its
// level) and remaining fanins from any lower level, preferring nodes that do
// not yet drive anything so that no gate is left dangling.
func Generate(spec TopoSpec, seed int64) (*Circuit, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	d := spec.Depth

	// --- Level sizes: distribute gates evenly over levels 1..d, keeping the
	// last level no larger than the PO count (its gates all become POs).
	size := make([]int, d+1)
	base, rem := spec.Gates/d, spec.Gates%d
	for l := 1; l <= d; l++ {
		size[l] = base
		if l <= rem {
			size[l]++
		}
	}
	if size[d] > spec.POs {
		over := size[d] - spec.POs
		size[d] = spec.POs
		for l := 1; over > 0; l = l%(d-1) + 1 {
			size[l]++
			over--
			if d == 1 {
				return nil, fmt.Errorf("circuit: spec %q cannot satisfy PO bound at depth 1", spec.Name)
			}
		}
	}

	// --- Node table. Ids: PIs first, then gates level by level.
	n := spec.PIs + spec.Gates
	level := make([]int, n)
	levelNodes := make([][]int, d+1)
	for i := 0; i < spec.PIs; i++ {
		levelNodes[0] = append(levelNodes[0], i)
	}
	id := spec.PIs
	for l := 1; l <= d; l++ {
		for k := 0; k < size[l]; k++ {
			level[id] = l
			levelNodes[l] = append(levelNodes[l], id)
			id++
		}
	}
	// Prefix counts of nodes strictly below each level, for random picks.
	below := make([][]int, d+1) // below[l] = all node ids with level < l
	acc := []int{}
	for l := 0; l <= d; l++ {
		below[l] = append([]int(nil), acc...)
		acc = append(acc, levelNodes[l]...)
	}

	// --- Fanin counts: everyone starts at 1; distribute the surplus.
	fanins := make([][]int, n)
	want := make([]int, n)
	capOf := make([]int, n)
	gateIDs := make([]int, 0, spec.Gates)
	capTotal := 0
	for i := spec.PIs; i < n; i++ {
		want[i] = 1
		c := maxFanin
		if avail := len(below[level[i]]); avail < c {
			c = avail
		}
		capOf[i] = c
		capTotal += c
		gateIDs = append(gateIDs, i)
	}
	if spec.Edges > capTotal {
		return nil, fmt.Errorf("circuit: spec %q infeasible: %d edges exceed the %d fanin slots reachable at depth %d with %d inputs",
			spec.Name, spec.Edges, capTotal, spec.Depth, spec.PIs)
	}
	surplus := spec.Edges - spec.Gates
	for attempts := 0; surplus > 0 && attempts < 20*len(gateIDs); attempts++ {
		g := gateIDs[rng.Intn(len(gateIDs))]
		if want[g] >= capOf[g] {
			continue
		}
		want[g]++
		surplus--
	}
	// Rejection sampling stalls when few gates have room; finish
	// deterministically (capacity is guaranteed above).
	for _, g := range gateIDs {
		for surplus > 0 && want[g] < capOf[g] {
			want[g]++
			surplus--
		}
	}

	// --- Wiring. unused[l] holds nodes at level l that do not yet drive
	// anything; they are consumed preferentially.
	fanoutCnt := make([]int, n)
	unused := make([][]int, d+1)
	for l := 0; l <= d; l++ {
		unused[l] = append([]int(nil), levelNodes[l]...)
	}
	popUnused := func(l int, exclude []int) (int, bool) {
		pool := unused[l]
		for tries := 0; tries < len(pool); tries++ {
			i := rng.Intn(len(pool))
			v := pool[i]
			if containsInt(exclude, v) {
				continue
			}
			pool[i] = pool[len(pool)-1]
			unused[l] = pool[:len(pool)-1]
			return v, true
		}
		return 0, false
	}
	popUnusedBelow := func(l int, exclude []int) (int, bool) {
		// Pick a random non-empty unused pool below l, weighted by size.
		total := 0
		for ll := 0; ll < l; ll++ {
			total += len(unused[ll])
		}
		if total == 0 {
			return 0, false
		}
		k := rng.Intn(total)
		for ll := 0; ll < l; ll++ {
			if k < len(unused[ll]) {
				if v, ok := popUnused(ll, exclude); ok {
					return v, true
				}
				// This pool only held excluded nodes; fall through to others.
				k = 0
				continue
			}
			k -= len(unused[ll])
		}
		// Retry any pool linearly.
		for ll := l - 1; ll >= 0; ll-- {
			if v, ok := popUnused(ll, exclude); ok {
				return v, true
			}
		}
		return 0, false
	}
	randomBelow := func(l int, exclude []int) (int, bool) {
		cands := below[l]
		for tries := 0; tries < 4*len(cands); tries++ {
			v := cands[rng.Intn(len(cands))]
			if !containsInt(exclude, v) {
				return v, true
			}
		}
		for _, v := range cands {
			if !containsInt(exclude, v) {
				return v, true
			}
		}
		return 0, false
	}

	for l := 1; l <= d; l++ {
		for _, g := range levelNodes[l] {
			fan := make([]int, 0, want[g])
			// First fanin from level l-1 pins the gate's logic level.
			src, ok := popUnused(l-1, fan)
			if !ok {
				prev := levelNodes[l-1]
				src = prev[rng.Intn(len(prev))]
			}
			fan = append(fan, src)
			fanoutCnt[src]++
			for len(fan) < want[g] {
				v, ok := popUnusedBelow(l, fan)
				if !ok {
					v, ok = randomBelow(l, fan)
					if !ok {
						return nil, fmt.Errorf("circuit: spec %q: no distinct fanin available for gate %d", spec.Name, g)
					}
				}
				fan = append(fan, v)
				fanoutCnt[v]++
			}
			fanins[g] = fan
		}
	}

	// --- Repair pass: nodes below the last level that still drive nothing
	// are swapped into an existing fanin slot whose current source has other
	// fanout. Slot 0 (the level-pinning edge) is only used when the node
	// sits exactly one level below the gate.
	var dangling []int
	for l := 0; l < d; l++ {
		dangling = append(dangling, unused[l]...)
	}
	for _, u := range dangling {
		if fanoutCnt[u] > 0 {
			continue
		}
		if !swapIn(u, level, fanins, fanoutCnt, gateIDs, rng) {
			return nil, fmt.Errorf("circuit: spec %q: cannot connect dangling node %d (level %d)", spec.Name, u, level[u])
		}
	}

	// --- Outputs: every last-level gate plus random high-level gates.
	poSet := make(map[int]bool, spec.POs)
	var pos []int
	for _, g := range levelNodes[d] {
		poSet[g] = true
		pos = append(pos, g)
	}
	// Prefer late-level gates for the remaining POs, matching real netlists.
	for l := d - 1; l >= 1 && len(pos) < spec.POs; l-- {
		perm := rng.Perm(len(levelNodes[l]))
		for _, k := range perm {
			if len(pos) >= spec.POs {
				break
			}
			g := levelNodes[l][k]
			if !poSet[g] {
				poSet[g] = true
				pos = append(pos, g)
			}
		}
	}
	if len(pos) != spec.POs {
		return nil, fmt.Errorf("circuit: spec %q: could only place %d of %d outputs", spec.Name, len(pos), spec.POs)
	}

	// --- Materialize the Circuit. Port names are spec-derived, not
	// seed-derived: inputs are I1..I<PIs> and the gates chosen as outputs are
	// named O1..O<POs> (in pos order) instead of keeping their N<id> names.
	// Two circuits generated from the same spec therefore expose identical
	// port-name sets regardless of seed, so module models extracted from
	// different seeds can be swapped for one another in a hierarchical
	// design (ports are matched by name when stitching).
	poName := make(map[int]string, len(pos))
	for k, p := range pos {
		poName[p] = fmt.Sprintf("O%d", k+1)
	}
	c := New(spec.Name)
	for i := 0; i < spec.PIs; i++ {
		if _, err := c.AddInput(fmt.Sprintf("I%d", i+1)); err != nil {
			return nil, err
		}
	}
	for _, g := range gateIDs {
		t := pickGateType(rng, len(fanins[g]))
		name, isPO := poName[g]
		if !isPO {
			name = fmt.Sprintf("N%d", g)
		}
		if _, err := c.AddGate(name, t, fanins[g]...); err != nil {
			return nil, err
		}
	}
	for _, p := range pos {
		if err := c.MarkOutput(p); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("circuit: generated netlist invalid: %w", err)
	}
	return c, nil
}

// swapIn connects dangling source u by redirecting an existing fanin
// connection to it (keeping the total edge count unchanged), or — when no
// single gate offers a legal slot — by removing a redundant edge at one
// gate and adding an edge to u at another. A removal is legal only if the
// source keeps other fanout and the gate keeps a fanin at level-1 (its
// logic level must not drop, or downstream levels would cascade).
func swapIn(u int, level []int, fanins [][]int, fanoutCnt []int, gateIDs []int, rng *rand.Rand) bool {
	slotRemovable := func(g, slot int) bool {
		fan := fanins[g]
		src := fan[slot]
		if fanoutCnt[src] < 2 {
			return false
		}
		if level[src] != level[g]-1 {
			return true // not a level pinner
		}
		for s2, other := range fan {
			if s2 != slot && level[other] == level[g]-1 {
				return true // another pinner remains
			}
		}
		return false
	}

	// Same-gate swap: replace a removable slot with u directly. Replacing
	// the unique pinner is also fine when u itself sits at level-1.
	start := rng.Intn(len(gateIDs))
	for k := 0; k < len(gateIDs); k++ {
		g := gateIDs[(start+k)%len(gateIDs)]
		if level[g] <= level[u] {
			continue
		}
		fan := fanins[g]
		if containsInt(fan, u) {
			continue
		}
		for slot, src := range fan {
			if fanoutCnt[src] < 2 {
				continue
			}
			if !slotRemovable(g, slot) && level[u] != level[g]-1 {
				continue
			}
			fanoutCnt[src]--
			fan[slot] = u
			fanoutCnt[u]++
			return true
		}
	}

	// Two-site fallback: append u to some gate above it, and drop a
	// removable edge elsewhere to keep the edge count exact.
	addAt := -1
	for k := 0; k < len(gateIDs); k++ {
		g := gateIDs[(start+k)%len(gateIDs)]
		if level[g] > level[u] && len(fanins[g]) < maxFanin && !containsInt(fanins[g], u) {
			addAt = g
			break
		}
	}
	if addAt < 0 {
		return false
	}
	for k := 0; k < len(gateIDs); k++ {
		g := gateIDs[(start+k)%len(gateIDs)]
		if g == addAt || len(fanins[g]) <= 1 {
			continue
		}
		for slot := range fanins[g] {
			if !slotRemovable(g, slot) {
				continue
			}
			src := fanins[g][slot]
			fanoutCnt[src]--
			fanins[g] = append(fanins[g][:slot], fanins[g][slot+1:]...)
			fanins[addAt] = append(fanins[addAt], u)
			fanoutCnt[u]++
			return true
		}
	}
	return false
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// pickGateType chooses a plausible ISCAS85-style gate type for the fanin
// count.
func pickGateType(rng *rand.Rand, fanin int) GateType {
	if fanin == 1 {
		if rng.Float64() < 0.7 {
			return Not
		}
		return Buf
	}
	r := rng.Float64()
	switch {
	case fanin == 2 && r < 0.10:
		return Xor
	case fanin == 2 && r < 0.15:
		return Xnor
	case r < 0.45:
		return Nand
	case r < 0.65:
		return Nor
	case r < 0.85:
		return And
	default:
		return Or
	}
}
