package timing

import "sync"

// Levels is the cached level structure of an acyclic timing graph: the
// longest-path level of every vertex. The criticality engine's level-cutset
// construction and the incremental criticality cone analysis
// (internal/core) both read it, so the level computation lives here once.
// The propagation kernels do not need it: they walk Graph.Order directly.
type Levels struct {
	// Level[v] is the length of the longest edge path ending at v; vertices
	// without fan-in sit at level 0. Every edge goes from a strictly lower
	// level to a higher one, so the level boundaries are the paper's cutsets:
	// every input-to-output path crosses each boundary between consecutive
	// levels exactly once.
	Level    []int32
	MaxLevel int
}

// levelsCache is the lazily built Levels structure plus the inputs it was
// derived from: the published order slice and the graph's topology
// generation (adjacency edits bump it without necessarily touching the
// order — RemoveEdge and order-preserving AddEdgeLive keep the cached order
// but can still move levels).
type levelsCache struct {
	mu     sync.Mutex
	levels *Levels
	order  []int
	gen    uint64
}

// Levels returns the graph's level structure, computing and caching it on
// first use. Safe for concurrent readers under the graph's usual contract
// (mutations must not run concurrently with any reader); the returned
// structure is immutable once published.
func (g *Graph) Levels() (*Levels, error) {
	order, err := g.Order()
	if err != nil {
		return nil, err
	}
	c := &g.levelsCache
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.levels != nil && c.gen == g.topoGen && sameOrder(order, c.order) {
		return c.levels, nil
	}
	c.levels = buildLevels(g, order)
	c.order = order
	c.gen = g.topoGen
	return c.levels, nil
}

// buildLevels computes the level structure for one topological order.
func buildLevels(g *Graph, order []int) *Levels {
	lv := &Levels{Level: make([]int32, g.NumVerts)}
	for _, v := range order {
		var l int32
		for _, ei := range g.In[v] {
			if fl := lv.Level[g.Edges[ei].From] + 1; fl > l {
				l = fl
			}
		}
		lv.Level[v] = l
		if int(l) > lv.MaxLevel {
			lv.MaxLevel = int(l)
		}
	}
	return lv
}
