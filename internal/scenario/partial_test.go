package scenario_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/hier"
	"repro/internal/scenario"
	"repro/ssta"
)

// testDesign builds a quad of testSpec modules plus a same-footprint
// alternative module (same spec, another generator seed).
func testDesign(t *testing.T) (*ssta.Design, *ssta.Module, *ssta.Module) {
	t.Helper()
	flow := ssta.DefaultFlow()
	mk := func(seed int64) *ssta.Module {
		c, err := ssta.Generate(testSpec, seed)
		if err != nil {
			t.Fatal(err)
		}
		g, plan, err := flow.Graph(c)
		if err != nil {
			t.Fatal(err)
		}
		model, err := flow.Extract(g, ssta.ExtractOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mod, err := ssta.NewModule(testSpec.Name, model, plan)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	mod, alt := mk(5), mk(6)
	if mod.NX != alt.NX || mod.NY != alt.NY {
		t.Fatalf("generated modules differ in footprint: %dx%d vs %dx%d", mod.NX, mod.NY, alt.NX, alt.NY)
	}
	d, err := flow.QuadDesign("sw-quad", mod)
	if err != nil {
		t.Fatal(err)
	}
	return d, mod, alt
}

// TestSweepCancelAfterK cancels the sweep from OnScenarioDone once k
// scenarios finished. With one worker the cut is deterministic, so the
// partial accounting is asserted on every run, for flat and design sweeps
// alike: exactly k completed results in input order, every later scenario
// carries the cancellation, and the hook fires once per scenario.
func TestSweepCancelAfterK(t *testing.T) {
	g := testGraph(t, 5)
	d, _, _ := testDesign(t)
	scens := testScenarios()
	sweeps := map[string]func(context.Context, scenario.Options) (*scenario.Report, error){
		"graph": func(ctx context.Context, opt scenario.Options) (*scenario.Report, error) {
			return scenario.SweepGraph(ctx, g, scens, opt)
		},
		"design": func(ctx context.Context, opt scenario.Options) (*scenario.Report, error) {
			return scenario.SweepDesign(ctx, d, ssta.FullCorrelation, scens, opt)
		},
	}
	for name, sweep := range sweeps {
		for _, k := range []int{1, 3} {
			ctx, cancel := context.WithCancel(context.Background())
			var mu sync.Mutex
			fired := make([]int, len(scens))
			done := 0
			rep, err := sweep(ctx, scenario.Options{
				Workers: 1,
				OnScenarioDone: func(i int, r *scenario.Result) {
					mu.Lock()
					defer mu.Unlock()
					fired[i]++
					if done++; done == k {
						cancel()
					}
				},
			})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != k || len(rep.Results) != len(scens) {
				t.Fatalf("%s k=%d: completed %d of %d results, want exactly %d", name, k, rep.Completed, len(rep.Results), k)
			}
			for i, r := range rep.Results {
				if fired[i] != 1 {
					t.Fatalf("%s k=%d: OnScenarioDone fired %d times for scenario %d", name, k, fired[i], i)
				}
				if r.Name != scens[i].Name {
					t.Fatalf("%s k=%d: result %d is %q, want %q", name, k, i, r.Name, scens[i].Name)
				}
				if i < k && (r.Err != nil || r.Delay == nil) {
					t.Fatalf("%s k=%d: scenario %d before the cut failed: %v", name, k, i, r.Err)
				}
				if i >= k && !errors.Is(r.Err, context.Canceled) {
					t.Fatalf("%s k=%d: scenario %d after the cut: err %v, want context.Canceled", name, k, i, r.Err)
				}
			}
		}
	}
}

// TestSweepDesignSwapsLeaveDesignCacheIntact: swap scenarios stitch a
// structural copy that derives its prep from the design's cached one, and
// every stitched top graph shares edge forms with that cache. After a sweep
// mixing shared and swap scenarios, the design's next analysis must be a
// prep-cache hit and bit-identical to its analysis before the sweep.
func TestSweepDesignSwapsLeaveDesignCacheIntact(t *testing.T) {
	d, _, alt := testDesign(t)
	ref, err := d.Analyze(ssta.FullCorrelation)
	if err != nil {
		t.Fatal(err)
	}
	scens := []scenario.Scenario{
		{Name: "unit"},
		{Name: "hot", Derate: 1.12, LocSigma: 1.3},
		{Name: "eco-B", Swaps: map[string]*ssta.Module{"B": alt}},
		{Name: "eco-B-hot", Derate: 1.1, Swaps: map[string]*ssta.Module{"B": alt}},
		{Name: "eco-all", Swaps: map[string]*ssta.Module{"A": alt, "B": alt, "C": alt, "D": alt}},
	}
	rep, err := scenario.SweepDesign(context.Background(), d, ssta.FullCorrelation, scens, scenario.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(scens) {
		t.Fatalf("completed %d of %d scenarios", rep.Completed, len(scens))
	}
	// A swap scenario's derived prep answers like a cold analysis of the
	// swapped design.
	dd := d.CopyStructure()
	for _, inst := range dd.Instances {
		if inst.Name == "B" {
			inst.Module = alt
		}
	}
	cold, err := dd.AnalyzeOpt(ssta.FullCorrelation, ssta.AnalyzeOptions{Workers: 1, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if diff := formDiff(rep.Results[2].Delay, cold.Delay); diff > 1e-9 {
		t.Fatalf("swap scenario differs from a cold analysis of the swapped design by %g", diff)
	}
	h0, m0 := hier.PrepCacheStats()
	res, err := d.Analyze(ssta.FullCorrelation)
	if err != nil {
		t.Fatal(err)
	}
	if h1, m1 := hier.PrepCacheStats(); h1 != h0+1 || m1 != m0 {
		t.Fatalf("design re-analysis after the sweep: %d hits, %d misses; want 1 hit, 0 misses", h1-h0, m1-m0)
	}
	if formDiff(res.Delay, ref.Delay) != 0 {
		t.Fatal("the sweep changed the design's delay")
	}
	for ei := range ref.Graph.Edges {
		if formDiff(res.Graph.Edges[ei].Delay, ref.Graph.Edges[ei].Delay) != 0 {
			t.Fatalf("the sweep changed the design's edge %d", ei)
		}
	}
}

// TestRescaledScenarioAllocatesLessThanABank: a non-identity scenario
// rescales the delays as the propagation gathers them, so a warm sweep of
// one such scenario over a flat graph allocates less than one edges x
// stride delay bank.
func TestRescaledScenarioAllocatesLessThanABank(t *testing.T) {
	g, _, err := ssta.DefaultFlow().BenchGraph("c1908", 1)
	if err != nil {
		t.Fatal(err)
	}
	scens := []scenario.Scenario{{Name: "hot", Derate: 1.1, LocSigma: 1.2, EdgeScales: map[int]float64{7: 1.3}}}
	sweep := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := scenario.SweepGraph(context.Background(), g, scens, scenario.Options{Workers: 1})
		runtime.ReadMemStats(&after)
		if err != nil || rep.Completed != 1 {
			t.Fatalf("sweep failed: %v", err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	sweep() // warm: flat delay bank, levels, pooled pass arena
	// Best of ten: the pass arena comes from a sync.Pool, which a garbage
	// collection (or the race detector) may empty between sweeps.
	best := uint64(math.MaxUint64)
	for i := 0; i < 10; i++ {
		best = min(best, sweep())
	}
	bank := uint64(len(g.Edges) * g.Space.Stride() * 8)
	if best >= bank {
		t.Fatalf("one rescaled scenario allocated %d bytes, not less than one %d-byte delay bank", best, bank)
	}
	t.Logf("rescaled scenario: %d bytes allocated, delay bank %d bytes", best, bank)
}
