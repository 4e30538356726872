package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that each run passes its output checks and emits every metric of
// its mode with its unit. Run from this directory: go test ./...
func TestSmoke(t *testing.T) {
	for _, wl := range []string{"characterize", "hier", "serve"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl, seed: 1, seconds: 1, trace: trace, tiny: true, outDir: t.TempDir()}
			name := wl
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := execute(cfg, &out)
				if err != nil {
					t.Fatalf("execute: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", m.name, got, ok, m.unit)
					}
				}
				// The result line round-trips with exactly the four keys.
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
					t.Errorf("result line %s: keys %v (%v)", line, keys, err)
				}
				if trace && !strings.Contains(out.String(), "span (self time)") {
					t.Errorf("traced run printed no per-layer table")
				}
			})
		}
	}
}

// TestSelfTimes checks that a span's self time excludes the union of its
// children, counting overlapping children once.
func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "root", Start: 0, End: 10000},
		{ID: 2, Parent: 1, Name: "a", Start: 1000, End: 4000},
		{ID: 3, Parent: 1, Name: "b", Start: 3000, End: 6000},
		{ID: 4, Parent: 2, Name: "c", Start: 1000, End: 2000},
	}
	got := selfTimes(spans)
	want := []float64{5, 2, 3, 1} // ms
	for i := range want {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Errorf("span %s self time %g ms, want %g", spans[i].Name, got[i], want[i])
		}
	}
}

// TestTail checks the tail percentile keeps ten samples beyond it.
func TestTail(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	if v, p := s.tail(); p != 99 || v != 990 {
		t.Errorf("1000 samples: tail p%g = %g, want p99 = 990", p, v)
	}
	if v, p := s[:30].tail(); p != 100 || v != 30 {
		t.Errorf("30 samples: tail p%g = %g, want the maximum", p, v)
	}
}
