package core

import (
	"bytes"
	"math"
	"testing"
)

// TestJSONModelSelfContained verifies the IP-exchange property: a model
// loaded from JSON carries a rebuilt grid model identical to the original,
// so design-level variable replacement works without any side channel.
func TestJSONModelSelfContained(t *testing.T) {
	g := buildGraph(t, "c432", 1)
	m, err := Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Graph.Grids == nil {
		t.Fatal("loaded model has no grid model")
	}
	if back.Graph.Grids.N() != g.Grids.N() || back.Graph.Grids.Comps != g.Grids.Comps {
		t.Fatalf("grid model shape changed: %d/%d vs %d/%d",
			back.Graph.Grids.N(), back.Graph.Grids.Comps, g.Grids.N(), g.Grids.Comps)
	}
	// The rebuilt PCA must be bitwise-deterministic: same correlation
	// inputs, same eigensolver code path.
	for i := 0; i < g.Grids.N(); i++ {
		a := g.Grids.A.Row(i)
		b := back.Graph.Grids.A.Row(i)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("PCA factor differs at (%d,%d): %g vs %g", i, k, a[k], b[k])
			}
		}
	}
	if back.Graph.OutputLoadSlopes == nil {
		t.Fatal("loaded model lost output load slopes")
	}
	// Variation parameters survive.
	if len(back.Graph.Params) != len(g.Params) {
		t.Fatal("params lost")
	}
	for i := range g.Params {
		if back.Graph.Params[i] != g.Params[i] {
			t.Fatalf("param %d changed: %+v vs %+v", i, back.Graph.Params[i], g.Params[i])
		}
	}
	// Delay behaviour identical.
	d1, err := m.Graph.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := back.Graph.MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d1.Mean()-d2.Mean()) > 1e-9 || math.Abs(d1.Std()-d2.Std()) > 1e-9 {
		t.Fatal("delay distribution changed through JSON")
	}
}

func TestJSONRejectsInconsistentGrid(t *testing.T) {
	g := buildGraph(t, "c17", 1)
	m, err := Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the grid block: claim a much larger grid.
	s := buf.String()
	corrupted := bytes.ReplaceAll(buf.Bytes(), []byte(`"grid":{"nx":1,"ny":1`), []byte(`"grid":{"nx":9,"ny":9`))
	if bytes.Equal(corrupted, []byte(s)) {
		t.Skip("grid JSON layout changed; corruption pattern missed")
	}
	if _, err := ReadJSON(bytes.NewReader(corrupted)); err == nil {
		t.Fatal("inconsistent grid accepted")
	}
}
