package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/store"
)

// v1ModelPayload returns a c17 model in the wire form a version-1 (cyclic
// Jacobi basis) writer produced: today's payload with the old version.
func v1ModelPayload(t *testing.T) []byte {
	t.Helper()
	m, err := Extract(buildGraph(t, "c17", 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	cur := []byte(`"format_version":2,`)
	if !bytes.Contains(buf.Bytes(), cur) {
		t.Fatalf("payload does not carry %s: %.80s", cur, buf.Bytes())
	}
	return bytes.Replace(buf.Bytes(), cur, []byte(`"format_version":1,`), 1)
}

// TestModelFormatV1Refused: a v1 model's loc coefficients are in the basis
// the old eigensolver picked, which the rebuilt PCA no longer reproduces
// inside repeated eigenvalues, so both the bare payload and a sealed v1
// snapshot are refused instead of being read with the wrong basis.
func TestModelFormatV1Refused(t *testing.T) {
	if ModelSnapshotVersion != 2 {
		t.Fatalf("ModelSnapshotVersion = %d, want 2", ModelSnapshotVersion)
	}
	v1 := v1ModelPayload(t)
	if _, err := ReadJSON(bytes.NewReader(v1)); err == nil {
		t.Fatal("v1 model payload accepted")
	}
	_, err := DecodeModelSnapshot(store.Seal(ModelSnapshotKind, 1, v1))
	if !errors.Is(err, store.ErrVersion) {
		t.Fatalf("v1 model snapshot: err = %v, want store.ErrVersion", err)
	}
}
