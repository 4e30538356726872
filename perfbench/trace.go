package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phases a span can belong to. Per-layer metrics prefer the timed loop: a
// layer that runs there is reported from its loop spans alone, a layer that
// runs only in set-up or checks from those.
const (
	phaseSetup = "setup"
	phaseLoop  = "loop"
	phaseCheck = "check"
)

// spanRec is one finished span as written to the span file.
type spanRec struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Req    int64   `json:"req,omitempty"`
	Name   string  `json:"name"`
	Phase  string  `json:"phase"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	phase atomic.Value // string

	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.phase.Store(phaseSetup)
	return t
}

func (t *tracer) setPhase(p string) {
	if t != nil {
		t.phase.Store(p)
	}
}

// span is an open span. Methods on a nil *span are no-ops.
type span struct {
	t      *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// start opens a span under parent (nil: a root span). Child spans inherit
// the parent's request id.
func (t *tracer) start(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{t: t, id: t.next.Add(1), name: name, start: time.Now()}
	if parent != nil {
		s.parent, s.req = parent.id, parent.req
	}
	return s
}

// record adds an already measured interval as a child of span id parent
// in request req (ids travel in request headers across the HTTP hop).
func (t *tracer) record(parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := &span{t: t, id: t.next.Add(1), parent: parent, req: req, name: name, start: start}
	s.endAt(end)
}

func (s *span) end() {
	if s != nil {
		s.endAt(time.Now())
	}
}

func (s *span) endAt(end time.Time) {
	t := s.t
	rec := spanRec{
		ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Phase: t.phase.Load().(string),
		Start: float64(s.start.Sub(t.epoch).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(t.epoch).Nanoseconds()) / 1e3,
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name    string
	Count   int
	TotalMS float64 // summed self time
	MeanMS  float64 // self time per span
	Phase   string  // "loop" when loop spans exist, else "all"
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover (children may overlap; their union is subtracted).
func selfTimes(spans []spanRec) []float64 {
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		iv := make([][2]float64, 0, len(children[s.ID]))
		for _, c := range children[s.ID] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]float64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curLo, curHi := 0.0, 0.0, -1.0
		for _, v := range iv {
			if v[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v[0], v[1]
			} else if v[1] > curHi {
				curHi = v[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = (s.End - s.Start - covered) / 1e3
	}
	return self
}

// layers aggregates self time per span name, preferring loop spans.
func (t *tracer) layers() map[string]layerStat {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	inLoop := map[string]bool{}
	for _, s := range spans {
		if s.Phase == phaseLoop {
			inLoop[s.Name] = true
		}
	}
	out := map[string]layerStat{}
	for i, s := range spans {
		if inLoop[s.Name] && s.Phase != phaseLoop {
			continue
		}
		st := out[s.Name]
		st.Name = s.Name
		st.Count++
		st.TotalMS += self[i]
		st.Phase = "all"
		if inLoop[s.Name] {
			st.Phase = phaseLoop
		}
		out[s.Name] = st
	}
	for k, st := range out {
		st.MeanMS = st.TotalMS / float64(st.Count)
		out[k] = st
	}
	return out
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayers writes the per-layer self-time table, largest total first.
func printLayers(w io.Writer, ls map[string]layerStat) {
	rows := make([]layerStat, 0, len(ls))
	for _, st := range ls {
		rows = append(rows, st)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].TotalMS > rows[b].TotalMS })
	fmt.Fprintf(w, "%-28s %8s %12s %12s %6s\n", "span (self time)", "count", "total_ms", "mean_ms", "phase")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.4f %6s\n", r.Name, r.Count, r.TotalMS, r.MeanMS, r.Phase)
	}
}
