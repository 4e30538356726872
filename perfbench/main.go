// Command perfbench is the repository benchmark: three workloads
// (characterize, hier, serve) run against the public entry points of the
// SSTA library and the sstad server, with output checks, end-to-end
// metrics from untraced runs and per-layer self times from traced runs.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload characterize|hier|serve --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check makes the
// run exit with code 1; an error before any result exits with code 2.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/ssta"
)

type metricDef struct{ name, unit string }

// endToEnd is every end-to-end metric; each workload reports all of them
// (see README.md for what each means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"characterize_s", "s"},
	{"model_edge_pct", "%"},
	{"merr_max_pct", "%"},
	{"verr_max_pct", "%"},
	{"fig7_ks", "1"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer is every per-layer metric of a traced run. Names ending in _ms
// are the mean self time of the spans of that name; the rest are counts,
// ratios and sizes the workloads record.
var perLayer = []metricDef{
	{"circuit.generate_ms", "ms"},
	{"place.topological_ms", "ms"},
	{"variation.grid_model_ms", "ms"},
	{"timing.build_ms", "ms"},
	{"canon.dim", "count"},
	{"core.extract_ms", "ms"},
	{"core.criticality_ms", "ms"},
	{"core.screened_boundaries", "count"},
	{"core.model_edges", "count"},
	{"core.model_verts", "count"},
	{"hier.stitch_cold_ms", "ms"},
	{"hier.stitch_warm_ms", "ms"},
	{"hier.stitch_global_ms", "ms"},
	{"timing.propagate_ms", "ms"},
	{"hier.prep_cache_hit_ratio", "ratio"},
	{"scenario.sweep_ms", "ms"},
	{"scenario.scenario_ms", "ms"},
	{"scenario.alloc_mb", "MiB"},
	{"ssta.session_apply_ms", "ms"},
	{"server.handler_analyze_ms", "ms"},
	{"server.handler_sweep_ms", "ms"},
	{"server.handler_edit_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.coalesce_hit_ratio", "ratio"},
	{"server.graph_cache_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"server.scenario_ms", "ms"},
	{"gen.late_ms", "ms"},
	{"mc.all_pairs_ms", "ms"},
	{"mc.max_delay_samples_ms", "ms"},
	{"hier.flatten_ms", "ms"},
	{"go.alloc_mb", "MiB"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"loop.latency_tail_ms", "ms"},
}

// spanMetric maps a per-layer _ms metric onto the span name it reads,
// where the two differ.
var spanMetric = map[string]string{
	"server.transport_ms": "server.request",
}

// workload is one benchmark workload.
type workload interface {
	// setup brings the workload to its measured state, replacing any state
	// of an earlier set-up, and returns its wall time.
	setup(r *run, tr *tracer) (time.Duration, error)
	// loop runs the timed region for about budget.
	loop(r *run, tr *tracer, budget time.Duration) loopStats
	// finish runs the checks and accuracy oracles that follow the loop.
	finish(r *run, tr *tracer)
	close()
}

// loopStats is what a timed loop measured.
type loopStats struct {
	latency samples       // the workload's primary operation, ms
	work    float64       // units of work completed for the throughput
	busy    time.Duration // time the work took
	ops     int           // operations completed in the loop
	what    string        // names the primary operation for the report
	values  map[string]float64
}

// merge adds the samples and work of another slice of the loop.
func (l *loopStats) merge(o loopStats) {
	l.latency = append(l.latency, o.latency...)
	l.work += o.work
	l.busy += o.busy
	l.ops += o.ops
	l.what = o.what
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool
	outDir   string
}

// run carries one invocation's accounting: operations attempted and
// failed, values recorded by the workload, and the failures seen.
type run struct {
	cfg       config
	rng       *rand.Rand
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string
	vals     map[string]float64
	char     map[string]samples     // netlist->model wall times by step, ms
	graphS   samples                // Flow.Graph wall times on the largest netlist, ms
	sweeps   map[string]*sweepTally // by span phase, traced runs only
}

// sweepTally accumulates the scenario layer's numbers over sweeps.
type sweepTally struct {
	sweeps, scenarios   int
	scenarioMS, allocMB float64
}

func (r *run) noteSweep(phase string, rep *ssta.SweepReport, allocMB float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.sweeps[phase]
	if t == nil {
		t = &sweepTally{}
		r.sweeps[phase] = t
	}
	t.sweeps++
	t.allocMB += allocMB
	for _, res := range rep.Results {
		t.scenarios++
		t.scenarioMS += float64(res.Elapsed.Nanoseconds()) / 1e6
	}
}

// sweepValues reports the scenario layer from loop sweeps when the loop
// ran any, else from every sweep.
func (r *run) sweepValues() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.sweeps[phaseLoop]
	if t == nil {
		t = &sweepTally{}
		for _, p := range r.sweeps {
			t.sweeps += p.sweeps
			t.scenarios += p.scenarios
			t.scenarioMS += p.scenarioMS
			t.allocMB += p.allocMB
		}
	}
	return map[string]float64{
		"scenario.scenario_ms": t.scenarioMS / float64(max(1, t.scenarios)),
		"scenario.alloc_mb":    t.allocMB / float64(max(1, t.sweeps)),
	}
}

// op counts one operation and records its failure, if any.
func (r *run) op(err error) bool {
	r.attempted.Add(1)
	if err == nil {
		return true
	}
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
	r.mu.Unlock()
	return false
}

// same checks got against want at 1e-9 relative and counts the check.
func (r *run) same(what string, got, want float64) bool {
	if relErr(got, want) <= 1e-9 {
		return r.op(nil)
	}
	return r.op(fmt.Errorf("%s: got %.12g want %.12g", what, got, want))
}

// sameForm compares two delay forms by mean and std.
func (r *run) sameForm(what string, got, want interface {
	Mean() float64
	Std() float64
}) bool {
	return r.same(what+" mean", got.Mean(), want.Mean()) && r.same(what+" std", got.Std(), want.Std())
}

// checkPins checks one reference pin at the precision it is quoted in.
func (r *run) checkPins(bench string, mean, std float64) {
	for _, p := range refPins {
		if p.bench != bench {
			continue
		}
		if d := max(math.Abs(mean-p.mean), math.Abs(std-p.std)); d > 0.006 {
			r.op(fmt.Errorf("reference pin %s: got %.2f/%.2f ps want %.2f/%.2f ps", bench, mean, std, p.mean, p.std))
		} else {
			r.op(nil)
		}
	}
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.vals[name] = v
	r.mu.Unlock()
}

// addChar records one timing of a characterization step (a module's
// netlist->model, or one part of it).
func (r *run) addChar(step string, d time.Duration) {
	r.mu.Lock()
	s := r.char[step]
	s.add(d)
	r.char[step] = s
	r.mu.Unlock()
}

// characterizeS sums each characterization step's fastest timing, in
// seconds, so a burst of host contention in one repetition does not count.
func (r *run) characterizeS() float64 {
	sum := 0.0
	for _, s := range r.char {
		sum += s.quantile(0)
	}
	return sum / 1e3
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "characterize":
		return &characterize{}, nil
	case "hier":
		return &hierWorkload{}, nil
	case "serve":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (characterize, hier or serve)", name)
}

// execute runs one invocation and returns its result. An error means no
// result could be produced (set-up failed).
func execute(cfg config, out io.Writer) (*result, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	r := &run{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), vals: map[string]float64{}, sweeps: map[string]*sweepTally{}, char: map[string]samples{}}
	prov := hostProvenance()
	prov.Workload, prov.Seed, prov.Seconds, prov.Tiny = cfg.workload, cfg.seed, cfg.seconds, cfg.tiny
	if cfg.trace {
		prov.Trace = 1
	}
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(out, "provenance %s\n", pj)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	budget := time.Duration(cfg.seconds) * time.Second
	metrics := map[string]metricVal{}
	var setups samples
	setup := func(tr *tracer) error {
		w.close()
		runtime.GC()
		d, err := w.setup(r, tr)
		if err != nil {
			w.close()
			return fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups.add(d)
		return nil
	}
	defer w.close()
	if !cfg.trace {
		// The run alternates set-ups with slices of the timed loop, so
		// every metric samples the whole run rather than one stretch of
		// a host whose speed drifts. Set-up time is the median of the
		// set-ups, so work moved into set-up shows.
		slices := 5
		if cfg.tiny {
			slices = 1
		}
		var ls loopStats
		var peak float64
		for i := 0; i < slices; i++ {
			if err := setup(nil); err != nil {
				return nil, err
			}
			runtime.GC()
			ls.merge(w.loop(r, nil, budget/time.Duration(slices)))
			peak = max(peak, liveHeapMiB())
		}
		w.finish(r, nil)
		lat, pct := ls.latency.tail()
		vals := map[string]float64{
			"setup_s":          setups.median() / 1e3,
			"peak_heap_mb":     peak,
			"characterize_s":   r.characterizeS(),
			"latency_p50_ms":   ls.latency.median(),
			"throughput_per_s": ls.work / ls.busy.Seconds(),
		}
		for _, m := range endToEnd {
			v, ok := vals[m.name]
			if !ok {
				v = r.vals[m.name]
			}
			metrics[m.name] = metricVal{v, m.unit}
		}
		fmt.Fprintf(out, "workload %s seed %d: %d set-ups, each followed by a loop slice; loop: %d %s (latency tail = p%g)\n",
			cfg.workload, cfg.seed, len(setups), ls.ops, ls.what, pct)
		fmt.Fprintf(out, "set-up times (ms): %.1f\n", setups)
		for _, step := range sortedKeys(r.char) {
			fmt.Fprintf(out, "characterization step %s (ms): %.1f\n", step, r.char[step])
		}
		fmt.Fprintf(out, "latency tail (p%g of %d): %.4f ms\n", pct, len(ls.latency), lat)
		printMetrics(out, endToEnd, metrics)
	} else {
		if err := setup(tr); err != nil {
			return nil, err
		}
		runtime.GC()
		plain := w.loop(r, nil, budget/2)
		gc := readGC()
		hits0, misses0 := ssta.PrepCacheStats()
		tr.setPhase(phaseLoop)
		traced := w.loop(r, tr, budget/2)
		allocMB, pauseMS := gc.since()
		tr.setPhase(phaseCheck)
		w.finish(r, tr)
		hits, misses := ssta.PrepCacheStats()

		layers := tr.layers()
		fmt.Fprintf(out, "workload %s seed %d traced: per-layer self time\n", cfg.workload, cfg.seed)
		printLayers(out, layers)
		overhead := 100 * (traced.latency.median()/plain.latency.median() - 1)
		fmt.Fprintf(out, "tracing overhead: %s p50 %.4f ms untraced (%d ops) vs %.4f ms traced (%d ops): %+.2f%%\n",
			plain.what, plain.latency.median(), plain.ops, traced.latency.median(), traced.ops, overhead)
		vals := r.sweepValues()
		vals["go.alloc_mb"], vals["go.gc_pause_ms"], vals["trace.overhead_pct"] = allocMB, pauseMS, overhead
		vals["loop.latency_tail_ms"], _ = plain.latency.tail()
		// Prep-cache hits over the traced loop and checks.
		vals["hier.prep_cache_hit_ratio"] = float64(hits-hits0) / float64(max(1, hits-hits0+misses-misses0))
		for k, v := range plain.values {
			vals[k] = v
		}
		for k, v := range traced.values {
			vals[k] = v
		}
		for _, m := range perLayer {
			v, ok := vals[m.name]
			if !ok {
				v, ok = r.vals[m.name]
			}
			if !ok && m.unit == "ms" {
				name := spanMetric[m.name]
				if name == "" {
					name = strings.TrimSuffix(m.name, "_ms")
				}
				st, found := layers[name]
				v, ok = st.MeanMS, found
			}
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s: no measurement for %s\n", cfg.workload, m.name)
			}
			metrics[m.name] = metricVal{v, m.unit}
		}
		printMetrics(out, perLayer, metrics)
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.writeFile(path); err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}

	res := &result{
		Correct:   r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   metrics,
	}
	fmt.Fprintf(out, "operations attempted %d failed %d\n", res.Attempted, res.Failed)
	for _, f := range r.failures {
		fmt.Fprintf(out, "FAILED: %s\n", f)
	}
	if err := writeResultFile(cfg, prov, res); err != nil {
		return nil, err
	}
	return res, nil
}

func printMetrics(w io.Writer, defs []metricDef, m map[string]metricVal) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
}

// writeResultFile keeps the result with its provenance next to the build.
func writeResultFile(cfg config, prov provenance, res *result) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("result dir: %w", err)
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		*result
	}{prov, res}, "", "  ")
	if err != nil {
		return err
	}
	tr := 0
	if cfg.trace {
		tr = 1
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, tr))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: characterize, hier or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed region in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.BoolVar(&cfg.tiny, "tiny", false, "smoke-test size: small modules and few Monte Carlo samples")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "results"), "directory for result and span files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1

	res, err := execute(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
