package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/ssta"
)

// metricValue scrapes /metrics and returns the value of the series with
// the exact given name (including any label set), or -1 when absent.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	r, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	return -1
}

// TestCoalesceIdenticalRequests: N byte-identical concurrent /v1/analyze
// requests run exactly ONE engine execution, and every caller receives
// byte-identical response bodies. The execution is pinned behind the
// single analysis slot until all followers have attached, so the test is
// deterministic.
func TestCoalesceIdenticalRequests(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	s.sem <- struct{}{} // hold the only slot: the leader blocks at admission

	const N = 4
	req, _ := json.Marshal(AnalyzeRequest{Items: []ItemSpec{{Bench: "c432", Seed: 1}}})
	bodies := make([][]byte, N)
	statuses := make([]int, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := http.Post(hs.URL+"/v1/analyze", "application/json", bytes.NewReader(req))
			if err != nil {
				t.Error(err)
				return
			}
			defer r.Body.Close()
			statuses[i] = r.StatusCode
			bodies[i], _ = io.ReadAll(r.Body)
		}(i)
	}

	// All but the leader must register as coalesce hits while the leader is
	// still parked at the slot; only then may the execution proceed.
	deadline := time.Now().Add(10 * time.Second)
	for metricValue(t, hs.URL, `sstad_coalesce_hits_total{endpoint="analyze"}`) < N-1 {
		if time.Now().After(deadline) {
			t.Fatal("followers did not coalesce onto the in-flight request")
		}
		time.Sleep(2 * time.Millisecond)
	}
	<-s.sem // release the slot; the single execution runs
	wg.Wait()

	for i := 0; i < N; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("caller %d: status %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(bodies[0], &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Error != "" || out.Results[0].MeanPS <= 0 {
		t.Fatalf("bad coalesced result: %+v", out.Results)
	}
	// Exactly ONE engine execution for N callers.
	if got := metricValue(t, hs.URL, "sstad_items_total"); got != 1 {
		t.Fatalf("sstad_items_total = %g, want 1 (single coalesced execution)", got)
	}
	if got := metricValue(t, hs.URL, `sstad_requests_total{endpoint="analyze"}`); got != N {
		t.Fatalf("analyze requests = %g, want %d", got, N)
	}
}

const frontTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= frontTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestBatchedFrontMatchesIndependent: compatible concurrent requests —
// three sweeps with overlapping scenario sets plus one plain analyze, all
// against the same subject — merge into ONE shared-prep sweep execution,
// and every caller's response matches the unbatched server's answer for
// the same request at 1e-9.
func TestBatchedFrontMatchesIndependent(t *testing.T) {
	_, batched := newTestServer(t, Config{MaxConcurrent: 4, BatchWindow: 5 * time.Second, BatchMax: 4})
	_, plain := newTestServer(t, Config{MaxConcurrent: 4})

	item := ItemSpec{Bench: "c432", Seed: 1}
	sweeps := []SweepRequest{
		{ItemSpec: item, Scenarios: []SweepScenarioSpec{
			{ScenarioSpec: ssta.ScenarioSpec{Name: "unit"}},
			{ScenarioSpec: ssta.ScenarioSpec{Name: "hot", Derate: 1.15}},
		}},
		{ItemSpec: item, Scenarios: []SweepScenarioSpec{
			{ScenarioSpec: ssta.ScenarioSpec{Name: "toasty", Derate: 1.15}}, // dedupes with "hot"
			{ScenarioSpec: ssta.ScenarioSpec{Name: "sigma", GlobSigma: 1.4, RandSigma: 1.2}},
		}},
		{ItemSpec: item, Scenarios: []SweepScenarioSpec{
			{ScenarioSpec: ssta.ScenarioSpec{Name: "cold", Derate: 0.9}},
		}},
	}
	analyzeReq := AnalyzeRequest{Items: []ItemSpec{item}}

	// Fire all four concurrently at the batched server; BatchMax=4 flushes
	// the group the moment the last one arrives.
	gotSweeps := make([]SweepResponse, len(sweeps))
	var gotAnalyze AnalyzeResponse
	var wg sync.WaitGroup
	for i := range sweeps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gotSweeps[i] = sweepHTTP(t, batched.URL, sweeps[i])
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		gotAnalyze = analyze(t, batched.URL, analyzeReq)
	}()
	wg.Wait()

	// Reference answers, one independent request each.
	for i := range sweeps {
		want := sweepHTTP(t, plain.URL, sweeps[i])
		got := gotSweeps[i]
		if got.Scenarios != want.Scenarios || len(got.Results) != len(want.Results) {
			t.Fatalf("sweep %d: shape %d/%d vs %d/%d", i, got.Scenarios, len(got.Results), want.Scenarios, len(want.Results))
		}
		for k := range want.Results {
			g, w := got.Results[k], want.Results[k]
			if g.Name != w.Name || g.Error != w.Error ||
				!near(g.MeanPS, w.MeanPS) || !near(g.StdPS, w.StdPS) || !near(g.P9987PS, w.P9987PS) {
				t.Fatalf("sweep %d scenario %d: batched %+v vs independent %+v", i, k, g, w)
			}
		}
		if !near(got.Envelope.P9987PS, want.Envelope.P9987PS) || got.Envelope.Worst != want.Envelope.Worst {
			t.Fatalf("sweep %d envelope: batched %+v vs independent %+v", i, got.Envelope, want.Envelope)
		}
	}
	wantAnalyze := analyze(t, plain.URL, analyzeReq)
	g, w := gotAnalyze.Results[0], wantAnalyze.Results[0]
	if g.Error != "" || w.Error != "" {
		t.Fatalf("analyze errored: %q / %q", g.Error, w.Error)
	}
	if !near(g.MeanPS, w.MeanPS) || !near(g.StdPS, w.StdPS) || !near(g.P9987PS, w.P9987PS) ||
		g.Verts != w.Verts || g.Edges != w.Edges || g.Name != w.Name {
		t.Fatalf("analyze: batched %+v vs independent %+v", g, w)
	}

	// ONE batched execution answered all four callers, and the overlapping
	// derate scenario was evaluated once.
	if got := metricValue(t, batched.URL, "sstad_batch_executions_total"); got != 1 {
		t.Fatalf("batch executions = %g, want 1", got)
	}
	if got := metricValue(t, batched.URL, "sstad_batch_occupancy_sum"); got != 4 {
		t.Fatalf("batch occupancy = %g, want 4", got)
	}
	if got := metricValue(t, batched.URL, "sstad_batch_scenarios_deduped_total"); got < 1 {
		t.Fatalf("scenarios deduped = %g, want >= 1 (hot/toasty share a transform)", got)
	}
	if got := metricValue(t, batched.URL, `sstad_batch_flush_total{reason="size"}`); got != 1 {
		t.Fatalf("size flushes = %g, want 1", got)
	}

	// Batching changes only how seats gather: the analyze counts as an item
	// and every sweep scenario as a scenario, exactly as unbatched.
	for _, name := range []string{
		"sstad_items_total",
		"sstad_item_latency_seconds_count",
		"sstad_sweep_scenarios_total",
		"sstad_sweep_scenario_latency_seconds_count",
	} {
		if got, want := metricValue(t, batched.URL, name), metricValue(t, plain.URL, name); got != want {
			t.Fatalf("%s: batched %g, unbatched %g", name, got, want)
		}
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
}

func parseSSE(t *testing.T, raw []byte) []sseEvent {
	t.Helper()
	var evs []sseEvent
	for _, block := range bytes.Split(raw, []byte("\n\n")) {
		if len(bytes.TrimSpace(block)) == 0 {
			continue
		}
		var ev sseEvent
		for _, line := range bytes.Split(block, []byte("\n")) {
			if rest, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
				ev.name = string(rest)
			} else if rest, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
				ev.data = rest
			}
		}
		if ev.name == "" {
			t.Fatalf("unnamed SSE block: %q", block)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestSweepSSE: /v1/sweep with Accept: text/event-stream delivers one
// `scenario` event per scenario and a final `summary` whose payload
// matches the synchronous JSON answer.
func TestSweepSSE(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := SweepRequest{ItemSpec: ItemSpec{Bench: "c432", Seed: 1}, Scenarios: testSweepSpecs()}
	want := sweepHTTP(t, hs.URL, req)

	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/sweep", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "text/event-stream")
	r, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK || !strings.HasPrefix(r.Header.Get("Content-Type"), "text/event-stream") {
		data, _ := io.ReadAll(r.Body)
		t.Fatalf("SSE: status %d content-type %q: %s", r.StatusCode, r.Header.Get("Content-Type"), data)
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	evs := parseSSE(t, raw)
	if len(evs) != len(req.Scenarios)+1 {
		t.Fatalf("got %d events, want %d scenario + 1 summary:\n%s", len(evs), len(req.Scenarios), raw)
	}
	seen := make(map[int]bool)
	for _, ev := range evs[:len(req.Scenarios)] {
		if ev.name != "scenario" {
			t.Fatalf("event %q before summary, want scenario", ev.name)
		}
		var sc SweepScenarioEvent
		if err := json.Unmarshal(ev.data, &sc); err != nil {
			t.Fatalf("scenario event: %v: %s", err, ev.data)
		}
		if sc.Error != "" || seen[sc.Index] {
			t.Fatalf("scenario event %+v (err or duplicate index)", sc)
		}
		seen[sc.Index] = true
		w := want.Results[sc.Index]
		if sc.Name != w.Name || !near(sc.MeanPS, w.MeanPS) || !near(sc.P9987PS, w.P9987PS) {
			t.Fatalf("scenario event %+v vs sync %+v", sc, w)
		}
	}
	last := evs[len(evs)-1]
	if last.name != "summary" {
		t.Fatalf("final event %q, want summary", last.name)
	}
	var sum SweepResponse
	if err := json.Unmarshal(last.data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Completed != want.Completed || !near(sum.Envelope.P9987PS, want.Envelope.P9987PS) ||
		sum.Envelope.Worst != want.Envelope.Worst || len(sum.Results) != len(want.Results) {
		t.Fatalf("summary %+v vs sync %+v", sum, want)
	}
}

// TestSessionSweepAndEditSSE: a session created with scenarios carries an
// active MCMM sweep; an SSE edit batch streams one re-evaluated scenario
// event per scenario before the summary, and the summary carries the
// refreshed sweep.
func TestSessionSweepAndEditSSE(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	create := SessionCreateRequest{
		ItemSpec: ItemSpec{Bench: "c432", Seed: 1},
		Scenarios: []SweepScenarioSpec{
			{ScenarioSpec: ssta.ScenarioSpec{Name: "unit"}},
			{ScenarioSpec: ssta.ScenarioSpec{Name: "hot", Derate: 1.15}},
		},
	}
	resp, data := postJSON(t, hs.URL+"/v1/sessions", create)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	var v SessionView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.Sweep == nil || len(v.Sweep.Results) != 2 || v.Sweep.Results[1].Name != "hot" {
		t.Fatalf("create response carries no sweep: %s", data)
	}
	baseHot := v.Sweep.Results[1].MeanPS

	edits, _ := json.Marshal(SessionEditRequest{Edits: []EditSpec{{Op: "scale_delay", Edge: 0, Scale: 1.5}}})
	hreq, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/sessions/"+v.ID+"/edits", bytes.NewReader(edits))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "text/event-stream")
	r, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK || !strings.HasPrefix(r.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("edit SSE: status %d content-type %q: %s", r.StatusCode, r.Header.Get("Content-Type"), raw)
	}
	evs := parseSSE(t, raw)
	if len(evs) != 3 { // 2 scenario + 1 summary
		t.Fatalf("got %d events, want 3:\n%s", len(evs), raw)
	}
	for _, ev := range evs[:2] {
		if ev.name != "scenario" {
			t.Fatalf("event %q, want scenario", ev.name)
		}
	}
	var sum SessionEditResponse
	if evs[2].name != "summary" {
		t.Fatalf("final event %q, want summary", evs[2].name)
	}
	if err := json.Unmarshal(evs[2].data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Applied != 1 || sum.Sweep == nil || len(sum.Sweep.Results) != 2 {
		t.Fatalf("summary missing refreshed sweep: %s", evs[2].data)
	}
	if sum.Sweep.Results[1].MeanPS <= baseHot {
		t.Fatalf("hot scenario did not move after a 1.5x edge scale: %g vs %g", sum.Sweep.Results[1].MeanPS, baseHot)
	}
	// The synchronous view reflects the same refreshed sweep.
	gr, err := http.Get(hs.URL + "/v1/sessions/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	gdata, _ := io.ReadAll(gr.Body)
	gr.Body.Close()
	var after SessionView
	if err := json.Unmarshal(gdata, &after); err != nil {
		t.Fatal(err)
	}
	if after.Sweep == nil || !near(after.Sweep.Results[1].MeanPS, sum.Sweep.Results[1].MeanPS) {
		t.Fatalf("GET sweep %+v does not match edit summary %+v", after.Sweep, sum.Sweep)
	}
}

// TestJobsListAndIdempotentDelete: GET /v1/jobs pages newest-first, and
// DELETE of a job that already reached a terminal state answers 204 with
// no body — repeat DELETEs are idempotent.
func TestJobsListAndIdempotentDelete(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, data := postJSON(t, hs.URL+"/v1/jobs", AnalyzeRequest{Items: []ItemSpec{{Bench: "c432", Seed: 1}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var jv JobView
	if err := json.Unmarshal(data, &jv); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for jv.Status != JobDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", jv.Status)
		}
		time.Sleep(5 * time.Millisecond)
		r, _ := http.Get(hs.URL + "/v1/jobs/" + jv.ID)
		data, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(data, &jv); err != nil {
			t.Fatal(err)
		}
	}

	r, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(r.Body)
	r.Body.Close()
	var list struct {
		Jobs  []JobSummary `json:"jobs"`
		Count int          `json:"count"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatalf("list: %v: %s", err, data)
	}
	if list.Count != 1 || len(list.Jobs) != 1 || list.Jobs[0].ID != jv.ID || list.Jobs[0].Status != JobDone {
		t.Fatalf("list = %s, want one done job %s", data, jv.ID)
	}
	if r, _ := http.Get(hs.URL + "/v1/jobs?limit=abc"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit: %d, want 400", r.StatusCode)
	} else {
		r.Body.Close()
	}

	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+jv.ID, nil)
		dr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(dr.Body)
		dr.Body.Close()
		if dr.StatusCode != http.StatusNoContent || len(body) != 0 {
			t.Fatalf("DELETE %d of finished job: status %d body %q, want 204 empty", i, dr.StatusCode, body)
		}
	}
	// The job record is untouched: still done, still pollable.
	pr, _ := http.Get(hs.URL + "/v1/jobs/" + jv.ID)
	pdata, _ := io.ReadAll(pr.Body)
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK || !strings.Contains(string(pdata), fmt.Sprintf("%q", JobDone)) {
		t.Fatalf("poll after DELETE: %d %s", pr.StatusCode, pdata)
	}
}
