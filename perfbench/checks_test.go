package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netquant"
	"repro/internal/report"
)

func sampleArtifacts() Artifacts {
	a := Artifacts{}
	for _, id := range report.All() {
		a[id] = []byte(string(id) + "\t1\n")
	}
	return a
}

func TestWrongReferenceCountsAsFailure(t *testing.T) {
	ref := sampleArtifacts()
	wrong := sampleArtifacts()
	wrong[report.Fig5] = []byte("fig5\t2\n")
	if ref.Digest() == wrong.Digest() {
		t.Fatal("digest ignores fig5")
	}
	var tal Tally
	tal.Check("same", checkSame(ref, sampleArtifacts()))
	tal.Check("wrong", checkSame(wrong, sampleArtifacts()))
	if tal.Attempted != 2 || tal.Failed != 1 || tal.Frac() != 0.5 {
		t.Fatalf("tally %+v, want 1 of 2 failed", tal)
	}
}

func TestShortWindowCountsAsFailure(t *testing.T) {
	const nv = 1 << 10
	full := []netquant.Quantities{{ValidPackets: nv}, {ValidPackets: nv}}
	short := []netquant.Quantities{{ValidPackets: nv}, {ValidPackets: nv - 1}}
	var tal Tally
	tal.Check("full", checkWindows(full, 2, nv))
	tal.Check("short", checkWindows(short, 2, nv))
	tal.Check("missing window", checkWindows(full[:1], 2, nv))
	if tal.Attempted != 3 || tal.Failed != 2 {
		t.Fatalf("tally %+v, want 2 of 3 failed", tal)
	}
}

func TestNon2xxResponseCountsAsFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/artifacts/table1" {
			w.Write([]byte("ok"))
			return
		}
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	var tal Tally
	body, err := checkResponse(http.Get(srv.URL + "/artifacts/table1"))
	if !tal.Check("GET table1", err) || string(body) != "ok" {
		t.Fatalf("2xx response rejected: %v", err)
	}
	_, err = checkResponse(http.Get(srv.URL + "/artifacts/fig5"))
	tal.Check("GET fig5", err)
	if tal.Failed != 1 {
		t.Fatalf("tally %+v, want the 503 counted as one failure", tal)
	}

	// The open-loop reader keeps going through refusals and counts
	// each one, recording latencies only for the successes.
	stop := make(chan struct{})
	time.AfterFunc(200*time.Millisecond, func() { close(stop) })
	var rt Tally
	lat, late := openLoopReader(srv.URL, stop, &rt)
	if rt.Attempted < 2 || rt.Failed == 0 || rt.Failed == rt.Attempted {
		t.Fatalf("reader tally %+v, want some table1 successes and some refusals", rt)
	}
	if len(lat) != rt.Attempted-rt.Failed || len(late) != rt.Attempted {
		t.Fatalf("%d latencies and %d lateness samples for tally %+v", len(lat), len(late), rt)
	}
}

func TestStoreHealthDegradedCountsAsFailure(t *testing.T) {
	if err := checkHealth(core.StoreHealth{}); err != nil {
		t.Fatalf("healthy store rejected: %v", err)
	}
	if err := checkHealth(core.StoreHealth{Degraded: true, DownNodes: []string{"a"}}); err == nil {
		t.Fatal("degraded store accepted")
	}
}

func TestCoverageCheck(t *testing.T) {
	for c, ok := range map[float64]bool{1: true, 0.96: true, 1.04: true, 0.94: false, 1.2: false} {
		if err := checkCoverage(c); (err == nil) != ok {
			t.Errorf("checkCoverage(%v) = %v, want ok=%v", c, err, ok)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64
	}{{20, 50}, {40, 75}, {60, 80}, {100, 90}, {180, 90}, {200, 95}, {1000, 99}, {5000, 99.5}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		pct, _, ok := tail(xs)
		if !ok || pct != tc.pct {
			t.Errorf("tail of %d samples at p%v (ok=%v), want p%v", tc.n, pct, ok, tc.pct)
		}
	}
	if _, _, ok := tail(make([]float64, 19)); ok {
		t.Error("tail of 19 samples reported")
	}
}

func TestPaperOrderInterleavesChronologically(t *testing.T) {
	cfg := core.QuickConfig()
	order := paperOrder(cfg, cfg.SnapshotTimes)
	if len(order) != cfg.Radiation.Months+len(cfg.SnapshotTimes) {
		t.Fatalf("%d steps", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i].when.Before(order[i-1].when) {
			t.Fatalf("step %d out of order", i)
		}
	}
	// The first snapshot (2020-06-17) follows the June month (index 4).
	if !order[5].snap || order[4].snap || order[4].month != 4 {
		t.Fatalf("first snapshot at step %+v", order[5])
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}

	s := &samples{}
	for i := 0; i < 200; i++ {
		v := float64(i + 1)
		s.setup, s.study, s.cpu = append(s.setup, v), append(s.study, v), append(s.cpu, v)
		s.month, s.snap, s.gets = append(s.month, v), append(s.snap, v), append(s.gets, v)
	}
	e2e, err := s.endToEnd()
	if err != nil {
		t.Fatal(err)
	}
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("endToEnd reports %d metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): reported %+v", m.Name, m.Unit, got)
		}
	}

	if len(layerMetrics) != len(spec.PerLayer) {
		t.Fatalf("%d layer metrics, BENCHMARK.json lists %d", len(layerMetrics), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if lm := layerMetrics[i]; lm.name != m.Name || lm.unit != m.Unit {
			t.Errorf("per-layer %d: have %s (%s), BENCHMARK.json %s (%s)", i, lm.name, lm.unit, m.Name, m.Unit)
		}
	}
}

// A population too small to fill a window makes every study and unit
// pass fail; each failure is counted and the run ends with an error
// instead of printing a result.
func TestShortWindowStudiesAreCounted(t *testing.T) {
	cfg := core.QuickConfig()
	cfg.Radiation.NumSources = 50
	plan := cyclePlan{minStudies: 2, maxStudies: 2, minPasses: 1, maxPasses: 1}
	e := &env{workload: "quick-cluster", seconds: 0, tmp: t.TempDir(), tally: &Tally{}, start: time.Now()}
	if _, err := runBatch(e, []core.Config{cfg}, []Artifacts{sampleArtifacts()}, plan); err == nil {
		t.Fatal("runBatch reported metrics without a single complete study")
	}
	want := plan.minStudies + plan.minPasses // every study and unit pass
	if e.tally.Failed != want || e.tally.Attempted != want {
		t.Fatalf("tally %+v, want all %d studies and passes failed", *e.tally, want)
	}
}

func TestOverheadCheck(t *testing.T) {
	for o, ok := range map[float64]bool{0: true, 0.2: true, -0.2: true, 0.5: false, -0.4: false} {
		if err := checkOverhead(o); (err == nil) != ok {
			t.Errorf("checkOverhead(%v) = %v, want ok=%v", o, err, ok)
		}
	}
}

// The peak-RSS mark is reset after the off-clock references, so a
// large allocation freed before the reset does not show afterwards.
func TestPeakRSSResets(t *testing.T) {
	big := make([]byte, 64<<20)
	for i := range big {
		big[i] = 1
	}
	before, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	big = nil
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	after, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if before < 64 || after > before-32 {
		t.Fatalf("peak RSS %.0f MB before the reset, %.0f MB after", before, after)
	}
}

func TestGrowOverHTTPMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("grows a quick study")
	}
	cfg := core.QuickConfig()
	ref, err := referenceArtifacts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{workload: "daemon-grow", tally: &Tally{}, start: time.Now()}
	s := &samples{}
	order := paperOrder(cfg, cfg.SnapshotTimes)
	if _, err := growOverHTTP(e, residentConfig(cfg), order, ref, s); err != nil {
		t.Fatal(err)
	}
	if e.tally.Failed != 0 {
		t.Fatalf("tally %+v", *e.tally)
	}
	if len(s.month) != cfg.Radiation.Months || len(s.snap) != len(cfg.SnapshotTimes) || len(s.study) != 1 {
		t.Fatalf("samples: %d months, %d snapshots, %d studies", len(s.month), len(s.snap), len(s.study))
	}

	// The same growth checked against a wrong reference is a failure.
	bad := Artifacts{}
	for id, b := range ref {
		bad[id] = b
	}
	bad[report.Table1] = []byte("not table1\n")
	if _, err := growOverHTTP(e, residentConfig(cfg), order, bad, s); err != nil {
		t.Fatal(err)
	}
	if e.tally.Failed != 1 {
		t.Fatalf("tally %+v, want the wrong reference counted once", *e.tally)
	}
}
