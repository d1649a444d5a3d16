package core

// scheduler_test.go proves the study runner is a pure performance
// transform: for any StudyWorkers, every emitted artifact — Table I,
// Table II, Figures 3 through 8 — is byte-identical to unitOracle, a
// serial loop over the exported IngestMonth / IngestSnapshot units, in
// memory and through the tripled store. Run under -race this is also
// the runner's concurrency soundness proof. TestStudySpeedup is the
// wall-clock gate, skipped with an annotation on runners without
// enough CPUs to measure it.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/tripled"
)

// schedulerConfig is a seconds-scale study with enough months, bands,
// and windows to light up every artifact.
func schedulerConfig() Config {
	cfg := QuickConfig()
	cfg.Radiation.NumSources = 3000
	cfg.NV = 1 << 12
	cfg.LeafSize = 1 << 8
	cfg.Workers = 2 // engine-level sharding composes with study-level fan-out
	return cfg
}

// renderAll serializes every artifact the pipeline emits, so two runs
// can be compared byte for byte.
func renderAll(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "TableI: %+v\n", r.TableI())
	fmt.Fprintf(&b, "TableII: %+v\n", r.TableII())
	for _, s := range r.Fig3() {
		fmt.Fprintf(&b, "Fig3 %s: %+v alpha=%v delta=%v res=%v\n", s.Label, s.Binned, s.Alpha, s.Delta, s.Residual)
	}
	fig4, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "Fig4: %+v\n", fig4)
	series, fits, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "Fig5: %+v\n", series)
	for _, name := range []string{"modified-cauchy", "cauchy", "gaussian"} {
		fmt.Fprintf(&b, "Fig5 fit %s: %+v\n", name, fits[name])
	}
	all, f6fits := r.Fig6()
	fmt.Fprintf(&b, "Fig6: %+v\nFig6 fits: %+v\n", all, f6fits)
	fmt.Fprintf(&b, "Fig7And8: %+v\n", r.Fig7And8())
	// Windows and farm state, beyond what the tables above embed.
	for i, w := range r.Windows {
		fmt.Fprintf(&b, "Window %d: NV=%d Dropped=%d NNZ=%d NRows=%d span=%v\n",
			i, w.NV, w.Dropped, w.Matrix.NNZ(), w.Matrix.NRows(), w.Duration())
	}
	for _, m := range r.Farm.Months() {
		fmt.Fprintf(&b, "Farm month %s: rows=%d nnz=%d\n", m.Label, m.Table.NRows(), m.Table.NNZ())
	}
	return b.String()
}

func runStudy(t *testing.T, cfg Config) *Result {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// unitOracle is the study oracle: the fresh pipeline p driven through
// the exported units in paper order — every month, then every
// snapshot — on the caller's goroutine, the loop the resident daemon
// runs one call at a time.
func unitOracle(t *testing.T, p *Pipeline) *Result {
	t.Helper()
	cfg := p.Config()
	res := &Result{Config: cfg, Farm: p.farm}
	var db tripled.Conn
	if cfg.StoreAddr != "" {
		conn, err := DialStore(cfg.StoreAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		db = conn
	}
	for m := 0; m < cfg.Radiation.Months; m++ {
		md, err := p.IngestMonth(db, m)
		if err != nil {
			t.Fatal(err)
		}
		res.Study.Months = append(res.Study.Months, md)
	}
	for _, ts := range cfg.SnapshotTimes {
		w, snap, err := p.IngestSnapshot(context.Background(), db, ts)
		if err != nil {
			t.Fatal(err)
		}
		res.Windows = append(res.Windows, w)
		res.Study.Snapshots = append(res.Study.Snapshots, snap)
	}
	if h, ok := storeHealthOf(db); ok {
		agg := &storeHealthAgg{}
		agg.add(h)
		res.StoreHealth = agg.result()
	}
	return res
}

// runOracle runs unitOracle on a fresh pipeline for cfg.
func runOracle(t *testing.T, cfg Config) *Result {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return unitOracle(t, p)
}

// diffRender fails with the first differing line instead of dumping two
// multi-kilobyte artifacts blobs.
func diffRender(t *testing.T, name, serial, parallel string) {
	t.Helper()
	if serial == parallel {
		return
	}
	sl, pl := strings.Split(serial, "\n"), strings.Split(parallel, "\n")
	for i := range sl {
		if i >= len(pl) || sl[i] != pl[i] {
			pline := "<missing>"
			if i < len(pl) {
				pline = pl[i]
			}
			t.Fatalf("%s: artifacts diverge at line %d:\nserial:   %s\nparallel: %s", name, i+1, sl[i], pline)
		}
	}
	t.Fatalf("%s: parallel render has %d extra lines", name, len(pl)-len(sl))
}

// TestParallelStudyMatchesSerialOracle is the runner's contract:
// Run at StudyWorkers=1 (the pool in line on the caller's goroutine)
// and at 4 reproduces the unit-loop oracle exactly, across every Table
// and Figure emitter.
func TestParallelStudyMatchesSerialOracle(t *testing.T) {
	cfg := schedulerConfig()
	want := renderAll(t, runOracle(t, cfg))
	for _, workers := range []int{1, 4} {
		cfg.StudyWorkers = workers
		diffRender(t, fmt.Sprintf("in-memory workers=%d", workers), want, renderAll(t, runStudy(t, cfg)))
	}
}

// TestParallelStoreBackedStudyMatchesSerial runs the same oracle diff
// with every table round-tripping through a tripled store: the
// runner's per-worker clients must publish and fetch exactly what the
// unit loop's single client does.
func TestParallelStoreBackedStudyMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("three store-backed studies")
	}
	run := func(study func(*testing.T, Config) *Result, studyWorkers int) string {
		srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cfg := schedulerConfig()
		cfg.StoreAddr = srv.Addr()
		cfg.StudyWorkers = studyWorkers
		return renderAll(t, study(t, cfg))
	}
	want := run(runOracle, 1)
	for _, workers := range []int{1, 4} {
		diffRender(t, fmt.Sprintf("store-backed workers=%d", workers), want, run(runStudy, workers))
	}
}

// TestParallelStudyWorkerSweep pins worker-count invariance beyond the
// 1 and 4 of TestParallelStudyMatchesSerialOracle: 2, 3, and 8 workers
// (more workers than jobs in the snapshot phase, odd counts, and a
// 2-worker minimum) all match the unit-loop oracle.
func TestParallelStudyWorkerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("several full studies")
	}
	cfg := schedulerConfig()
	cfg.Radiation.NumSources = 2000
	cfg.NV = 1 << 11
	want := renderAll(t, runOracle(t, cfg))
	for _, workers := range []int{2, 3, 8} {
		cfg.StudyWorkers = workers
		diffRender(t, fmt.Sprintf("workers=%d", workers), want, renderAll(t, runStudy(t, cfg)))
	}
}

// TestParallelStudySharesAnonCache pins the runner's shared CryptoPAN
// cache: every per-worker Telescope rides the pipeline's one Cached, so
// after a run the pipeline cache holds the study's full mapping (the
// unique-address count the unit-loop oracle memoizes on the pipeline's
// own telescope) instead of leaving it cold while private per-worker
// memos each re-derive overlapping mappings.
func TestParallelStudySharesAnonCache(t *testing.T) {
	fresh := func(studyWorkers int) *Pipeline {
		cfg := schedulerConfig()
		cfg.Radiation.NumSources = 2000
		cfg.NV = 1 << 11
		cfg.StudyWorkers = studyWorkers
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	oracle := fresh(1)
	unitOracle(t, oracle)
	want := oracle.tel.Anonymizer().Len()
	if want == 0 {
		t.Fatal("unit-loop oracle left the pipeline anonymizer cache empty")
	}
	for _, workers := range []int{1, 4} {
		p := fresh(workers)
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		if got := p.tel.Anonymizer().Len(); got != want {
			t.Errorf("workers=%d: pipeline cache holds %d addresses after the run, want %d (oracle) — workers are not sharing the cache", workers, got, want)
		}
	}
}

// TestStudySpeedup is the acceptance gate: at >= 4 study workers the
// runner must finish the whole study at least 2x faster than at one
// worker, with byte-identical artifacts. On runners
// without at least 4 CPUs the wall-clock assertion is meaningless (the
// fan-out just interleaves on one core), so the gate self-skips with an
// annotation — the same policy the hot-path benchmark report applies
// to its multi-worker speedup metrics.
func TestStudySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("two timed full studies")
	}
	if raceEnabled {
		t.Skip("race detector perturbs timing")
	}
	if cpus := runtime.NumCPU(); cpus < 4 {
		t.Skipf("whole-study speedup needs >= 4 CPUs to measure; this runner has %d "+
			"(GOMAXPROCS=%d) — wall-clock parallel assertions are annotated and skipped, "+
			"correctness is still proven by TestParallelStudyMatchesSerialOracle",
			cpus, runtime.GOMAXPROCS(0))
	}
	cfg := QuickConfig()
	cfg.Workers = 1 // isolate study-level fan-out from engine-level sharding
	// Eight snapshots instead of the paper's five: snapshot captures
	// dominate the wall clock, and 5 jobs on 4 workers cap the ideal
	// speedup at ~2.5x — too close to the 2x bar for a shared CI
	// runner. At 8 jobs the critical path is 2 of 8 snapshot
	// durations (ideal ~4x), so passing 2x needs only ~50% parallel
	// efficiency.
	cfg.SnapshotTimes = nil
	for m := 2; m < 10; m++ {
		cfg.SnapshotTimes = append(cfg.SnapshotTimes, cfg.StudyStart.AddDate(0, m, 14))
	}

	cfg.StudyWorkers = 1
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	startSerial := time.Now()
	serialRes, err := p1.Run()
	if err != nil {
		t.Fatal(err)
	}
	serialWall := time.Since(startSerial)

	cfg.StudyWorkers = 4
	p4, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	startPar := time.Now()
	parRes, err := p4.Run()
	if err != nil {
		t.Fatal(err)
	}
	parWall := time.Since(startPar)

	diffRender(t, "speedup-parity", renderAll(t, serialRes), renderAll(t, parRes))
	speedup := float64(serialWall) / float64(parWall)
	t.Logf("whole study: serial %v, parallel(4) %v, speedup %.2fx", serialWall, parWall, speedup)
	if speedup < 2 {
		t.Errorf("whole-study speedup %.2fx < 2x gate (serial %v, parallel %v)", speedup, serialWall, parWall)
	}
}
