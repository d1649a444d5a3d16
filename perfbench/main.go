// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload in a single process, timing calls into the public
// functions of core, radiation, telescope, honeyfarm, tripled (with
// tripled/cluster), correlate, report and daemon from outside, checks
// that every study renders the right artifacts, and prints one JSON
// result as its last line of output.
//
//	perfbench --workload quick-cluster|daemon-grow --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced pass carries the per-layer metrics. See
// README.md for the workloads, metric definitions and the table of
// which layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/radiation"
	"repro/internal/telescope"
	"repro/internal/tripled"
	"repro/internal/tripled/cluster"
)

// workDir holds everything a run writes: WAL directories (removed at
// exit) and trace files. It is relative to the checkout root.
const workDir = ".bench_build/perfbench"

// env is one run's shared state.
type env struct {
	workload string
	seed     int64
	seconds  float64
	tmp      string
	tally    *Tally
	start    time.Time
}

func (e *env) elapsed() float64 { return time.Since(e.start).Seconds() }

// samples are the raw end-to-end measurements of one run.
type samples struct {
	setup, study, cpu []float64 // s
	month, snap       []float64 // ms
	gets              []float64 // µs
}

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// populations is how many study populations a run cycles through. A
// quick study's cost varies with the population drawn (10k sources),
// so each run studies several, derived from --seed, and that variation
// averages out instead of deciding a run's medians.
const (
	populations = 10
	// candidates is how many populations --seed may draw from.
	candidates = 32
)

// workloadConfigs returns a workload's study configurations, one per
// population: the first populations values of Radiation.Seed =
// candidates*seed + j, j = 0, 1, ..., whose population fills every
// snapshot window. Radiation.Seed is the only input the benchmark
// varies.
func workloadConfigs(workload string, seed int64) ([]core.Config, error) {
	switch workload {
	case "quick-cluster", "daemon-grow":
	default:
		return nil, fmt.Errorf("unknown workload %q (want quick-cluster or daemon-grow)", workload)
	}
	var cfgs []core.Config
	for j := int64(0); j < candidates && len(cfgs) < populations; j++ {
		cfg := core.QuickConfig()
		cfg.Radiation.Seed = seed*candidates + j
		ok, err := fillsWindows(cfg)
		if err != nil {
			return nil, fmt.Errorf("population %d: %w", cfg.Radiation.Seed, err)
		}
		if ok {
			cfgs = append(cfgs, cfg)
		} else {
			fmt.Printf("population %d: skipped, too few packets to fill a window\n", cfg.Radiation.Seed)
		}
	}
	if len(cfgs) < populations {
		return nil, fmt.Errorf("only %d of %d candidate populations fill every window", len(cfgs), candidates)
	}
	return cfgs, nil
}

// fillsWindows reports whether cfg's population sends at least NV
// valid packets into every snapshot window. The program refuses a
// study whose stream runs dry before NV, so such a population is not
// a valid input.
func fillsWindows(cfg core.Config) (bool, error) {
	pop, err := radiation.NewPopulation(cfg.Radiation)
	if err != nil {
		return false, err
	}
	tel := telescope.New(cfg.Radiation.Darkspace, cfg.AnonPassphrase, telescope.WithLeafSize(cfg.LeafSize))
	for _, ts := range cfg.SnapshotTimes {
		stream := pop.TelescopeStream(cfg.MonthOf(ts), ts)
		w, err := tel.CaptureWindowEngine(context.Background(), stream, cfg.NV, cfg.Workers, cfg.Batch)
		if err != nil {
			return false, err
		}
		if w.NV < cfg.NV {
			return false, nil
		}
	}
	return true, nil
}

func main() {
	workload := flag.String("workload", "", "quick-cluster or daemon-grow")
	seed := flag.Int64("seed", 1, "workload seed; the populations studied (Radiation.Seed) derive from it")
	seconds := flag.Float64("seconds", 30, "measurement budget per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool) error {
	cfgs, err := workloadConfigs(workload, seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Every population's in-memory reference is rendered off the clock,
	// before the measured section and before the peak-RSS mark is reset,
	// so neither the budget nor peak_rss_mb covers the checker's work.
	refs := make([]Artifacts, len(cfgs))
	for i, cfg := range cfgs {
		if refs[i], err = referenceArtifacts(cfg); err != nil {
			return fmt.Errorf("in-memory reference: %w", err)
		}
		printDigest(cfg, refs[i])
	}
	if err := resetPeakRSS(); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	e := &env{workload: workload, seed: seed, seconds: seconds, tmp: tmp, tally: &Tally{}, start: time.Now()}

	var metrics map[string]Metric
	if traced {
		metrics, err = runTraced(e, cfgs, refs)
	} else {
		var s *samples
		switch workload {
		case "quick-cluster":
			s, err = runBatch(e, cfgs, refs, clusterPlan)
		case "daemon-grow":
			s, err = runDaemon(e, cfgs, refs)
		}
		if err == nil {
			metrics, err = s.endToEnd()
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("failed_frac %.6f = %d failed / %d attempted\n", e.tally.Frac(), e.tally.Failed, e.tally.Attempted)
	out, err := json.Marshal(Result{
		Correct:   e.tally.Failed == 0,
		Attempted: e.tally.Attempted,
		Failed:    e.tally.Failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd reduces the samples to the end-to-end metrics, printing the
// bases (sample counts, tail percentiles) on the lines before the result.
func (s *samples) endToEnd() (map[string]Metric, error) {
	ingest := append(append([]float64(nil), s.month...), s.snap...)
	ipct, itail, iok := tail(ingest)
	gpct, gtail, gok := tail(s.gets)
	if !iok || !gok {
		return nil, fmt.Errorf("too few samples for a tail: %d ingests, %d artifact reads", len(ingest), len(s.gets))
	}
	fmt.Printf("studies %d, setups %d, month ingests %d, snapshot ingests %d, artifact reads %d\n",
		len(s.study), len(s.setup), len(s.month), len(s.snap), len(s.gets))
	fmt.Printf("ingest_tail_ms is p%g of %d ingests; artifact_get_tail_us is p%g of %d reads\n", ipct, len(ingest), gpct, len(s.gets))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	m := map[string]Metric{
		"setup_s":                {median(s.setup), "s"},
		"study_s":                {median(s.study), "s"},
		"cpu_s":                  {median(s.cpu), "s"},
		"peak_rss_mb":            {rss, "MB"},
		"month_ingest_p50_ms":    {median(s.month), "ms"},
		"snapshot_ingest_p50_ms": {median(s.snap), "ms"},
		"ingest_tail_ms":         {itail, "ms"},
		"artifact_get_p50_us":    {median(s.gets), "us"},
		"artifact_get_tail_us":   {gtail, "us"},
	}
	return m, finite(m)
}

// finite rejects a result with a missing (NaN or infinite) metric.
func finite(m map[string]Metric) error {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if v := m[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no measurement", k)
		}
	}
	return nil
}

// healthOf is the store health a cluster connection saw.
func healthOf(db tripled.Conn) core.StoreHealth {
	cc, ok := db.(*cluster.Client)
	if !ok {
		return core.StoreHealth{}
	}
	h := cc.Health()
	return core.StoreHealth{Degraded: h.Degraded(), DownNodes: h.Down, Failovers: h.Failovers}
}

// tracePath is where a traced run writes the spans of traced study i.
func tracePath(e *env, i int) string {
	return filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d-%d.json", e.workload, e.seed, i))
}
