// Package core wires the full reproduction pipeline together: a
// radiation population observed simultaneously by a darkspace telescope
// (constant-packet windows, anonymized hypersparse matrices) and a
// honeyfarm outpost (monthly enriched D4M tables), followed by the
// paper's correlation analysis. Each figure and table of the paper has a
// dedicated emitter on Result — thin memoized wrappers over the
// internal/report artifact graph.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/correlate"
	"repro/internal/honeyfarm"
	"repro/internal/netquant"
	"repro/internal/radiation"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/telescope"
	"repro/internal/tripled"
)

// Config parameterizes one full study.
type Config struct {
	Radiation radiation.Config

	NV       int // telescope window size in valid packets
	LeafSize int // hierarchical leaf size (paper: 2^17)
	Workers  int // engine shard workers per window; 0 = GOMAXPROCS
	Batch    int // packets per engine batch; 0 = LeafSize

	// StudyWorkers is the study-level fan-out: how many goroutines
	// ingest honeyfarm months and capture telescope snapshots
	// concurrently. 1 runs the same pool on the caller's goroutine; 0
	// uses GOMAXPROCS. Any value produces byte-identical artifacts —
	// results are assembled by index, and every month and snapshot is
	// deterministic in isolation.
	StudyWorkers int

	// ReportWorkers is the report-graph fan-out: how many of
	// fig7_fig8's per-(snapshot, band) GridSearch2 fits run
	// concurrently on the shared worker pool. 1 runs the historical
	// strictly serial sweep retained as the correctness oracle; 0 uses
	// GOMAXPROCS. Any value renders byte-identical artifacts
	// (report.TestReportWorkerSweep).
	ReportWorkers int

	Sensors        int    // honeyfarm sensor count
	AnonPassphrase string // CryptoPAN key derivation

	// StoreAddr, when non-empty, routes the correlation tables through a
	// tripled server at that address (the paper's Accumulo role): every
	// honeyfarm month and telescope source table is published with the
	// batched pipeline path and read back from the store, so the study
	// correlates what the database holds, not what is in memory.
	StoreAddr string

	StudyStart    time.Time   // first honeyfarm month (paper: 2020-02-01)
	SnapshotTimes []time.Time // telescope sample times (paper: five dates in 2020)

	MinBandSources int // bands below this population are skipped in fits
}

// paperSnapshotTimes are the five CAIDA sample times of Table I.
func paperSnapshotTimes() []time.Time {
	return []time.Time{
		time.Date(2020, 6, 17, 12, 0, 0, 0, time.UTC),
		time.Date(2020, 7, 29, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 9, 16, 12, 0, 0, 0, time.UTC),
		time.Date(2020, 10, 28, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 12, 16, 12, 0, 0, 0, time.UTC),
	}
}

// DefaultConfig is the full laptop-scale study: 2^20-packet windows over
// a 200k-source population, 15 honeyfarm months, the paper's five
// snapshot dates.
func DefaultConfig() Config {
	return Config{
		Radiation:      radiation.DefaultConfig(),
		NV:             1 << 20,
		LeafSize:       1 << 14,
		Sensors:        300,
		AnonPassphrase: "observatory-study",
		StudyStart:     time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC),
		SnapshotTimes:  paperSnapshotTimes(),
		MinBandSources: 25,
	}
}

// QuickConfig is a seconds-scale configuration for tests and examples:
// 2^14-packet windows over a 10k-source population. The paper's laws
// still emerge, with more statistical noise.
func QuickConfig() Config {
	c := DefaultConfig()
	c.NV = 1 << 14
	c.LeafSize = 1 << 10
	c.Radiation.NumSources = 10000
	c.Radiation.ZM = stats.PaperZM(1 << 12)
	c.Radiation.BrightLog2 = 7 // log2(sqrt(2^14))
	c.MinBandSources = 10
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error { return c.validate(false) }

// validate checks the configuration; resident mode (the study daemon)
// relaxes exactly one rule — SnapshotTimes may be empty, because a
// resident study starts with no snapshots and grows them over the
// ingest API.
func (c Config) validate(resident bool) error {
	if err := c.Radiation.Validate(); err != nil {
		return err
	}
	switch {
	case c.NV <= 0:
		return fmt.Errorf("core: NV must be positive, got %d", c.NV)
	case c.LeafSize <= 0:
		return fmt.Errorf("core: LeafSize must be positive, got %d", c.LeafSize)
	case c.Sensors <= 0:
		return fmt.Errorf("core: Sensors must be positive, got %d", c.Sensors)
	case !resident && len(c.SnapshotTimes) == 0:
		return fmt.Errorf("core: at least one snapshot time required")
	case c.StudyStart.IsZero():
		return fmt.Errorf("core: StudyStart required")
	}
	for _, ts := range c.SnapshotTimes {
		m := c.monthOf(ts)
		if m < 0 || m >= float64(c.Radiation.Months) {
			return fmt.Errorf("core: snapshot %v falls outside the %d-month study", ts, c.Radiation.Months)
		}
	}
	return nil
}

// monthOf converts a timestamp to a fractional month index from
// StudyStart (30.44-day months, the mean Gregorian length).
func (c Config) monthOf(ts time.Time) float64 {
	return ts.Sub(c.StudyStart).Hours() / 24 / 30.44
}

// MonthOf is the exported fractional-month conversion, used by the
// resident daemon to validate ingested snapshot times against the
// study span the way Validate does for batch configurations.
func (c Config) MonthOf(ts time.Time) float64 { return c.monthOf(ts) }

// SqrtNVLog2 returns log2(sqrt(NV)), the paper's brightness threshold
// exponent (15 for NV = 2^30).
func (c Config) SqrtNVLog2() float64 { return math.Log2(float64(c.NV)) / 2 }

// Fig6Bands returns the brightness bands used for Figure 6, scaled to
// this study's NV the way the paper's bands {2^0, 2^4, 2^8, 2^12, 2^16}
// scale to sqrt(2^30) = 2^15.
func (c Config) Fig6Bands() []int {
	s := c.SqrtNVLog2() / 15.0
	out := make([]int, 0, 5)
	seen := make(map[int]bool)
	for _, b := range []float64{0, 4, 8, 12, 16} {
		k := int(math.Round(b * s))
		if !seen[k] {
			out = append(out, k)
			seen[k] = true
		}
	}
	return out
}

// Fig5Band returns the band used in Figure 5 (2^14 <= d < 2^15 in the
// paper, i.e. one octave below sqrt(NV)).
func (c Config) Fig5Band() int {
	return int(math.Round(c.SqrtNVLog2())) - 1
}

// Pipeline is a configured, reusable study runner.
type Pipeline struct {
	cfg  Config
	pop  *radiation.Population
	tel  *telescope.Telescope
	farm *honeyfarm.Honeyfarm
}

// New validates the configuration and builds the population, telescope,
// and honeyfarm.
func New(cfg Config) (*Pipeline, error) { return newPipeline(cfg, false) }

// NewResident builds a Pipeline for a long-lived incremental owner
// (the study daemon): identical to New except the configuration may
// start with no snapshot times — a resident study begins empty and
// grows months and snapshots one IngestMonth / IngestSnapshot call at
// a time.
func NewResident(cfg Config) (*Pipeline, error) { return newPipeline(cfg, true) }

func newPipeline(cfg Config, resident bool) (*Pipeline, error) {
	if err := cfg.validate(resident); err != nil {
		return nil, err
	}
	pop, err := radiation.NewPopulation(cfg.Radiation)
	if err != nil {
		return nil, err
	}
	// Capture runs through the engine, which takes cfg.Workers directly;
	// the telescope only needs the leaf size here.
	tel := telescope.New(cfg.Radiation.Darkspace, cfg.AnonPassphrase,
		telescope.WithLeafSize(cfg.LeafSize))
	farm := honeyfarm.New(cfg.Sensors, cfg.Radiation.Seed+1)
	return &Pipeline{cfg: cfg, pop: pop, tel: tel, farm: farm}, nil
}

// Config returns the pipeline configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Population exposes the generator (ground truth for validation).
func (p *Pipeline) Population() *radiation.Population { return p.pop }

// Result bundles everything a study produces.
type Result struct {
	Config  Config
	Study   correlate.Study
	Windows []*telescope.Window // one anonymized window per snapshot
	Farm    *honeyfarm.Honeyfarm

	// StoreHealth records cluster degradation observed during a
	// store-backed study: which replicas were lost and how many reads
	// failed over. Artifacts stay byte-identical through a tolerated
	// failure (that is the cluster's contract); this field is how the
	// study reports that the run leaned on it.
	StoreHealth StoreHealth

	frozenOnce sync.Once
	frozen     *correlate.Frozen

	reportOnce sync.Once
	report     *report.Graph
}

// Frozen returns the sorted-key compilation of the study's correlation
// tables (interned row IDs, per-band sorted sets), built once on first
// use and shared by every Figure 4-8 emitter. The build fans out across
// ReportWorkers goroutines (FreezeParallel; 1 keeps it on the calling
// goroutine). Safe for concurrent use.
func (r *Result) Frozen() *correlate.Frozen {
	r.frozenOnce.Do(func() { r.frozen = correlate.FreezeParallel(r.Study, r.Config.ReportWorkers) })
	return r.frozen
}

// Report returns the study's artifact graph: every Table and Figure as
// a memoized job with declared dependencies, plus the unified TSV/JSON
// renderer (report.WriteTSV / report.WriteJSON). Built once on first
// use; safe for concurrent use. The Table/Fig methods below are thin
// wrappers over it.
func (r *Result) Report() *report.Graph {
	r.reportOnce.Do(func() { r.report = r.ReportWith(r.Config.ReportWorkers) })
	return r.report
}

// ReportWith builds a fresh, unmemoized artifact graph over this
// result with an explicit fit fan-out. Normal callers want Report();
// this entry point exists for measurement (benchreport's fit_wall
// phase) and worker-sweep determinism tests, where every call must
// recompute.
func (r *Result) ReportWith(workers int) *report.Graph {
	return report.New(report.Input{
		Study:   r.Study,
		Windows: r.Windows,
		Frozen:  r.Frozen,
		Params: report.Params{
			StudyStart:     r.Config.StudyStart,
			NV:             r.Config.NV,
			Fig5Band:       r.Config.Fig5Band(),
			Fig6Bands:      r.Config.Fig6Bands(),
			MinBandSources: r.Config.MinBandSources,
			Workers:        workers,
		},
	})
}

// Run executes the full study with background context; see RunContext.
func (p *Pipeline) Run() (*Result, error) { return p.RunContext(context.Background()) }

// RunContext executes the full study: 15 honeyfarm months plus one
// telescope window per configured snapshot time captured through the
// sharded streaming engine (Config.Workers shards per window), reduced
// to D4M source tables. Months and snapshots run as units on the study
// pool (see scheduler.go), Config.StudyWorkers of them at a time; one
// worker runs them in line on the caller's goroutine. With
// Config.StoreAddr set, every table additionally round-trips through
// the tripled service before correlation. Cancelling ctx abandons the
// study mid-window.
func (p *Pipeline) RunContext(ctx context.Context) (*Result, error) {
	workers := p.cfg.StudyWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return p.runPool(ctx, workers)
}

// IngestMonth is one incremental unit of study growth: build (or
// reuse) honeyfarm month m, optionally round-tripping the table
// through the store, and attach a freshly built month to the farm.
// db may be nil for an in-memory study. Safe to call again for an
// already-ingested month — the farm's copy is reused and re-published
// idempotently (the recovery path relies on this). Not safe for
// concurrent use; the daemon serializes ingest on one goroutine.
func (p *Pipeline) IngestMonth(db tripled.Conn, m int) (correlate.MonthData, error) {
	md, built, err := p.buildMonth(db, m)
	if built != nil {
		p.farm.Attach(built)
	}
	return md, err
}

// buildMonth is the month unit every runner shares: build (or reuse)
// honeyfarm month m and round-trip its table through db when db is
// non-nil. It reads the farm but never mutates it; built is the
// freshly built window (nil when the farm already held the month),
// returned even when the store round trip fails, for the caller to
// attach. Safe for concurrent use on distinct months.
func (p *Pipeline) buildMonth(db tripled.Conn, m int) (md correlate.MonthData, built *honeyfarm.MonthWindow, err error) {
	start := p.cfg.StudyStart.AddDate(0, m, 0)
	label := start.Format("2006-01")
	mw := p.farm.Month(label)
	if mw == nil {
		mw = p.farm.BuildMonth(label, start, p.pop.HoneyfarmMonth(m, start))
		built = mw
	}
	table := mw.Table
	if db != nil {
		if err := mw.Publish(db); err != nil {
			return correlate.MonthData{}, built, fmt.Errorf("core: publish month %s: %w", label, err)
		}
		if table, err = honeyfarm.FetchMonthTable(db, label); err != nil {
			return correlate.MonthData{}, built, fmt.Errorf("core: fetch month %s: %w", label, err)
		}
	}
	return correlate.MonthData{Label: label, Month: m, Table: table}, built, nil
}

// IngestSnapshot is the other incremental unit: capture one telescope
// window at ts on the pipeline's telescope and reduce it to the D4M
// source table. db may be nil for an in-memory study. Not safe for
// concurrent use (one telescope runs one capture at a time).
func (p *Pipeline) IngestSnapshot(ctx context.Context, db tripled.Conn, ts time.Time) (*telescope.Window, correlate.Snapshot, error) {
	return p.captureSnapshot(ctx, p.tel, db, ts)
}

// captureSnapshot is the snapshot unit every runner shares: capture the
// window at ts on tel, reduce it to the D4M source table, and
// round-trip the table through db when db is non-nil. Concurrent calls
// need distinct telescopes and connections.
func (p *Pipeline) captureSnapshot(ctx context.Context, tel *telescope.Telescope, db tripled.Conn, ts time.Time) (*telescope.Window, correlate.Snapshot, error) {
	monthFrac := p.cfg.monthOf(ts)
	stream := p.pop.TelescopeStream(monthFrac, ts)
	w, err := tel.CaptureWindowEngine(ctx, stream, p.cfg.NV, p.cfg.Workers, p.cfg.Batch)
	if err != nil {
		return nil, correlate.Snapshot{}, fmt.Errorf("core: snapshot %v: %w", ts, err)
	}
	if w.NV < p.cfg.NV {
		return nil, correlate.Snapshot{}, fmt.Errorf("core: snapshot %v: stream exhausted at %d of %d packets (population too small for NV)",
			ts, w.NV, p.cfg.NV)
	}
	label := ts.Format("20060102-150405")
	sources := tel.SourceTable(w)
	if db != nil {
		if err := tel.PublishSourceTable(db, label, w); err != nil {
			return nil, correlate.Snapshot{}, fmt.Errorf("core: publish snapshot %s: %w", label, err)
		}
		if sources, err = telescope.FetchSourceTable(db, label); err != nil {
			return nil, correlate.Snapshot{}, fmt.Errorf("core: fetch snapshot %s: %w", label, err)
		}
	}
	return w, correlate.Snapshot{
		Label:   label,
		Month:   monthFrac,
		NV:      p.cfg.NV,
		Sources: sources,
	}, nil
}

// TableIRow is one line of the paper's Table I dataset inventory.
type TableIRow = report.TableIRow

// Fig3Series is one snapshot's degree distribution with its
// Zipf-Mandelbrot fit.
type Fig3Series = report.Fig3Series

// Fig4Series is one snapshot's peak-correlation curve with the paper's
// logarithmic model.
type Fig4Series = report.Fig4Series

// The artifact emitters below are thin wrappers over the report graph:
// each computes through its memoized job on first use and returns the
// shared value on every later call (treat the results as read-only).
// The compute bodies — unchanged from when they lived here — are in
// report/artifacts.go.

// TableI reproduces the dataset inventory: one row per honeyfarm month,
// with telescope columns filled on snapshot months.
func (r *Result) TableI() []TableIRow { return r.Report().TableI() }

// TableII computes the network quantities of each snapshot's anonymized
// matrix.
func (r *Result) TableII() []netquant.Quantities { return r.Report().TableII() }

// Fig3 computes the source-packet degree distribution and ZM fit for
// every snapshot (the paper's Figure 3).
func (r *Result) Fig3() []Fig3Series { return r.Report().Fig3() }

// Fig4 computes the same-month correlation by brightness for every
// snapshot, on the frozen sorted-key kernel.
func (r *Result) Fig4() ([]Fig4Series, error) { return r.Report().Fig4() }

// Fig5 computes the temporal correlation of the first snapshot's
// Fig5Band sources with all three model fits (the paper's Figure 5).
func (r *Result) Fig5() (correlate.Series, map[string]stats.TemporalFit, error) {
	return r.Report().Fig5()
}

// Fig6 computes the temporal correlation curves for every snapshot and
// every Fig6 band, with modified-Cauchy fits. Bands a snapshot lacks are
// skipped.
func (r *Result) Fig6() ([]correlate.Series, []stats.TemporalFit) { return r.Report().Fig6() }

// Fig7And8 computes the per-band modified-Cauchy parameter sweeps for
// every snapshot: Alpha per band (Figure 7) and one-month drop 1/(β+1)
// per band (Figure 8). With Config.ReportWorkers != 1 the fits fan out
// per (snapshot, band) on the shared worker pool, byte-identical to the
// serial sweep.
func (r *Result) Fig7And8() [][]correlate.BandFit { return r.Report().Fig7And8() }
