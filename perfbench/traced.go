package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/daemon"
	"repro/internal/honeyfarm"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/report"
	"repro/internal/telescope"
)

// The traced pass pairs an untraced StudyWorkers=1 study with a traced
// one of the same workload, as often as --seconds allows (at least
// once), and reports each per-layer metric as its median over the
// traced studies. Layer times are self times summed over one study.
const (
	maxTracePairs = 5
	traceEnds     = 0.85 // of --seconds
	// coverageSlack is how far the self times may fall short of (or
	// exceed) the traced wall before a layer counts as unmeasured.
	coverageSlack = 0.05
	// maxOverhead bounds |trace.overhead_frac|, the median over the
	// pairs. The traced study calls the same units as the untraced
	// StudyWorkers=1 Pipeline.Run, so only the host's drift between the
	// two should separate them: single pairs read -0.21 to +0.16 and
	// medians -0.06 to +0.14 on a 2-vCPU host. A traced copy that does
	// more or less work than the program fails.
	maxOverhead = 0.3
)

// layerMetrics are the per-layer metrics, with their units, in the
// order BENCHMARK.json lists them. Every traced run reports all of
// them; a layer a workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"engine.capture_s", "s"},
	{"radiation.stream_s", "s"},
	{"engine.accept_ratio", "ratio"},
	{"engine.leaves", "count"},
	{"cryptopan.memo_entries", "count"},
	{"telescope.source_table_s", "s"},
	{"radiation.honeyfarm_month_s", "s"},
	{"honeyfarm.ingest_month_s", "s"},
	{"tripled.publish_month_s", "s"},
	{"tripled.fetch_month_s", "s"},
	{"tripled.publish_snapshot_s", "s"},
	{"tripled.fetch_snapshot_s", "s"},
	{"tripled.cells", "count"},
	{"tripled.wal_bytes_per_cell", "B/cell"},
	{"tripled.failovers", "count"},
	{"correlate.freeze_s", "s"},
	{"report.table1_s", "s"},
	{"report.table2_s", "s"},
	{"report.fig3_s", "s"},
	{"report.fig4_s", "s"},
	{"report.fig5_s", "s"},
	{"report.fig6_s", "s"},
	{"report.fig7_fig8_s", "s"},
	{"report.recomputes", "count"},
	{"daemon.ingest_month_s", "s"},
	{"daemon.ingest_snapshot_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.coverage", "ratio"},
}

// tracedStudy is what one traced study measured, by metric name.
type tracedStudy map[string]float64

func runTraced(e *env, cfgs []core.Config, refs []Artifacts) (map[string]Metric, error) {
	var studies []tracedStudy
	var tracers []*Tracer
	for i := 0; i < maxTracePairs && (i == 0 || e.elapsed() < traceEnds*e.seconds); i++ {
		what := fmt.Sprintf("traced pair %d", i)
		sub := i % len(cfgs)
		ts, tr, err := tracedPair(e, cfgs[sub], refs[sub], i%2 == 1)
		if !e.tally.Check(what, err) {
			continue
		}
		fmt.Printf("%s: population %d, coverage %.4f, overhead %+.4f\n",
			what, cfgs[sub].Radiation.Seed, ts["trace.coverage"], ts["trace.overhead_frac"])
		e.tally.Check(what+": trace coverage", checkCoverage(ts["trace.coverage"]))
		studies = append(studies, ts)
		tracers = append(tracers, tr)
	}
	if len(studies) == 0 {
		return nil, fmt.Errorf("no traced study completed")
	}
	for i, tr := range tracers {
		path := tracePath(e, i)
		e.tally.Check("write "+path, tr.WriteFile(path))
	}
	out := make(map[string]Metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		vals := make([]float64, len(studies))
		for i, ts := range studies {
			vals[i] = ts[lm.name]
		}
		out[lm.name] = Metric{median(vals), lm.unit}
	}
	fmt.Printf("traced studies %d; trace.coverage %.4f, trace.overhead_frac %.4f\n",
		len(studies), out["trace.coverage"].Value, out["trace.overhead_frac"].Value)
	e.tally.Check("trace overhead", checkOverhead(out["trace.overhead_frac"].Value))
	return out, finite(out)
}

// tracedPair runs the untraced StudyWorkers=1 study and the traced one
// of one configuration, the traced one first when tracedFirst (pairs
// alternate, so warm-up does not bias trace.overhead_frac). Both must
// render ref, the in-memory batch run's artifacts.
func tracedPair(e *env, cfg core.Config, ref Artifacts, tracedFirst bool) (tracedStudy, *Tracer, error) {
	tr := NewTracer()
	var (
		ts           tracedStudy
		untraced     time.Duration
		uArts, tArts Artifacts
	)
	runUntraced := func() (err error) {
		if e.workload == "daemon-grow" {
			untraced, uArts, err = growInProcess(cfg, nil)
		} else {
			untraced, uArts, err = untracedSerial(e, cfg)
		}
		if err != nil {
			return fmt.Errorf("untraced: %w", err)
		}
		return nil
	}
	runTraced := func() (err error) {
		if e.workload == "daemon-grow" {
			ts = tracedStudy{}
			var wall time.Duration
			wall, tArts, err = growInProcess(cfg, &tracedGrowth{tr: tr, out: ts})
			ts["wall"] = wall.Seconds()
		} else {
			ts, tArts, err = tracedBatch(e, cfg, tr)
		}
		if err != nil {
			return fmt.Errorf("traced: %w", err)
		}
		return nil
	}
	order := []func() error{runUntraced, runTraced}
	if tracedFirst {
		order[0], order[1] = runTraced, runUntraced
	}
	for _, run := range order {
		runtime.GC()
		if err := run(); err != nil {
			return nil, nil, err
		}
	}

	e.tally.Check("untraced artifacts", checkSame(ref, uArts))
	e.tally.Check("traced artifacts", checkSame(ref, tArts))

	for name, self := range tr.SelfByName() {
		ts[name+"_s"] += self
	}
	ts["trace.coverage"] = tr.SelfTotal() / ts["wall"]
	ts["trace.overhead_frac"] = ts["wall"]/untraced.Seconds() - 1
	return ts, tr, nil
}

// checkCoverage requires the traced self times to account for the
// traced wall to within coverageSlack.
func checkCoverage(c float64) error {
	if math.IsNaN(c) || math.Abs(c-1) > coverageSlack {
		return fmt.Errorf("self times cover %.4f of the traced wall, want 1±%.2f", c, coverageSlack)
	}
	return nil
}

// checkOverhead requires the traced study's wall to stay within
// maxOverhead of the untraced one's.
func checkOverhead(o float64) error {
	if math.IsNaN(o) || math.Abs(o) > maxOverhead {
		return fmt.Errorf("traced wall is %+.4f off the untraced wall, want within ±%.2f", o, maxOverhead)
	}
	return nil
}

// untracedSerial times one StudyWorkers=1 Pipeline.Run plus rendering,
// the baseline the traced study's overhead is measured against.
func untracedSerial(e *env, cfg core.Config) (time.Duration, Artifacts, error) {
	cfg.StudyWorkers = 1
	cl, _, p, err := setUp(e, cfg, false)
	if err != nil {
		return 0, nil, err
	}
	defer cl.Close()
	t := time.Now()
	res, err := p.Run()
	if err != nil {
		return 0, nil, err
	}
	arts, _, err := renderAll(res.Report())
	if err != nil {
		return 0, nil, err
	}
	return time.Since(t), arts, nil
}

// tracedBatch runs one study through the same public units core's
// StudyWorkers=1 runner uses, with a span around each call:
// HoneyfarmMonth → honeyfarm.IngestMonth → publish/fetch for every
// month; TelescopeStream → CaptureWindowEngine → SourceTable →
// publish/fetch for every snapshot; FreezeParallel; every artifact.
func tracedBatch(e *env, cfg core.Config, tr *Tracer) (tracedStudy, Artifacts, error) {
	cl, err := StartCluster(e.tmp)
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()
	db, err := core.DialStore(cl.Spec)
	if err != nil {
		return nil, nil, err
	}
	defer db.Close()
	pop, err := radiation.NewPopulation(cfg.Radiation)
	if err != nil {
		return nil, nil, err
	}
	tel := telescope.New(cfg.Radiation.Darkspace, cfg.AnonPassphrase, telescope.WithLeafSize(cfg.LeafSize))
	farm := honeyfarm.New(cfg.Sensors, cfg.Radiation.Seed+1)
	out := tracedStudy{}
	ctx := context.Background()

	t0 := time.Now()
	res := &core.Result{Config: cfg}
	for m := 0; m < cfg.Radiation.Months; m++ {
		start := cfg.StudyStart.AddDate(0, m, 0)
		label := start.Format("2006-01")
		sp := tr.Start("radiation.honeyfarm_month")
		obs := pop.HoneyfarmMonth(m, start)
		sp.End()
		sp = tr.Start("honeyfarm.ingest_month")
		mw := farm.IngestMonth(label, start, obs)
		sp.End()
		sp = tr.Start("tripled.publish_month")
		err = mw.Publish(db)
		sp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("publish month %s: %w", label, err)
		}
		sp = tr.Start("tripled.fetch_month")
		table, err := honeyfarm.FetchMonthTable(db, label)
		sp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("fetch month %s: %w", label, err)
		}
		res.Study.Months = append(res.Study.Months, correlate.MonthData{Label: label, Month: m, Table: table})
	}

	var valid, seen, leaves float64
	for _, ts := range cfg.SnapshotTimes {
		monthFrac := cfg.MonthOf(ts)
		label := ts.Format("20060102-150405")
		sp := tr.Start("radiation.stream")
		stream := pop.TelescopeStream(monthFrac, ts)
		sp.End()
		capture := tr.Start("engine.capture")
		w, err := tel.CaptureWindowEngine(ctx, &timedStream{st: stream, span: capture}, cfg.NV, cfg.Workers, cfg.Batch)
		capture.End()
		if err != nil {
			return nil, nil, fmt.Errorf("capture %s: %w", label, err)
		}
		if w.NV < cfg.NV {
			return nil, nil, fmt.Errorf("snapshot %s: short window, %d of %d packets", label, w.NV, cfg.NV)
		}
		valid += float64(w.NV)
		seen += float64(w.NV + w.Dropped)
		leaves += float64(w.Leaves)
		sp = tr.Start("telescope.source_table")
		sources := tel.SourceTable(w)
		sp.End()
		sp = tr.Start("tripled.publish_snapshot")
		err = tel.PublishSourceTable(db, label, w)
		sp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("publish snapshot %s: %w", label, err)
		}
		sp = tr.Start("tripled.fetch_snapshot")
		sources, err = telescope.FetchSourceTable(db, label)
		sp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("fetch snapshot %s: %w", label, err)
		}
		res.Windows = append(res.Windows, w)
		res.Study.Snapshots = append(res.Study.Snapshots, correlate.Snapshot{Label: label, Month: monthFrac, NV: cfg.NV, Sources: sources})
	}

	sp := tr.Start("correlate.freeze")
	res.Frozen()
	sp.End()
	g := res.Report()
	arts := make(Artifacts, len(report.All()))
	for _, id := range report.All() {
		var b bytes.Buffer
		sp := tr.Start("report." + string(id))
		err := report.WriteTSV(&b, g, id)
		sp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("render %s: %w", id, err)
		}
		arts[id] = b.Bytes()
	}
	out["wall"] = time.Since(t0).Seconds()

	e.tally.Check("traced study: table2 NV", checkWindows(res.TableII(), len(cfg.SnapshotTimes), cfg.NV))

	out["engine.accept_ratio"] = valid / seen
	out["engine.leaves"] = leaves
	out["cryptopan.memo_entries"] = float64(tel.Anonymizer().Len())
	h := healthOf(db)
	e.tally.Check("traced study: store health", checkHealth(h))
	cells := cl.Cells()
	out["tripled.cells"] = float64(cells)
	if cells > 0 {
		out["tripled.wal_bytes_per_cell"] = float64(cl.WALBytes()) / float64(cells)
	}
	out["tripled.failovers"] = float64(h.Failovers)
	return out, arts, nil
}

// timedStream is the benchmark-side adapter that times the radiation
// stream as the engine's reader pulls slabs from it; each NextBatch
// becomes a radiation.stream child of the capture span.
type timedStream struct {
	st   *radiation.Stream
	span *open
}

func (t *timedStream) Next(p *pcap.Packet) bool { return t.st.Next(p) }

func (t *timedStream) NextBatch(dst []pcap.Packet) int {
	start := time.Now()
	n := t.st.NextBatch(dst)
	t.span.Leaf("radiation.stream", start, time.Since(start))
	return n
}

// tracedGrowth, when set, makes growInProcess record a span per ingest
// call and the report graph's recompute count.
type tracedGrowth struct {
	tr  *Tracer
	out tracedStudy
}

// growInProcess grows one resident study through in-process
// Daemon.IngestMonth / IngestSnapshot calls in paper order and returns
// the growth's wall time and the artifacts it serves at the end.
func growInProcess(cfg core.Config, t *tracedGrowth) (time.Duration, Artifacts, error) {
	d, err := daemon.New(residentConfig(cfg))
	if err != nil {
		return 0, nil, err
	}
	defer d.Close()
	ids := append(report.All(), "frozen")
	runs := func() int {
		n := 0
		for _, id := range ids {
			n += d.Runs(id)
		}
		return n
	}
	runs0 := runs()
	start := time.Now()
	for _, st := range paperOrder(cfg, cfg.SnapshotTimes) {
		var sp *open
		if t != nil {
			name := "daemon.ingest_month"
			if st.snap {
				name = "daemon.ingest_snapshot"
			}
			sp = t.tr.Start(name)
		}
		if st.snap {
			err = d.IngestSnapshot(st.at)
		} else {
			err = d.IngestMonth(st.month)
		}
		if sp != nil {
			sp.End()
		}
		if err != nil {
			return 0, nil, err
		}
	}
	wall := time.Since(start)
	if t != nil {
		t.out["report.recomputes"] = float64(runs() - runs0)
	}
	got := make(Artifacts, len(report.All()))
	for id, a := range d.Snapshot().Artifacts {
		got[id] = a.TSV
	}
	return wall, got, nil
}
