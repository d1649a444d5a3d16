package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/tripled"
)

// quick-cluster runs cycles of:
//
//  1. a study, while fewer than plan.minStudies have run, or fewer
//     than plan.maxStudies and time remains: a fresh cluster and
//     pipeline, Pipeline.Run, render all seven artifacts (setup_s,
//     study_s, cpu_s);
//  2. a unit pass, while fewer than plan.minPasses have run, or fewer
//     than plan.maxPasses and time remains: a fresh cluster and
//     pipeline driven through the public Pipeline.IngestMonth /
//     IngestSnapshot units in paper order, the StudyWorkers=1
//     runner's loop, timing every unit (month_ingest_p50_ms,
//     snapshot_ingest_p50_ms, ingest_tail_ms), then rendering all
//     seven artifacts;
//  3. plan.extraSetups more set-ups, each closed at once (setup_s).
//
// Each of the seven renders after a study or pass is one
// artifact_get sample: it is the read a library caller makes of a
// finished study.
//
// Cycle c studies population c mod len(cfgs). Interleaving spreads each
// metric's samples over the whole run, so a burst of load on the
// machine does not land on one metric only. Every study and pass must
// render the same seven artifacts as an in-memory batch run of its
// population.
const cyclesEnd = 0.9 // of --seconds

// cyclePlan bounds a workload's studies, unit passes and set-ups. The
// bounds keep every pooled sample inside one tail band, so a workload
// always reports its tails at the same percentiles.
type cyclePlan struct {
	minStudies, maxStudies int
	minPasses, maxPasses   int
	extraSetups            int
}

// One pass per population gives 200 units, whose tail is p95; 20-28
// studies and passes give 140-196 renders, whose tail is p90. A set-up
// takes a few milliseconds, so extra set-ups give setup_s enough
// samples that scheduler noise does not decide its median.
var clusterPlan = cyclePlan{minStudies: populations, maxStudies: 18, minPasses: populations, maxPasses: populations, extraSetups: 4}

func runBatch(e *env, cfgs []core.Config, refs []Artifacts, plan cyclePlan) (*samples, error) {
	s := &samples{}
	check := func(what string, sub int, arts Artifacts, res *core.Result) {
		cfg := cfgs[sub]
		e.tally.Check(what+": table2 NV", checkWindows(res.TableII(), len(cfg.SnapshotTimes), cfg.NV))
		e.tally.Check(what+": store health", checkHealth(res.StoreHealth))
		e.tally.Check(what+": artifacts", checkSame(refs[sub], arts))
	}

	studies, passes := 0, 0
	for c := 0; ; c++ {
		timeLeft := e.elapsed() < cyclesEnd*e.seconds
		doStudy := c < plan.minStudies || (c < plan.maxStudies && timeLeft)
		doPass := c < plan.minPasses || (c < plan.maxPasses && timeLeft)
		if !doStudy && !doPass {
			break
		}
		sub := c % len(cfgs)
		cfg := cfgs[sub]

		if doStudy {
			runtime.GC()
			what := fmt.Sprintf("study %d", c)
			st, err := batchStudy(e, cfg)
			if e.tally.Check(what, err) {
				studies++
				s.setup = append(s.setup, st.setup.Seconds())
				s.study = append(s.study, st.study.Seconds())
				s.cpu = append(s.cpu, st.cpu.Seconds())
				s.gets = append(s.gets, st.gets...)
				check(what, sub, st.arts, st.res)
			}
		}
		if doPass {
			runtime.GC()
			what := fmt.Sprintf("unit pass %d", c)
			if res, err := unitPass(e, cfg, s); e.tally.Check(what, err) {
				passes++
				arts, gets, err := renderAll(res.Report())
				if e.tally.Check(what+": render", err) {
					s.gets = append(s.gets, gets...)
					check(what, sub, arts, res)
				}
			}
		}
		for i := 0; i < plan.extraSetups; i++ {
			runtime.GC()
			d, err := timeSetup(e, cfg)
			if e.tally.Check(fmt.Sprintf("set-up %d.%d", c, i), err) {
				s.setup = append(s.setup, d.Seconds())
			}
		}
	}
	if studies == 0 || passes == 0 {
		return nil, fmt.Errorf("%d studies and %d unit passes completed", studies, passes)
	}
	return s, nil
}

// setUp starts a fresh cluster and a pipeline on it, the set-up
// setup_s times. dial also connects a store client for the unit
// passes, which drive the units with their own connection.
func setUp(e *env, cfg core.Config, dial bool) (*Cluster, tripled.Conn, *core.Pipeline, error) {
	cl, err := StartCluster(e.tmp)
	if err != nil {
		return nil, nil, nil, err
	}
	var db tripled.Conn
	if dial {
		if db, err = core.DialStore(cl.Spec); err != nil {
			cl.Close()
			return nil, nil, nil, err
		}
	}
	cfg.StoreAddr = cl.Spec
	p, err := core.New(cfg)
	if err != nil {
		if db != nil {
			db.Close()
		}
		cl.Close()
		return nil, nil, nil, err
	}
	return cl, db, p, nil
}

// timeSetup times one set-up and tears it down.
func timeSetup(e *env, cfg core.Config) (time.Duration, error) {
	t := time.Now()
	cl, _, _, err := setUp(e, cfg, false)
	d := time.Since(t)
	if err != nil {
		return 0, err
	}
	return d, cl.Close()
}

// measuredStudy is one timed batch study and what it rendered.
type measuredStudy struct {
	res               *core.Result
	arts              Artifacts
	gets              []float64 // µs per render
	setup, study, cpu time.Duration
}

// batchStudy sets up a fresh cluster and pipeline and runs one
// complete study through Pipeline.Run plus rendering all artifacts.
func batchStudy(e *env, cfg core.Config) (measuredStudy, error) {
	var m measuredStudy
	t0 := time.Now()
	cl, _, p, err := setUp(e, cfg, false)
	if err != nil {
		return m, err
	}
	defer cl.Close()
	m.setup = time.Since(t0)

	u0 := readUsage()
	t1 := time.Now()
	if m.res, err = p.Run(); err != nil {
		return m, err
	}
	if m.arts, m.gets, err = renderAll(m.res.Report()); err != nil {
		return m, err
	}
	m.study = time.Since(t1)
	m.cpu = readUsage().cpu - u0.cpu
	return m, nil
}

// unitPass drives a fresh pipeline through the study's units in paper
// order (all months, then every snapshot, as the serial runner does),
// appending each unit's latency to s, and assembles the Result.
func unitPass(e *env, cfg core.Config, s *samples) (*core.Result, error) {
	t0 := time.Now()
	cl, db, p, err := setUp(e, cfg, true)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	defer db.Close()
	s.setup = append(s.setup, time.Since(t0).Seconds())

	res := &core.Result{Config: cfg}
	for m := 0; m < cfg.Radiation.Months; m++ {
		t := time.Now()
		md, err := p.IngestMonth(db, m)
		if err != nil {
			return nil, err
		}
		s.month = append(s.month, ms(time.Since(t)))
		res.Study.Months = append(res.Study.Months, md)
	}
	for _, ts := range cfg.SnapshotTimes {
		t := time.Now()
		w, snap, err := p.IngestSnapshot(context.Background(), db, ts)
		if err != nil {
			return nil, err
		}
		s.snap = append(s.snap, ms(time.Since(t)))
		res.Windows = append(res.Windows, w)
		res.Study.Snapshots = append(res.Study.Snapshots, snap)
	}
	res.StoreHealth = healthOf(db)
	return res, nil
}

// printDigest prints a population's reference artifact digest.
func printDigest(cfg core.Config, arts Artifacts) {
	fmt.Printf("population %d: artifacts sha256 %s\n", cfg.Radiation.Seed, arts.Digest())
}

// referenceArtifacts renders an in-memory batch study, off the clock.
func referenceArtifacts(cfg core.Config) (Artifacts, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := p.Run()
	if err != nil {
		return nil, err
	}
	arts, _, err := renderAll(res.Report())
	return arts, err
}
