package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/report"
)

// daemon-grow grows a resident study behind daemon.Serve on loopback,
// on a fresh daemon each time; growth g grows population g mod
// len(cfgs). One closed-loop ingester POSTs every month and snapshot
// in paper order, each after the previous returns; one open-loop
// reader GETs /artifacts/{id} round-robin at readRate, each request
// timed from when it was due.
const (
	// One growth per population, then more while time remains: 10 to
	// 14 growths x 20 ingests keep ingest_tail at p95, and the reader's
	// ~500-900 GETs keep artifact_get_tail at p95, whether a growth
	// takes 2 s or 4 s (the host's speed drifts that much).
	minGrowths = populations
	maxGrowths = 14
	growthEnds = 0.9 // of --seconds
	// readRate is a chosen load, not a recorded one: a dashboard or
	// two polling every artifact while the study grows. It is low
	// enough that one reader never queues behind itself between
	// ingests, so the GET latencies show the read path and the
	// contention with recompute rather than the generator's backlog.
	readRate = 20 // GETs per second while the reader runs
	// growthSetups is how many more daemons each growth sets up and
	// shuts down at once, so setup_s (a few milliseconds) has enough
	// samples that scheduler noise does not decide its median.
	growthSetups = 10
	drainTimeout = 10 * time.Second
)

// step is one ingest of the paper-order growth.
type step struct {
	month int       // valid when !snap
	at    time.Time // snapshot time when snap
	snap  bool
	when  time.Time // chronological sort key
}

// paperOrder interleaves months and snapshots chronologically: a month
// arrives at its first day, a snapshot at its capture time.
func paperOrder(cfg core.Config, snapshots []time.Time) []step {
	var out []step
	for m := 0; m < cfg.Radiation.Months; m++ {
		out = append(out, step{month: m, when: cfg.StudyStart.AddDate(0, m, 0)})
	}
	for _, ts := range snapshots {
		out = append(out, step{at: ts, snap: true, when: ts})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].when.Before(out[j].when) })
	return out
}

func (s step) path() string {
	if s.snap {
		return "/ingest/snapshot"
	}
	return "/ingest/month"
}

func (s step) body() string {
	if s.snap {
		return fmt.Sprintf(`{"time":%q}`, s.at.UTC().Format(time.RFC3339Nano))
	}
	return fmt.Sprintf(`{"month":%d}`, s.month)
}

// residentConfig is the daemon's configuration: the workload's study
// with no up-front snapshots (they arrive over the ingest API).
func residentConfig(cfg core.Config) core.Config {
	cfg.SnapshotTimes = nil
	return cfg
}

func runDaemon(e *env, cfgs []core.Config, refs []Artifacts) (*samples, error) {
	s := &samples{}
	var late []float64
	done := 0
	for g := 0; g < maxGrowths && (g < minGrowths || e.elapsed() < growthEnds*e.seconds); g++ {
		sub := g % len(cfgs)
		cfg := residentConfig(cfgs[sub])
		for i := 0; i < growthSetups; i++ {
			runtime.GC()
			d, err := timeDaemonSetup(cfg)
			if e.tally.Check(fmt.Sprintf("set-up %d.%d", g, i), err) {
				s.setup = append(s.setup, d.Seconds())
			}
		}
		runtime.GC()
		lateG, err := growOverHTTP(e, cfg, paperOrder(cfgs[sub], cfgs[sub].SnapshotTimes), refs[sub], s)
		if e.tally.Check(fmt.Sprintf("growth %d", g), err) {
			done++
		}
		late = append(late, lateG...)
	}
	if done == 0 {
		return nil, fmt.Errorf("no growth completed")
	}
	fmt.Printf("reader: %d GETs at %d/s, generator late p50 %.1f µs, max %.1f µs\n",
		len(late), readRate, median(late), quantile(late, 1))
	return s, nil
}

// startDaemon sets up a daemon behind daemon.Serve on loopback, the
// set-up setup_s times.
func startDaemon(cfg core.Config) (*daemon.Server, error) {
	d, err := daemon.New(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := daemon.Serve(d, "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	return srv, nil
}

func shutdown(srv *daemon.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return srv.Shutdown(ctx)
}

// timeDaemonSetup times one daemon set-up and shuts the daemon down.
func timeDaemonSetup(cfg core.Config) (time.Duration, error) {
	t := time.Now()
	srv, err := startDaemon(cfg)
	d := time.Since(t)
	if err != nil {
		return 0, err
	}
	return d, shutdown(srv)
}

// growOverHTTP runs one growth on a fresh daemon and returns how late
// each GET was sent relative to its due time (µs).
func growOverHTTP(e *env, cfg core.Config, order []step, ref Artifacts, s *samples) ([]float64, error) {
	t0 := time.Now()
	srv, err := startDaemon(cfg)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	defer func() { e.tally.Check("daemon shutdown", shutdown(srv)) }()
	base := "http://" + srv.Addr()
	ingester := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer ingester.CloseIdleConnections()

	var (
		stop    = make(chan struct{})
		readers sync.WaitGroup
		gets    []float64
		late    []float64
		readTal Tally
	)
	startReader := func() {
		readers.Add(1)
		go func() {
			defer readers.Done()
			gets, late = openLoopReader(base, stop, &readTal)
		}()
	}

	var months, snaps []float64
	u0 := readUsage()
	t1 := time.Now()
	reading := false
	var ingestErr error
	for _, st := range order {
		t := time.Now()
		_, err := checkResponse(ingester.Post(base+st.path(), "application/json", strings.NewReader(st.body())))
		lat := time.Since(t)
		if !e.tally.Check("POST "+st.path(), err) {
			ingestErr = err
			break
		}
		if st.snap {
			snaps = append(snaps, ms(lat))
			if !reading {
				// Every artifact is computable from the first snapshot on;
				// before it, the snapshot artifacts are 503 by design.
				startReader()
				reading = true
			}
		} else {
			months = append(months, ms(lat))
		}
	}
	study := time.Since(t1)
	cpu := readUsage().cpu - u0.cpu
	close(stop)
	readers.Wait()
	e.tally.Attempted += readTal.Attempted
	e.tally.Failed += readTal.Failed
	if ingestErr != nil {
		return late, ingestErr
	}

	// Off the clock: the grown study must serve the batch run's bytes.
	got := make(Artifacts, len(report.All()))
	for _, id := range report.All() {
		body, err := checkResponse(ingester.Get(base + "/artifacts/" + string(id) + "?format=tsv"))
		if !e.tally.Check("final GET "+string(id), err) {
			return late, err
		}
		got[id] = body
	}
	e.tally.Check("grown artifacts", checkSame(ref, got))

	s.setup = append(s.setup, setup.Seconds())
	s.study = append(s.study, study.Seconds())
	s.cpu = append(s.cpu, cpu.Seconds())
	s.month = append(s.month, months...)
	s.snap = append(s.snap, snaps...)
	s.gets = append(s.gets, gets...)
	return late, nil
}

// openLoopReader GETs the artifacts round-robin at readRate until stop
// closes. Each latency runs from the request's due time, so a stall
// also charges the requests queued behind it; late is how far behind
// schedule each request was sent.
func openLoopReader(base string, stop <-chan struct{}, tal *Tally) (lat, late []float64) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	ids := report.All()
	interval := time.Second / readRate
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return lat, late
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return lat, late
			default:
			}
		}
		late = append(late, us(time.Since(due)))
		id := ids[i%len(ids)]
		_, err := checkResponse(client.Get(base + "/artifacts/" + string(id)))
		if tal.Check("GET "+string(id), err) {
			lat = append(lat, us(time.Since(due)))
		}
	}
}
