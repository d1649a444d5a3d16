package core

// scheduler.go is the study runner: the honeyfarm months and telescope
// snapshots — mutually independent, deterministic units of work — run
// on the shared worker pool (internal/pool, also ridden by the report
// graph's per-band model fits), Config.StudyWorkers at a time. The
// units are the same buildMonth / captureSnapshot bodies behind the
// exported IngestMonth / IngestSnapshot, so batch and incremental
// studies share one implementation.
//
// The design rests on three ownership rules:
//
//   - The radiation Population is immutable after construction, so any
//     number of workers may synthesize months and streams from it
//     concurrently.
//   - Shared mutable state is either concurrency-safe or never touched
//     from the pool. Months are built with honeyfarm.BuildMonth (reads
//     only the sensor set) and attached to the farm in month order
//     after the pool joins; each snapshot worker captures through its
//     own Telescope but all of them share the pipeline's one CryptoPAN
//     cache (cryptopan.Cached is sharded-lock concurrency-safe, the
//     mapping is a pure function of the passphrase, and sharing keeps
//     Reverse() a single complete deanonymization table instead of N
//     cold per-worker memos); each worker with store traffic dials its
//     own tripled client (the client is single-connection, not
//     concurrency-safe).
//   - Results land in index-addressed slots and are assembled in order,
//     so the Result is byte-identical at every worker count to the
//     test-side oracle, a loop over IngestMonth then IngestSnapshot —
//     proven by TestParallelStudyMatchesSerialOracle across every
//     emitter.

import (
	"context"
	"fmt"

	"repro/internal/correlate"
	"repro/internal/honeyfarm"
	"repro/internal/pool"
	"repro/internal/telescope"
	"repro/internal/tripled"
)

// runPool executes the study with the given fan-out; workers = 1 runs
// every job in line on the caller's goroutine. Job indices
// 0..nSnaps-1 are the snapshots and the rest the months, so the pool's
// in-order hand-out schedules snapshot jobs first: windows dominate
// the wall clock, and starting them first keeps the pool saturated
// while the cheaper month builds fill the gaps.
func (p *Pipeline) runPool(ctx context.Context, workers int) (*Result, error) {
	res := &Result{Config: p.cfg, Farm: p.farm}

	nMonths := p.cfg.Radiation.Months
	nSnaps := len(p.cfg.SnapshotTimes)
	monthData := make([]correlate.MonthData, nMonths)
	built := make([]*honeyfarm.MonthWindow, nMonths) // nil where the farm already held the month
	windows := make([]*telescope.Window, nSnaps)
	snapData := make([]correlate.Snapshot, nSnaps)

	health := &storeHealthAgg{}
	err := pool.EachWorker(ctx, workers, nSnaps+nMonths,
		func() *studyWorker { return &studyWorker{p: p, health: health} },
		(*studyWorker).close,
		func(ctx context.Context, w *studyWorker, job int) error {
			db, err := w.client()
			if err != nil {
				return err
			}
			if job < nSnaps {
				windows[job], snapData[job], err = p.captureSnapshot(ctx, w.telescope(), db, p.cfg.SnapshotTimes[job])
			} else {
				m := job - nSnaps
				monthData[m], built[m], err = p.buildMonth(db, m)
			}
			return err
		})
	if err != nil {
		return nil, err
	}

	// Assemble by index: attach freshly built months in month order so
	// the farm's ingestion order matches paper order, then adopt the
	// index-addressed slots.
	for _, mw := range built {
		if mw != nil {
			p.farm.Attach(mw)
		}
	}
	res.Study.Months = monthData
	res.Windows = windows
	res.Study.Snapshots = snapData
	res.StoreHealth = health.result()
	return res, nil
}

// studyWorker is one pool goroutine's lazily created private state: a
// telescope of its own (created on the first snapshot job) and a
// tripled client of its own (dialed on first store use).
type studyWorker struct {
	p      *Pipeline
	tel    *telescope.Telescope
	db     tripled.Conn
	dbE    error // sticky dial failure
	health *storeHealthAgg
}

func (w *studyWorker) close() {
	if w.db != nil {
		if h, ok := storeHealthOf(w.db); ok {
			w.health.add(h)
		}
		w.db.Close()
	}
}

// client returns the worker's tripled connection, dialing on first use;
// it returns (nil, nil) when the study runs without a store.
func (w *studyWorker) client() (tripled.Conn, error) {
	if w.p.cfg.StoreAddr == "" || w.dbE != nil {
		return nil, w.dbE
	}
	if w.db == nil {
		db, err := DialStore(w.p.cfg.StoreAddr)
		if err != nil {
			w.dbE = fmt.Errorf("core: store %s: %w", w.p.cfg.StoreAddr, err)
			return nil, w.dbE
		}
		w.db = db
	}
	return w.db, nil
}

// telescope returns the worker's private telescope, created on first
// use over the pipeline's shared CryptoPAN cache (see the ownership
// rules above); its per-shard L1 memos stay worker-private.
func (w *studyWorker) telescope() *telescope.Telescope {
	if w.tel == nil {
		p := w.p
		w.tel = telescope.New(p.cfg.Radiation.Darkspace, p.cfg.AnonPassphrase,
			telescope.WithLeafSize(p.cfg.LeafSize),
			telescope.WithAnonymizer(p.tel.Anonymizer()))
	}
	return w.tel
}
