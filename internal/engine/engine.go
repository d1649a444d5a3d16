// Package engine implements the sharded, streaming window build at the
// heart of the pipeline: packet sources (the telescope synthesizer, pcap
// readers) feed raw packet slabs to N shard workers — each filtering,
// mapping, and accumulating hypersparse leaf matrices of LeafSize
// entries — and a hierarchical merge tree reduces the shards into one
// per-window matrix.
//
// The engine is the parallel counterpart of the paper's construction:
// NV = 2^17-packet leaves are built independently and hierarchically
// summed into a 2^30-packet window. Because matrix addition is
// commutative and associative, every worker count produces exactly the
// same matrix as a per-packet loop over the same stream — only the leaf
// boundaries differ. There is one build: Workers=1 is the one-shard
// case of it, and the tests diff every worker count against a
// per-packet oracle (filter → mapper → hypersparse.Accumulator) kept in
// the test files.
//
// # Filter timestamp-parity rule
//
// The validity filter runs inside the shard workers, not on the reader
// goroutine, yet filtered windows are byte-identical to the per-packet
// oracle. Two rules make that hold:
//
//  1. Slab cap: every slab read is capped at the number of accepted
//     packets the window still needs (nv - NV). Accepted <= raw, so the
//     window can only reach nv on a slab that was accepted in full —
//     the nv-th accepted packet is always the last raw packet of its
//     slab, the consumed stream prefix equals the per-packet oracle's,
//     and a dropped packet can never shift a window boundary.
//  2. Ordered merge: workers filter disjoint chunks of one slab behind
//     a per-slab barrier and report per-chunk accept counts and
//     first/last accepted timestamps; the reader merges those in chunk
//     (= stream) order, so Start/End/NV/Dropped are computed in exactly
//     the order a per-packet loop would have seen the packets.
//
// The reader overlaps I/O with the barrier: while workers chew slab k
// it speculatively reads up to nv - NV - len(slab k) further packets —
// at least that many are still needed even if slab k is accepted in
// full, so speculation never consumes a packet the oracle would have
// left in the source (multi-window captures over one shared source cut
// identical boundaries).
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/hypersparse"
	"repro/internal/pcap"
)

// PacketSource yields packets in time order; Next returns false when the
// stream is exhausted. The telescope's PacketSource is this type.
type PacketSource interface {
	Next(*pcap.Packet) bool
}

// Errorer is optionally implemented by sources that can fail mid-stream
// (e.g. a pcap reader hitting a truncated file). The engine checks it
// after the stream ends and surfaces the error.
type Errorer interface {
	Err() error
}

// BatchSource is optionally implemented by sources that can emit many
// packets per call (radiation.Stream, telescope.ReaderSource). NextBatch
// must fill dst from the front and return how many packets were
// produced, behaving exactly like len(dst) successful Next calls: same
// packets, same order, same stream position. When a source implements
// it, the engine's reader pulls slabs instead of single packets,
// amortizing the per-packet dispatch that otherwise bottlenecks every
// shard worker behind the reader goroutine.
//
// The reader caps each slab at the number of packets still missing from
// the window (see the timestamp-parity rule above), so a capture never
// consumes a packet the per-packet path would have left in the source:
// multi-window captures over one shared source cut identical window
// boundaries either way.
type BatchSource interface {
	NextBatch(dst []pcap.Packet) int
}

// batchAdapter lifts a per-packet source to the BatchSource contract by
// repeated Next calls, so the capture carries exactly one reader loop
// (the slab loop) instead of a slab/per-packet pair that must be kept
// in sync. The slab-size cap in the capture loop makes this consume
// exactly the packets a per-packet loop would (see BatchSource).
type batchAdapter struct{ src PacketSource }

func (a batchAdapter) NextBatch(dst []pcap.Packet) int {
	n := 0
	for n < len(dst) && a.src.Next(&dst[n]) {
		n++
	}
	return n
}

// Filter reports whether a packet belongs in the window (the telescope's
// validity filter). It is compiled/constructed once per engine and
// evaluated on the shard workers, concurrently when Workers > 1 — it
// must be safe for concurrent use (pcap.Filter's compiled closures are).
type Filter func(*pcap.Packet) bool

// Pair is one accepted packet reduced to its matrix coordinates.
type Pair struct {
	Row, Col uint32
}

// SlabMapperFactory builds one SlabMapper per shard worker for each
// capture. Each returned mapper is only ever called from its own worker
// goroutine, so it may keep unsynchronized per-worker state (the
// telescope hangs a lock-free L1 anonymization memo here). Every mapper
// produced by one factory must compute the same function.
type SlabMapperFactory func(shard int) SlabMapper

// SlabMapper converts a slab of accepted packets to matrix coordinates:
// dst[i] must receive pkts[i]'s pair, for all i (len(dst) >= len(pkts)).
// Slab granularity lets the mapper batch its own internals — the
// telescope anonymizes a whole slab of addresses through one batched
// CryptoPAN call instead of two scalar calls per packet. Each shard
// worker calls only its own mapper (see SlabMapperFactory).
type SlabMapper func(pkts []pcap.Packet, dst []Pair)

// Config parameterizes an Engine.
type Config struct {
	// Workers is the shard-worker count; <= 0 uses GOMAXPROCS. Every
	// count, 1 included, runs the same sharded build.
	Workers int
	// LeafSize is the number of entries per leaf matrix (the paper's
	// leaf NV is 2^17).
	LeafSize int
	// Batch is the per-worker chunk granularity: a sharded slab holds up
	// to Batch x Workers raw packets and is split into Workers chunks of
	// at most Batch packets; 0 defaults to LeafSize so one chunk can
	// fill one leaf.
	Batch int
}

// normalized resolves defaults into concrete values.
func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Batch <= 0 {
		c.Batch = c.LeafSize
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LeafSize <= 0 {
		return fmt.Errorf("engine: LeafSize must be positive, got %d", c.LeafSize)
	}
	return nil
}

// Engine is a configured, reusable window builder. Construct with
// NewPerWorkerSlab.
type Engine struct {
	cfg      Config
	filter   Filter
	factory  SlabMapperFactory
	slabPool sync.Pool // reader double buffers (Batch x Workers packets)
	pairPool sync.Pool // per-worker coordinate slabs (Batch pairs)
	// accPool holds shard accumulators across windows. They return to
	// the pool already reset (Finish and Discard reset) but keep their
	// builder buffers, so repeated windows allocate nothing for leaf
	// assembly.
	accPool sync.Pool
}

// NewPerWorkerSlab builds an Engine whose shard workers map whole
// accepted-packet slabs at a time through per-worker SlabMappers; use it
// when the mapper can batch its own internals (the telescope's batched
// CryptoPAN anonymization). A nil filter accepts every packet.
func NewPerWorkerSlab(cfg Config, filter Filter, factory SlabMapperFactory) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, fmt.Errorf("engine: mapper factory required")
	}
	if filter == nil {
		filter = func(*pcap.Packet) bool { return true }
	}
	cfg = cfg.normalized()
	e := &Engine{cfg: cfg, filter: filter, factory: factory}
	e.slabPool.New = func() interface{} {
		s := make([]pcap.Packet, cfg.Batch*cfg.Workers)
		return &s
	}
	e.pairPool.New = func() interface{} {
		s := make([]Pair, cfg.Batch)
		return &s
	}
	e.accPool.New = func() interface{} {
		return hypersparse.NewAccumulator(cfg.LeafSize, 1)
	}
	return e, nil
}

// Window is one constant-packet capture: the merged matrix plus the
// stream accounting the telescope records in Table I.
type Window struct {
	Start, End time.Time
	NV         int // valid packets in the matrix
	Dropped    int // packets rejected by the filter
	Leaves     int // leaf matrices cut across all shards
	// Shards counts the shard workers that contributed leaves. A worker
	// that accepted no packet contributes none, so an empty window
	// (NV == 0) reports Shards == 0 and Leaves == 0 at every worker
	// count, Workers=1 included.
	Shards int
	// ShardDrops is the filter's per-shard drop accounting (index =
	// shard worker), one entry per configured worker. The distribution
	// across shards depends on which worker filtered which chunk, but
	// the sum always equals Dropped — and Dropped itself is identical to
	// a per-packet loop's count.
	ShardDrops []int
	Matrix     *hypersparse.Matrix
}

// Duration returns the wall-clock span of the window.
func (w *Window) Duration() time.Duration { return w.End.Sub(w.Start) }

// CaptureWindow reads from src until nv accepted packets are collected
// (or the stream ends), building the window matrix with the configured
// shard count. The capture stops early with ctx.Err() when ctx is
// cancelled; no goroutines outlive the call.
func (e *Engine) CaptureWindow(ctx context.Context, src PacketSource, nv int) (*Window, error) {
	if nv <= 0 {
		return nil, fmt.Errorf("engine: window size must be positive, got %d", nv)
	}
	bs, ok := src.(BatchSource)
	if !ok {
		bs = batchAdapter{src: src}
	}
	w, err := e.captureSharded(ctx, bs, nv)
	if err != nil {
		return nil, err
	}
	if es, ok := src.(Errorer); ok {
		if serr := es.Err(); serr != nil {
			return nil, serr
		}
	}
	return w, nil
}

// chunkTask is one contiguous span of the current slab handed to a
// shard worker: filter, map, accumulate, report into res, then release
// the slab barrier.
type chunkTask struct {
	pkts []pcap.Packet
	res  *chunkResult
	wg   *sync.WaitGroup
}

// chunkResult is what the reader needs to merge a chunk's stream
// accounting in order: how many packets survived the filter and the
// timestamps of the first and last survivors.
type chunkResult struct {
	accepted    int
	first, last time.Time
}

// shardResult is one worker's contribution to the merge tree.
type shardResult struct {
	shard  int
	matrix *hypersparse.Matrix
	leaves int
	drops  int
}

// captureSharded is the window build: the caller's goroutine reads raw
// slabs and splits each into Workers chunks behind a per-slab barrier;
// the shard workers filter, map, and accumulate their chunks in
// parallel (per-shard drop counters, merged after the capture), while
// the reader speculatively pre-reads the next slab. See the package
// comment for the parity argument.
func (e *Engine) captureSharded(ctx context.Context, src BatchSource, nv int) (*Window, error) {
	workers := e.cfg.Workers
	// One task channel per worker: chunk i of every slab goes to shard
	// worker i. The deterministic assignment makes leaf and drop
	// accounting reproducible across runs (channel scheduling can no
	// longer shuffle chunks between shards), which is what lets the
	// differential tests compare sharded windows field for field.
	tasks := make([]chan chunkTask, workers)
	results := make(chan shardResult, workers)
	var workerWG sync.WaitGroup
	for i := 0; i < workers; i++ {
		tasks[i] = make(chan chunkTask, 1)
		workerWG.Add(1)
		go func(shard int) {
			defer workerWG.Done()
			e.shardWorker(ctx, shard, tasks[shard], results)
		}(i)
	}

	w := &Window{}
	curBuf, nextBuf := e.slabPool.Get().(*[]pcap.Packet), e.slabPool.Get().(*[]pcap.Packet)
	defer e.slabPool.Put(curBuf)
	defer e.slabPool.Put(nextBuf)
	cur, next := *curBuf, *nextBuf
	chunks := make([]chunkResult, workers)
	var barrier sync.WaitGroup
	var readErr error

	curN := src.NextBatch(cur[:min(nv, len(cur))])
	for curN > 0 {
		if err := ctx.Err(); err != nil {
			readErr = err
			break
		}
		// Split the slab into at most one chunk per worker. Each task
		// channel holds one entry and is empty here (the previous barrier
		// drained it), so dispatch never blocks.
		per := (curN + workers - 1) / workers
		nchunks := 0
		for off := 0; off < curN; off += per {
			end := off + per
			if end > curN {
				end = curN
			}
			chunks[nchunks] = chunkResult{}
			barrier.Add(1)
			tasks[nchunks] <- chunkTask{pkts: cur[off:end], res: &chunks[nchunks], wg: &barrier}
			nchunks++
		}
		// Speculative read-ahead, overlapped with the workers: even if
		// the in-flight slab is accepted in full the window still needs
		// nv - NV - curN more packets, so reading that many can never
		// overrun the oracle's consumed prefix. spec > 0 only when the
		// window cannot complete on the in-flight slab.
		spec := min(nv-w.NV-curN, len(next))
		nextN := 0
		specDone := spec > 0
		if specDone {
			nextN = src.NextBatch(next[:spec])
		}
		barrier.Wait()
		// Merge chunk accounting in stream order (parity rule 2).
		for i := 0; i < nchunks; i++ {
			r := &chunks[i]
			if r.accepted > 0 {
				if w.NV == 0 {
					w.Start = r.first
				}
				w.End = r.last
				w.NV += r.accepted
			}
		}
		if w.NV >= nv {
			break
		}
		if specDone {
			if nextN == 0 {
				break // stream ran dry during the speculative read
			}
			cur, next = next, cur
			curN = nextN
			continue
		}
		// No speculation was possible (the slab could have completed the
		// window but didn't): read synchronously with the exact cap.
		curN = src.NextBatch(cur[:min(nv-w.NV, len(cur))])
	}
	for i := range tasks {
		close(tasks[i])
	}
	workerWG.Wait()
	close(results)

	if readErr == nil {
		readErr = ctx.Err()
	}
	if readErr != nil {
		// Drain results so shard matrices are released before returning.
		for range results {
		}
		return nil, readErr
	}

	shardMats := make([]*hypersparse.Matrix, 0, workers)
	w.ShardDrops = make([]int, workers)
	for r := range results {
		w.ShardDrops[r.shard] = r.drops
		w.Dropped += r.drops
		if r.leaves == 0 {
			continue
		}
		w.Leaves += r.leaves
		w.Shards++
		shardMats = append(shardMats, r.matrix)
	}
	w.Matrix = hypersparse.HierSum(shardMats, workers)
	return w, nil
}

// shardWorker drains chunk tasks: filter its chunk (counting drops into
// the per-shard counter), compact the survivors, map them to
// coordinates through the per-worker slab mapper, and accumulate leaf
// matrices; then reduce its leaves and report one shard matrix. On
// cancellation it stops doing work but keeps releasing barriers so the
// reader never deadlocks.
func (e *Engine) shardWorker(ctx context.Context, shard int, tasks <-chan chunkTask, results chan<- shardResult) {
	acc := e.accPool.Get().(*hypersparse.Accumulator)
	defer e.accPool.Put(acc)
	mapper := e.factory(shard)
	pairsBuf := e.pairPool.Get().(*[]Pair)
	pairs := *pairsBuf
	drops := 0
	ingested := 0
	for t := range tasks {
		if ctx.Err() != nil {
			t.wg.Done() // abandoned: release the barrier, contribute nothing
			continue
		}
		pkts := t.pkts
		kept := 0
		for i := range pkts {
			p := &pkts[i]
			if !e.filter(p) {
				drops++
				continue
			}
			if kept == 0 {
				t.res.first = p.Time
			}
			t.res.last = p.Time
			if kept != i {
				pkts[kept] = *p
			}
			kept++
		}
		t.res.accepted = kept
		if kept > 0 {
			mapper(pkts[:kept], pairs[:kept])
			for _, p := range pairs[:kept] {
				acc.Add(p.Row, p.Col, 1)
			}
			ingested += kept
		}
		t.wg.Done()
	}
	e.pairPool.Put(pairsBuf)
	if ctx.Err() != nil {
		// The capture is abandoned and the result will be drained unread:
		// skip the merge entirely.
		acc.Discard()
		results <- shardResult{shard: shard}
		return
	}
	leaves := acc.Leaves()
	if ingested%e.cfg.LeafSize != 0 {
		leaves++ // partial tail leaf
	}
	results <- shardResult{shard: shard, matrix: acc.Finish(), leaves: leaves, drops: drops}
}
