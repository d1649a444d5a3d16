package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/hypersparse"
	"repro/internal/ipaddr"
	"repro/internal/netquant"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/stats"
)

// testStream returns a fixed-seed telescope stream plus the population's
// darkspace, so every test run (and every worker count) sees the exact
// same packet sequence.
func testStream(t testing.TB, seed int64) (*radiation.Stream, ipaddr.Prefix) {
	t.Helper()
	cfg := radiation.DefaultConfig()
	cfg.Seed = seed
	cfg.NumSources = 5000
	cfg.ZM = stats.PaperZM(1 << 11)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop.TelescopeStream(3, time.Unix(0, 0)), cfg.Darkspace
}

// darkFilter is the darkspace validity filter the engine tests share.
func darkFilter(dark ipaddr.Prefix) Filter {
	return func(p *pcap.Packet) bool { return dark.Contains(p.Dst) && !ipaddr.IsPrivate(p.Src) }
}

// testEngine builds an engine with a darkspace validity filter and an
// identity coordinate mapper.
func testEngine(t testing.TB, cfg Config, dark ipaddr.Prefix) *Engine {
	t.Helper()
	return newEngine(t, cfg, darkFilter(dark), identityPair)
}

func entries(m *hypersparse.Matrix) []hypersparse.Entry {
	var out []hypersparse.Entry
	m.Iterate(func(e hypersparse.Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{LeafSize: 0}).Validate(); err == nil {
		t.Error("LeafSize=0 accepted")
	}
	if _, err := NewPerWorkerSlab(Config{LeafSize: 8}, nil, nil); err == nil {
		t.Error("nil mapper factory accepted")
	}
	c := newEngine(t, Config{LeafSize: 8}, nil, identityPair).cfg
	if c.Workers < 1 || c.Batch != 8 {
		t.Errorf("defaults not normalized: %+v", c)
	}
}

// TestShardedMatchesSerial is the engine's core invariant: for a fixed
// seed, every worker count produces the per-packet oracle's window —
// same NV and drop accounting, same matrix entries, same netquant Table
// II quantities — because the matrix is a commutative sum of the same
// triples regardless of how leaves are sharded. Run under -race this is
// also the concurrency soundness test.
func TestShardedMatchesSerial(t *testing.T) {
	const nv = 1 << 13
	const leafSize = 1 << 9
	st, dark := testStream(t, 7)
	oracle := captureOracle(st, darkFilter(dark), identityPair, leafSize, nv)
	if oracle.NV != nv {
		t.Fatalf("oracle NV = %d, want %d", oracle.NV, nv)
	}
	wantQ := netquant.Compute(oracle.Matrix)
	for _, workers := range []int{1, 2, 4, 8} {
		st, dark := testStream(t, 7)
		e := testEngine(t, Config{Workers: workers, LeafSize: leafSize, Batch: 128}, dark)
		w, err := e.CaptureWindow(context.Background(), st, nv)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("workers=%d", workers)
		diffWindow(t, label, w, oracle)
		if w.Matrix.NRows() != oracle.Matrix.NRows() {
			t.Fatalf("%s: NRows %d, want %d", label, w.Matrix.NRows(), oracle.Matrix.NRows())
		}
		if q := netquant.Compute(w.Matrix); q != wantQ {
			t.Fatalf("%s: Table II quantities differ:\n got %+v\nwant %+v", label, q, wantQ)
		}
	}
}

// TestShardedLeafAccounting checks the leaf count matches a one-shard
// build's total (partial tail leaves per shard can add at most
// Workers-1 extra cuts, never lose one).
func TestShardedLeafAccounting(t *testing.T) {
	const nv = 4096
	st, dark := testStream(t, 11)
	e := testEngine(t, Config{Workers: 4, LeafSize: 512, Batch: 100}, dark)
	w, err := e.CaptureWindow(context.Background(), st, nv)
	if err != nil {
		t.Fatal(err)
	}
	minLeaves := nv / 512
	maxLeaves := minLeaves + 4 // one partial tail per shard
	if w.Leaves < minLeaves || w.Leaves > maxLeaves {
		t.Errorf("leaves = %d, want in [%d, %d]", w.Leaves, minLeaves, maxLeaves)
	}
	if w.Shards < 1 || w.Shards > 4 {
		t.Errorf("shards = %d", w.Shards)
	}
	if w.Matrix.Sum() != nv {
		t.Errorf("matrix sum = %g, want %d", w.Matrix.Sum(), nv)
	}
}

// TestShortStream: a stream smaller than NV ends the window early
// without error, mirroring the per-packet capture contract.
func TestShortStream(t *testing.T) {
	for _, workers := range []int{1, 4} {
		st, dark := testStream(t, 3)
		total := st.ExpectedPackets()
		e := testEngine(t, Config{Workers: workers, LeafSize: 256}, dark)
		w, err := e.CaptureWindow(context.Background(), st, total*10)
		if err != nil {
			t.Fatal(err)
		}
		if w.NV+w.Dropped != total {
			t.Errorf("workers=%d: NV+Dropped = %d, want %d", workers, w.NV+w.Dropped, total)
		}
		if w.Matrix.Sum() != float64(w.NV) {
			t.Errorf("workers=%d: sum %g != NV %d", workers, w.Matrix.Sum(), w.NV)
		}
	}
}

// infiniteSource never ends; it exists to prove cancellation works even
// when the stream alone would never terminate the capture.
type infiniteSource struct {
	i uint32
	t time.Time
}

func (s *infiniteSource) Next(p *pcap.Packet) bool {
	s.i++
	s.t = s.t.Add(time.Millisecond)
	*p = pcap.Packet{Time: s.t, Src: ipaddr.Addr(0xC0000000 + s.i%100000), Dst: ipaddr.Addr(s.i % 1024)}
	return true
}

func TestContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := newEngine(t, Config{Workers: workers, LeafSize: 256}, nil, identityPair)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		done := make(chan error, 1)
		go func() {
			_, err := e.CaptureWindow(ctx, &infiniteSource{}, 1<<30)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("workers=%d: err = %v, want deadline exceeded", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: capture did not stop after cancellation", workers)
		}
		cancel()
	}
}

// TestCancellationAllRejected: cancellation must be observed even when
// the filter rejects every packet, i.e. no batch ever fills and the
// send-side poll never runs.
func TestCancellationAllRejected(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := newEngine(t, Config{Workers: workers, LeafSize: 256}, rejectAll, identityPair)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		done := make(chan error, 1)
		go func() {
			_, err := e.CaptureWindow(ctx, &infiniteSource{}, 1)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("workers=%d: err = %v, want deadline exceeded", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: all-rejected capture did not observe cancellation", workers)
		}
		cancel()
	}
}

// errSource fails mid-stream the way a truncated pcap file does.
type errSource struct {
	n   int
	err error
}

func (s *errSource) Next(p *pcap.Packet) bool {
	if s.n == 0 {
		s.err = errors.New("truncated capture")
		return false
	}
	s.n--
	*p = pcap.Packet{Src: ipaddr.Addr(s.n), Dst: ipaddr.Addr(s.n % 7)}
	return true
}

func (s *errSource) Err() error { return s.err }

func TestSourceErrorPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := newEngine(t, Config{Workers: workers, LeafSize: 64}, nil, identityPair)
		_, err := e.CaptureWindow(context.Background(), &errSource{n: 100}, 1<<20)
		if err == nil || err.Error() != "truncated capture" {
			t.Errorf("workers=%d: err = %v, want truncated capture", workers, err)
		}
	}
}

// TestTinyBatchConservesNV runs many small slabs through an odd worker
// count: 3 workers with 32-packet chunks must still complete the window
// and conserve NV through the merge.
func TestTinyBatchConservesNV(t *testing.T) {
	st, dark := testStream(t, 5)
	e := testEngine(t, Config{Workers: 3, LeafSize: 128, Batch: 32}, dark)
	const nv = 4096
	w, err := e.CaptureWindow(context.Background(), st, nv)
	if err != nil {
		t.Fatal(err)
	}
	if w.NV != nv || w.Matrix.Sum() != nv {
		t.Errorf("NV = %d, sum = %g, want %d", w.NV, w.Matrix.Sum(), nv)
	}
}

// emptySource is a stream with no packets at all.
type emptySource struct{}

func (emptySource) Next(*pcap.Packet) bool { return false }

func rejectAll(*pcap.Packet) bool { return false }

// TestEmptyWindowAccounting pins the accounting of a window that
// accepts nothing, at one worker and at several: no shard and no leaf,
// one drop counter per configured worker summing to Dropped, and an
// empty matrix — the oracle's window, on an empty stream and on a
// finite stream the filter rejects in full.
func TestEmptyWindowAccounting(t *testing.T) {
	const leafSize = 256
	const nv = 1 << 30 // never reached: each source runs dry first
	sources := []struct {
		name string
		src  func() PacketSource
	}{
		{"empty", func() PacketSource { return emptySource{} }},
		{"all-rejected", func() PacketSource { st, _ := testStream(t, 9); return st }},
	}
	for _, s := range sources {
		oracle := captureOracle(s.src(), rejectAll, identityPair, leafSize, nv)
		if s.name == "all-rejected" && oracle.Dropped == 0 {
			t.Fatal("all-rejected stream produced no packets")
		}
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s workers=%d", s.name, workers)
			e := newEngine(t, Config{Workers: workers, LeafSize: leafSize}, rejectAll, identityPair)
			w, err := e.CaptureWindow(context.Background(), s.src(), nv)
			if err != nil {
				t.Fatal(err)
			}
			diffWindow(t, label, w, oracle)
			if w.Shards != 0 || w.Leaves != 0 {
				t.Errorf("%s: Shards/Leaves %d/%d, want 0/0", label, w.Shards, w.Leaves)
			}
			if w.Shards != oracle.Shards || w.Leaves != oracle.Leaves {
				t.Errorf("%s: Shards/Leaves %d/%d, oracle %d/%d", label, w.Shards, w.Leaves, oracle.Shards, oracle.Leaves)
			}
			if len(w.ShardDrops) != workers {
				t.Errorf("%s: %d ShardDrops entries, want %d", label, len(w.ShardDrops), workers)
			}
			if w.Matrix.NNZ() != 0 || w.Matrix.NRows() != 0 {
				t.Errorf("%s: matrix has %d entries in %d rows, want empty", label, w.Matrix.NNZ(), w.Matrix.NRows())
			}
		}
	}
}

func TestBadWindowSize(t *testing.T) {
	e := newEngine(t, Config{LeafSize: 8}, nil, identityPair)
	if _, err := e.CaptureWindow(context.Background(), &infiniteSource{}, 0); err == nil {
		t.Error("nv=0 accepted")
	}
}

// perPacketOnly hides a stream's NextBatch so the engine is forced to
// lift the source through its per-packet adapter.
type perPacketOnly struct{ s *radiation.Stream }

func (p perPacketOnly) Next(pkt *pcap.Packet) bool { return p.s.Next(pkt) }

// TestBatchSourceMatchesPerPacket diffs the slab reader and the
// per-packet reader against the per-packet oracle on the same seeded
// stream: identical windows (NV, drops, span, every matrix entry) at
// every worker count, and identical leaf counts between the two
// readers.
func TestBatchSourceMatchesPerPacket(t *testing.T) {
	const nv = 1 << 12
	const leafSize = 1 << 8
	st, dark := testStream(t, 11)
	oracle := captureOracle(st, darkFilter(dark), identityPair, leafSize, nv)
	for _, workers := range []int{1, 4} {
		batched, dark := testStream(t, 11)
		plain, _ := testStream(t, 11)
		e := testEngine(t, Config{Workers: workers, LeafSize: leafSize}, dark)
		wb, err := e.CaptureWindow(context.Background(), batched, nv)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := e.CaptureWindow(context.Background(), perPacketOnly{plain}, nv)
		if err != nil {
			t.Fatal(err)
		}
		diffWindow(t, fmt.Sprintf("workers=%d slab", workers), wb, oracle)
		diffWindow(t, fmt.Sprintf("workers=%d per-packet", workers), wp, oracle)
		if wb.Leaves != wp.Leaves {
			t.Fatalf("workers=%d: leaves %d (slab) vs %d (per-packet)", workers, wb.Leaves, wp.Leaves)
		}
	}
}

// TestBatchSourcePreservesStreamPosition captures several back-to-back
// windows from one shared stream on both reader paths: the slab reader
// must never consume a packet beyond each window's last accepted one,
// so every subsequent window cuts identical boundaries.
func TestBatchSourcePreservesStreamPosition(t *testing.T) {
	const nv = 1 << 10
	batched, dark := testStream(t, 23)
	plain, _ := testStream(t, 23)
	e := testEngine(t, Config{Workers: 1, LeafSize: 1 << 7}, dark)
	for window := 0; window < 4; window++ {
		wb, err := e.CaptureWindow(context.Background(), batched, nv)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := e.CaptureWindow(context.Background(), perPacketOnly{plain}, nv)
		if err != nil {
			t.Fatal(err)
		}
		if wb.NV != wp.NV || wb.Dropped != wp.Dropped || !wb.End.Equal(wp.End) {
			t.Fatalf("window %d: diverged after shared-source capture:\nslab       %+v\nper-packet %+v",
				window, wb, wp)
		}
		be, pe := entries(wb.Matrix), entries(wp.Matrix)
		if len(be) != len(pe) {
			t.Fatalf("window %d: NNZ %d vs %d", window, len(be), len(pe))
		}
		for i := range be {
			if be[i] != pe[i] {
				t.Fatalf("window %d: entry %d differs", window, i)
			}
		}
		if window == 0 && wb.NV != nv {
			t.Fatalf("first window short: %d of %d", wb.NV, nv)
		}
	}
}

// TestBatchSourceCancellation asserts the slab reader honors context
// cancellation mid-window without leaking goroutines or wedging on
// backpressure.
func TestBatchSourceCancellation(t *testing.T) {
	st, dark := testStream(t, 5)
	e := testEngine(t, Config{Workers: 4, LeafSize: 1 << 6}, dark)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.CaptureWindow(ctx, st, 1<<20); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled slab capture: err = %v", err)
	}
}
