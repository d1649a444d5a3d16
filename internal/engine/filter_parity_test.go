package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/stats"
)

// dropHeavy is a deterministic validity filter that rejects roughly a
// seventh of the stream based on packet contents alone, so every worker
// count sees the exact same accept/reject sequence while the drop path
// stays hot enough to matter.
func dropHeavy(dark ipaddr.Prefix) Filter {
	return func(p *pcap.Packet) bool {
		if !dark.Contains(p.Dst) || ipaddr.IsPrivate(p.Src) {
			return false
		}
		return (uint32(p.Src)*2654435761)%7 != 0
	}
}

// filteredStream builds a fixed-seed telescope stream for the parity
// sweep.
func filteredStream(t testing.TB, seed int64) (*radiation.Stream, ipaddr.Prefix) {
	t.Helper()
	cfg := radiation.DefaultConfig()
	cfg.Seed = seed
	cfg.NumSources = 4000
	cfg.ZM = stats.PaperZM(1 << 11)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop.TelescopeStream(3, time.Unix(0, 0)), cfg.Darkspace
}

// TestParallelFilterMatchesSerial is the in-shard filtering parity
// sweep: with a drop-heavy filter, every worker count — on both the
// slab reader and the per-packet reader — must reproduce the per-packet
// oracle's window exactly (NV, Dropped, Start/End timestamps, every
// matrix entry), with one drop counter per shard summing to the
// oracle's drop count. Run under -race in CI, this is also the proof
// that concurrent filter evaluation and per-shard drop accounting are
// sound.
func TestParallelFilterMatchesSerial(t *testing.T) {
	const nv = 1 << 12
	const leafSize = 1 << 8
	st, dark := filteredStream(t, 41)
	oracle := captureOracle(st, dropHeavy(dark), identityPair, leafSize, nv)
	if oracle.NV != nv {
		t.Fatalf("oracle NV = %d, want %d", oracle.NV, nv)
	}
	if oracle.Dropped < nv/20 {
		t.Fatalf("oracle Dropped = %d: filter not drop-heavy enough to exercise the parity rule", oracle.Dropped)
	}

	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, perPacket := range []bool{false, true} {
			st, dark := filteredStream(t, 41)
			e := newEngine(t, Config{Workers: workers, LeafSize: leafSize, Batch: 96}, dropHeavy(dark), identityPair)
			var src PacketSource = st
			label := fmt.Sprintf("workers=%d slab", workers)
			if perPacket {
				src = perPacketOnly{st}
				label = fmt.Sprintf("workers=%d per-packet", workers)
			}
			w, err := e.CaptureWindow(context.Background(), src, nv)
			if err != nil {
				t.Fatal(err)
			}
			if len(w.ShardDrops) != workers {
				t.Fatalf("%s: ShardDrops has %d shards", label, len(w.ShardDrops))
			}
			diffWindow(t, label, w, oracle)
		}
	}
}

// TestParallelFilterMultiWindow cuts several back-to-back filtered
// windows from one shared stream at every worker count: in-shard
// filtering must leave the source at exactly the per-packet oracle's
// consumed prefix after each window, or boundaries drift.
func TestParallelFilterMultiWindow(t *testing.T) {
	const nv = 1 << 10
	const leafSize = 1 << 7
	const windows = 4
	st, dark := filteredStream(t, 43)
	var oracle []*Window
	for i := 0; i < windows; i++ {
		oracle = append(oracle, captureOracle(st, dropHeavy(dark), identityPair, leafSize, nv))
	}
	for _, workers := range []int{1, 2, 4} {
		st, dark := filteredStream(t, 43)
		e := newEngine(t, Config{Workers: workers, LeafSize: leafSize}, dropHeavy(dark), identityPair)
		for i := 0; i < windows; i++ {
			w, err := e.CaptureWindow(context.Background(), st, nv)
			if err != nil {
				t.Fatal(err)
			}
			diffWindow(t, fmt.Sprintf("workers=%d window %d", workers, i), w, oracle[i])
		}
	}
}

// benchFilteredWindow drives repeated drop-heavy window captures; the
// filter_window benchreport metrics measure the same path end to end.
func benchFilteredWindow(b *testing.B, workers int) {
	cfg := radiation.DefaultConfig()
	cfg.Seed = 47
	cfg.NumSources = 4000
	cfg.ZM = stats.PaperZM(1 << 11)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e := newEngine(b, Config{Workers: workers, LeafSize: 1 << 10}, dropHeavy(cfg.Darkspace), identityPair)
	const nv = 1 << 14
	st := pop.TelescopeStream(3, time.Unix(0, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := e.CaptureWindow(context.Background(), st, nv)
		if err != nil {
			b.Fatal(err)
		}
		if w.NV < nv {
			b.StopTimer()
			st = pop.TelescopeStream(3, time.Unix(0, 0))
			b.StartTimer()
		}
	}
}

func BenchmarkFilteredWindowW1(b *testing.B) { benchFilteredWindow(b, 1) }
func BenchmarkFilteredWindowW8(b *testing.B) { benchFilteredWindow(b, 8) }
