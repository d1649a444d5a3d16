package engine

// oracle_test.go holds the per-packet window build every parity test
// diffs the engine against: filter, map, and accumulate one packet at a
// time on the caller's goroutine. The engine has one build for every
// worker count, so this loop — not Workers=1 — is the reference.

import (
	"testing"

	"repro/internal/hypersparse"
	"repro/internal/pcap"
)

// pktMapper is a per-packet coordinate mapper, the shape the oracle and
// most tests want; perPacket lifts it to the engine's slab contract.
type pktMapper func(*pcap.Packet) Pair

func identityPair(p *pcap.Packet) Pair { return Pair{Row: uint32(p.Src), Col: uint32(p.Dst)} }

func perPacket(m pktMapper) SlabMapperFactory {
	return func(int) SlabMapper {
		return func(pkts []pcap.Packet, dst []Pair) {
			for i := range pkts {
				dst[i] = m(&pkts[i])
			}
		}
	}
}

// newEngine builds an engine over a per-packet mapper.
func newEngine(t testing.TB, cfg Config, filter Filter, m pktMapper) *Engine {
	t.Helper()
	e, err := NewPerWorkerSlab(cfg, filter, perPacket(m))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// captureOracle reads src until nv packets pass filter (or the stream
// ends) and accumulates them through one hypersparse.Accumulator. It
// reports the window as a single shard: Leaves counts the partial tail
// leaf, and an empty window has no shard and no leaf.
func captureOracle(src PacketSource, filter Filter, m pktMapper, leafSize, nv int) *Window {
	acc := hypersparse.NewAccumulator(leafSize, 1)
	w := &Window{}
	var pkt pcap.Packet
	for w.NV < nv && src.Next(&pkt) {
		if filter != nil && !filter(&pkt) {
			w.Dropped++
			continue
		}
		if w.NV == 0 {
			w.Start = pkt.Time
		}
		w.End = pkt.Time
		p := m(&pkt)
		acc.Add(p.Row, p.Col, 1)
		w.NV++
	}
	w.Leaves = (w.NV + leafSize - 1) / leafSize
	if w.Leaves > 0 {
		w.Shards = 1
	}
	w.ShardDrops = []int{w.Dropped}
	w.Matrix = acc.Finish()
	return w
}

// diffWindow fails unless got reproduces the oracle window want: NV,
// Dropped, Start/End, a per-shard drop sum equal to Dropped, and every
// matrix entry. Leaf and shard counts are not compared; they depend on
// how the stream was sharded.
func diffWindow(t testing.TB, label string, got, want *Window) {
	t.Helper()
	if got.NV != want.NV || got.Dropped != want.Dropped {
		t.Fatalf("%s: NV/Dropped %d/%d, want %d/%d", label, got.NV, got.Dropped, want.NV, want.Dropped)
	}
	if !got.Start.Equal(want.Start) || !got.End.Equal(want.End) {
		t.Fatalf("%s: span [%v, %v], want [%v, %v]", label, got.Start, got.End, want.Start, want.End)
	}
	if s := sumDrops(got.ShardDrops); s != want.Dropped {
		t.Fatalf("%s: ShardDrops %v sums to %d, want %d", label, got.ShardDrops, s, want.Dropped)
	}
	ge, we := entries(got.Matrix), entries(want.Matrix)
	if len(ge) != len(we) {
		t.Fatalf("%s: NNZ %d, want %d", label, len(ge), len(we))
	}
	for i := range we {
		if ge[i] != we[i] {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, i, ge[i], we[i])
		}
	}
}

func sumDrops(drops []int) int {
	n := 0
	for _, d := range drops {
		n += d
	}
	return n
}
