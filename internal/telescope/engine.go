package telescope

// engine.go plugs the telescope into the sharded streaming window
// engine: the validity filter and the CryptoPAN mapping both run on the
// engine's shard workers — each worker filters its chunk of the slab,
// then anonymizes the survivors' addresses as one batch through its own
// L1 memo (misses fall through to the shared sharded cache in a single
// lock epoch per cache shard, with prefix-shared AES walks) — and the
// engine's merge tree produces the window matrix. This is the
// telescope's one constant-packet window build; every worker count
// produces the same window as the per-packet classic build the tests
// keep as their oracle.

import (
	"context"

	"repro/internal/cryptopan"
	"repro/internal/engine"
	"repro/internal/ipaddr"
	"repro/internal/pcap"
)

// shardAnon is one shard worker's persistent anonymization state: the
// L1 memo in front of the telescope's shared cache, plus the address
// slab the mapper gathers packet endpoints into. Both are reused across
// captures (Telescope runs one capture at a time), so steady-state
// mapping allocates nothing.
type shardAnon struct {
	l1    *cryptopan.L1
	addrs []ipaddr.Addr
}

// Engine returns a window engine wired to this telescope's validity
// filter, anonymizer, and leaf size. workers and batch follow
// engine.Config semantics (<= 0 picks defaults). Each shard worker maps
// whole accepted-packet slabs at a time: it gathers the slab's source
// and destination addresses and anonymizes them in one batched call
// through its own L1 memo, so hot (heavy-tailed) addresses cost one
// lock-free array probe and cold slabs pay one lock epoch per touched
// cache shard instead of two lock round-trips per packet.
//
// Engines are cached per (workers, batch) and reused across captures,
// so the engine's pooled shard accumulators and slab buffers — and the
// per-shard L1 memos — stay warm from one window to the next. This is
// covered by the Telescope's one-capture-at-a-time contract.
func (t *Telescope) Engine(workers, batch int) (*engine.Engine, error) {
	t.poolMu.Lock()
	if eng, ok := t.engines[[2]int{workers, batch}]; ok {
		t.poolMu.Unlock()
		return eng, nil
	}
	t.poolMu.Unlock()
	eng, err := engine.NewPerWorkerSlab(
		engine.Config{Workers: workers, LeafSize: t.leafSize, Batch: batch},
		t.Valid,
		func(shard int) engine.SlabMapper {
			sa := t.shardAnon(shard)
			return func(pkts []pcap.Packet, dst []engine.Pair) {
				addrs := sa.addrs[:0]
				for i := range pkts {
					addrs = append(addrs, pkts[i].Src, pkts[i].Dst)
				}
				sa.l1.AnonymizeBatch(addrs)
				for i := range pkts {
					dst[i] = engine.Pair{
						Row: uint32(addrs[2*i]),
						Col: uint32(addrs[2*i+1]),
					}
				}
				sa.addrs = addrs
			}
		})
	if err != nil {
		return nil, err
	}
	t.poolMu.Lock()
	t.engines[[2]int{workers, batch}] = eng
	t.poolMu.Unlock()
	return eng, nil
}

// shardAnon returns the given shard's anonymization state, creating it
// on first use. L1 entries memoize the telescope's fixed anonymizer, so
// reusing them across captures is safe and keeps hot addresses warm from
// one window to the next; the one-capture-at-a-time contract on
// Telescope guarantees a shard's state is only ever driven by one
// goroutine at a time.
func (t *Telescope) shardAnon(shard int) *shardAnon {
	t.poolMu.Lock()
	defer t.poolMu.Unlock()
	sa := t.shards[shard]
	if sa == nil {
		sa = &shardAnon{l1: t.anon.NewL1()}
		t.shards[shard] = sa
	}
	return sa
}

// CaptureWindowEngine reads from src until nv valid packets are
// collected (or the stream ends) and assembles the anonymized window
// matrix through the sharded streaming engine, with bounded memory and
// context cancellation. NV is conserved through anonymization and
// hierarchical assembly: the matrix sums to the number of packets
// accepted, at every worker count.
func (t *Telescope) CaptureWindowEngine(ctx context.Context, src PacketSource, nv, workers, batch int) (*Window, error) {
	eng, err := t.Engine(workers, batch)
	if err != nil {
		return nil, err
	}
	ew, err := eng.CaptureWindow(ctx, src, nv)
	// Capture grows the anonymization table either way; drop the memo.
	t.revCache = nil
	if err != nil {
		return nil, err
	}
	// Source errors (e.g. a truncated pcap) surface through the engine's
	// Errorer hook, which ReaderSource satisfies.
	return &Window{
		Start: ew.Start, End: ew.End,
		NV: ew.NV, Dropped: ew.Dropped, Leaves: ew.Leaves,
		Matrix: ew.Matrix,
	}, nil
}
