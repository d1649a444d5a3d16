package telescope

import (
	"context"
	"fmt"

	"repro/internal/hypersparse"
	"repro/internal/pcap"
)

// captureClassic is the per-packet window build the telescope had
// before the sharded engine, kept as the oracle the engine-backed
// capture is diffed against: filter, anonymize, and accumulate one
// packet at a time on the caller's goroutine.
func captureClassic(tel *Telescope, src PacketSource, nv int) (*Window, error) {
	if nv <= 0 {
		return nil, fmt.Errorf("telescope: window size must be positive, got %d", nv)
	}
	acc := hypersparse.NewAccumulator(tel.leafSize, 0)
	w := &Window{}
	var pkt pcap.Packet
	for w.NV < nv && src.Next(&pkt) {
		if !tel.Valid(&pkt) {
			w.Dropped++
			continue
		}
		if w.NV == 0 {
			w.Start = pkt.Time
		}
		w.End = pkt.Time
		acc.Add(uint32(tel.anon.Anonymize(pkt.Src)), uint32(tel.anon.Anonymize(pkt.Dst)), 1)
		w.NV++
	}
	w.Leaves = (w.NV + tel.leafSize - 1) / tel.leafSize
	w.Matrix = acc.Finish()
	if rs, ok := src.(*ReaderSource); ok && rs.Err() != nil {
		return nil, rs.Err()
	}
	return w, nil
}

// capture is the production window build at default workers and batch,
// for tests that only need a window.
func capture(tel *Telescope, src PacketSource, nv int) (*Window, error) {
	return tel.CaptureWindowEngine(context.Background(), src, nv, 0, 0)
}
