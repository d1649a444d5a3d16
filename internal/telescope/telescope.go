// Package telescope implements a CAIDA-style darkspace observatory: it
// consumes a raw packet stream, discards traffic that is not valid
// unsolicited darkspace traffic, cuts constant-packet windows of NV
// valid packets, and assembles each window into a CryptoPAN-anonymized
// GraphBLAS hypersparse traffic matrix by hierarchically summing leaf
// matrices (the paper's 2^17-packet leaves under a 2^30-packet window).
//
// Because the monitored prefix is a darkspace, only the external →
// internal quadrant of the traffic matrix is ever populated (Figure 1 of
// the paper): rows are external sources, columns are darkspace
// destinations.
package telescope

import (
	"io"
	"sync"
	"time"

	"repro/internal/assoc"
	"repro/internal/cryptopan"
	"repro/internal/engine"
	"repro/internal/hypersparse"
	"repro/internal/ipaddr"
	"repro/internal/pcap"
	"repro/internal/tripled"
)

// PacketSource yields packets in time order; Next returns false when the
// stream is exhausted. It is the engine's source contract.
type PacketSource = engine.PacketSource

// ReaderSource adapts a pcap.Reader to the PacketSource interface.
type ReaderSource struct {
	R   *pcap.Reader
	err error
}

// Next implements PacketSource.
func (rs *ReaderSource) Next(p *pcap.Packet) bool {
	err := rs.R.ReadPacket(p)
	if err == nil {
		return true
	}
	if err != io.EOF {
		rs.err = err
	}
	return false
}

// NextBatch implements the engine's BatchSource hook: it decodes a slab
// of packets per call through pcap.Reader.NextBatch, amortizing header
// parsing and letting the engine hand whole slabs to its shard workers.
// A mid-stream decode error ends the stream (possibly after a short
// final slab) and is reported through Err, exactly like Next.
func (rs *ReaderSource) NextBatch(dst []pcap.Packet) int {
	if rs.err != nil {
		return 0
	}
	n, err := rs.R.NextBatch(dst)
	if err != nil && err != io.EOF {
		rs.err = err
	}
	return n
}

// Err reports the first non-EOF read error, if any. It satisfies the
// engine's Errorer hook, so truncated captures surface from any capture
// path.
func (rs *ReaderSource) Err() error { return rs.err }

// Telescope holds the observatory configuration. Construct with New.
//
// A Telescope runs one capture at a time: CaptureWindowEngine,
// CaptureTimeWindow, and CaptureToArchive must not be invoked
// concurrently with each other (a capture internally shards
// across goroutines just fine). This was always the contract — the
// deanonymization memo is invalidated unsynchronized at capture
// boundaries — and the per-shard L1 anonymization memos and cached
// engines reused across captures now rely on it too. Concurrent windows
// belong on separate Telescopes sharing nothing, as in the paper's
// deployment, where each observatory site anonymizes under its own key.
type Telescope struct {
	darkspace ipaddr.Prefix
	leafSize  int
	anon      *cryptopan.Cached

	poolMu  sync.Mutex
	shards  map[int]*shardAnon        // per-shard L1 memos + slab scratch, reused across captures
	engines map[[2]int]*engine.Engine // cached per (workers, batch): pooled accumulators and batch buffers persist across windows

	revCache map[ipaddr.Addr]ipaddr.Addr // memoized inverse mapping
	revSize  int                         // anon.Len() when revCache was built
}

// Option configures a Telescope.
type Option func(*Telescope)

// WithLeafSize sets the leaf window size for hierarchical matrix
// assembly (the paper uses 2^17; the default here is 2^14 for
// laptop-scale windows).
func WithLeafSize(n int) Option { return func(t *Telescope) { t.leafSize = n } }

// WithAnonymizer shares an existing CryptoPAN cache instead of building
// a private one from the passphrase. The study scheduler uses this to
// give every per-worker Telescope the study's one shared cache: the
// anonymization is a pure function of the passphrase, so sharing
// changes no output, but it stops N workers from re-deriving the same
// prefix-preserving mappings into N disjoint memos (and keeps
// Reverse() a single complete deanonymization table for the study).
// The cache is concurrency-safe; the passphrase argument to New is
// ignored when this option is given and must correspond to the same
// key if deanonymized outputs are to line up.
func WithAnonymizer(c *cryptopan.Cached) Option { return func(t *Telescope) { t.anon = c } }

// New creates a Telescope monitoring the given darkspace, anonymizing
// with the given passphrase-derived CryptoPAN key.
func New(darkspace ipaddr.Prefix, anonPassphrase string, opts ...Option) *Telescope {
	t := &Telescope{
		darkspace: darkspace,
		leafSize:  1 << 14,
		shards:    make(map[int]*shardAnon),
		engines:   make(map[[2]int]*engine.Engine),
	}
	for _, o := range opts {
		o(t)
	}
	if t.anon == nil {
		t.anon = cryptopan.NewCached(cryptopan.NewFromPassphrase(anonPassphrase))
	}
	return t
}

// Anonymizer exposes the telescope's shared CryptoPAN cache, for
// handing to further Telescopes via WithAnonymizer.
func (t *Telescope) Anonymizer() *cryptopan.Cached { return t.anon }

// Darkspace returns the monitored prefix.
func (t *Telescope) Darkspace() ipaddr.Prefix { return t.darkspace }

// Valid implements the paper's validity filter: the packet must be
// destined to the darkspace (external → internal quadrant) and must not
// carry an un-routable source (bogons and darkspace-internal sources are
// the "small amount of legitimate traffic" analog that gets discarded).
func (t *Telescope) Valid(p *pcap.Packet) bool {
	return t.darkspace.Contains(p.Dst) &&
		!t.darkspace.Contains(p.Src) &&
		!ipaddr.IsPrivate(p.Src)
}

// Window is one constant-packet sample: an anonymized traffic matrix of
// exactly NV valid packets (fewer only if the stream ran out).
type Window struct {
	Start, End time.Time
	NV         int // valid packets in the matrix
	Dropped    int // packets discarded by the validity filter
	Matrix     *hypersparse.Matrix
	Leaves     int // leaf matrices hierarchically summed
}

// Duration returns the wall-clock span of the window; constant-packet
// windows have variable duration (Table I's "CAIDA Duration" column).
func (w *Window) Duration() time.Duration { return w.End.Sub(w.Start) }

// CaptureTimeWindow is the constant-time alternative (ablation A3): it
// accepts valid packets until the stream's clock passes start+span.
// Constant-time windows have variable NV, which the paper argues makes
// heavy-tail statistics harder to compare across windows.
func (t *Telescope) CaptureTimeWindow(src PacketSource, span time.Duration) (*Window, error) {
	acc := hypersparse.NewAccumulator(t.leafSize, 0)
	w := &Window{}
	var pkt pcap.Packet
	for src.Next(&pkt) {
		if !t.Valid(&pkt) {
			w.Dropped++
			continue
		}
		if w.NV == 0 {
			w.Start = pkt.Time
		}
		if w.NV > 0 && pkt.Time.Sub(w.Start) > span {
			break
		}
		w.End = pkt.Time
		arow := t.anon.Anonymize(pkt.Src)
		acol := t.anon.Anonymize(pkt.Dst)
		acc.Add(uint32(arow), uint32(acol), 1)
		w.NV++
	}
	w.Leaves = acc.Leaves()
	w.Matrix = acc.Finish()
	if rs, ok := src.(*ReaderSource); ok && rs.Err() != nil {
		return nil, rs.Err()
	}
	return w, nil
}

// SourcePackets returns the anonymized per-source packet counts A·1 of
// the window.
func (w *Window) SourcePackets() *hypersparse.Vector { return w.Matrix.RowSums() }

// Deanonymize maps an anonymized address back to the original, using the
// telescope's own anonymization table. This is the paper's correlation
// approach 1: "anonymized data can be sent back to the sources for
// deanonymization" — the telescope operator holds the mapping.
func (t *Telescope) Deanonymize(a ipaddr.Addr) (ipaddr.Addr, bool) {
	orig, ok := t.reverse()[a]
	return orig, ok
}

// reverse materializes the anonymization table's inverse, memoized until
// further capture grows the table. Not safe for use concurrently with
// a capture.
func (t *Telescope) reverse() map[ipaddr.Addr]ipaddr.Addr {
	if n := t.anon.Len(); t.revCache == nil || t.revSize != n {
		t.revCache = t.anon.Reverse()
		t.revSize = n
	}
	return t.revCache
}

// SourceTable converts a window's reduced source-packet vector into a
// D4M associative array keyed by the original dotted-quad source
// address, with the packet count under column "packets". This is the
// boundary where, as in the paper, "the reduced results are converted to
// D4M associative arrays" for correlation against the honeyfarm.
func (t *Telescope) SourceTable(w *Window) *assoc.Assoc {
	rev := t.reverse()
	out := assoc.New()
	w.SourcePackets().Iterate(func(id uint32, packets float64) bool {
		orig, ok := rev[ipaddr.Addr(id)]
		if !ok {
			// Cannot happen for matrices built by this telescope.
			return true
		}
		out.Set(orig.String(), "packets", assoc.Num(packets))
		return true
	})
	return out
}

// SnapshotRowPrefix is the tripled row-key prefix a snapshot's source
// table is published under.
func SnapshotRowPrefix(label string) string { return "tel/" + label + "/" }

// PublishBatch is the batch size source tables are published with.
const PublishBatch = 1024

// PublishSourceTable reduces a window to its D4M source table and
// writes it to a tripled server under SnapshotRowPrefix — the paper's
// "reduced results are converted to D4M associative arrays" boundary,
// with the database substrate standing in for Accumulo.
func (t *Telescope) PublishSourceTable(c tripled.Conn, label string, w *Window) error {
	return c.PublishAssoc(SnapshotRowPrefix(label), t.SourceTable(w), PublishBatch)
}

// FetchSourceTable reads a published snapshot source table back from a
// tripled server.
func FetchSourceTable(c tripled.Conn, label string) (*assoc.Assoc, error) {
	return c.FetchAssoc(SnapshotRowPrefix(label), 512)
}
