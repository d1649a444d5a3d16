package telescope

import (
	"context"

	"repro/internal/archive"
)

// archive.go connects capture to the on-disk archive: instead of merging
// leaves in memory, CaptureToArchive streams each completed leaf matrix
// to an archive.Writer, the way the paper's deployment lands 2^17-packet
// anonymized leaf matrices in the LBNL archive for later hierarchical
// summation.

// CaptureToArchive reads up to nv valid packets from src, cutting an
// anonymized leaf matrix every leafSize packets and appending each to
// the archive writer. It returns the number of valid packets archived
// and the number dropped by the validity filter. The caller owns calling
// aw.Finish.
//
// Each leaf is one one-shard window of the engine capture: the engine
// never reads past a window's last accepted packet, so consecutive
// windows over src cut exactly the leaves a per-packet loop would, and
// the cached engine's pooled accumulator serves every leaf.
func (t *Telescope) CaptureToArchive(src PacketSource, nv int, aw *archive.Writer) (valid, dropped int, err error) {
	for valid < nv {
		want := min(t.leafSize, nv-valid)
		w, err := t.CaptureWindowEngine(context.Background(), src, want, 1, 0)
		if err != nil {
			return valid, dropped, err
		}
		dropped += w.Dropped
		if w.NV == 0 {
			break
		}
		if err := aw.AppendLeaf(w.Matrix, w.Start, w.End); err != nil {
			return valid, dropped, err
		}
		valid += w.NV
		if w.NV < want {
			break // the stream ran dry mid-leaf
		}
	}
	return valid, dropped, nil
}
