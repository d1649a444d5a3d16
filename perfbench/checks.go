package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/netquant"
	"repro/internal/report"
)

// Tally counts attempted and failed operations. Every study, ingest,
// artifact read and correctness check is one attempt; a failed check
// counts exactly like a failed operation, so a wrong answer shows in
// failed_frac instead of aborting the run.
type Tally struct {
	Attempted int
	Failed    int
	shown     int
}

// maxShown bounds how many failures are described on stderr.
const maxShown = 20

// Check records one attempt; a non-nil err is a failure.
func (t *Tally) Check(what string, err error) bool {
	t.Attempted++
	if err == nil {
		return true
	}
	t.Failed++
	if t.shown < maxShown {
		t.shown++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", what, err)
	}
	return false
}

// Frac is failed over attempted (0 when nothing was attempted).
func (t *Tally) Frac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// Artifacts holds the seven rendered TSVs of one study, by artifact.
type Artifacts map[report.ArtifactID][]byte

// renderAll renders every artifact of g as TSV. It also returns how
// long each render took (µs), in report.All() order.
func renderAll(g *report.Graph) (Artifacts, []float64, error) {
	out := make(Artifacts, len(report.All()))
	took := make([]float64, 0, len(report.All()))
	for _, id := range report.All() {
		var b bytes.Buffer
		t := time.Now()
		if err := report.WriteTSV(&b, g, id); err != nil {
			return nil, nil, fmt.Errorf("render %s: %w", id, err)
		}
		took = append(took, us(time.Since(t)))
		out[id] = b.Bytes()
	}
	return out, took, nil
}

// Digest is the SHA-256 over the artifacts in report.All() order,
// printed per population so runs of one seed can be compared.
func (a Artifacts) Digest() string {
	h := sha256.New()
	for _, id := range report.All() {
		fmt.Fprintf(h, "%s %d\n", id, len(a[id]))
		h.Write(a[id])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkSame requires got to be byte-identical to the reference,
// naming the first artifact that differs.
func checkSame(ref, got Artifacts) error {
	for _, id := range report.All() {
		if !bytes.Equal(ref[id], got[id]) {
			return fmt.Errorf("%s differs from the reference (%d vs %d bytes)", id, len(got[id]), len(ref[id]))
		}
	}
	return nil
}

// checkWindows requires Table II to hold exactly nv valid packets in
// every window, and one row per expected snapshot.
func checkWindows(rows []netquant.Quantities, snapshots, nv int) error {
	if len(rows) != snapshots {
		return fmt.Errorf("table2 has %d windows, want %d", len(rows), snapshots)
	}
	for i, q := range rows {
		if q.ValidPackets != float64(nv) {
			return fmt.Errorf("table2 window %d holds %v valid packets, want NV=%d", i, q.ValidPackets, nv)
		}
	}
	return nil
}

// checkHealth requires a store-backed study to have kept every replica.
func checkHealth(h core.StoreHealth) error {
	if h.Degraded {
		return fmt.Errorf("store degraded: down %v, %d failovers", h.DownNodes, h.Failovers)
	}
	return nil
}

// checkResponse requires a 2xx status, draining and closing the body.
// It returns the body so callers can compare it.
func checkResponse(resp *http.Response, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if rerr != nil {
		return nil, fmt.Errorf("read body: %w", rerr)
	}
	return body, nil
}
