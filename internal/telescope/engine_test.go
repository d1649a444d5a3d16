package telescope

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/hypersparse"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/stats"
)

// TestEngineCaptureMatchesSerial verifies the engine-backed capture is
// indistinguishable from the classic per-packet build (captureClassic)
// at every boundary:
// exact anonymized matrix equality, window bounds, and the deanonymized
// D4M source table.
func TestEngineCaptureMatchesSerial(t *testing.T) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 3000
	cfg.ZM = stats.PaperZM(1 << 10)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nv = 4096
	type capture struct {
		win   *Window
		table map[string]float64
	}
	run := func(workers int) capture {
		tel := New(cfg.Darkspace, "engine-key", WithLeafSize(1<<9))
		var win *Window
		var err error
		src := pop.TelescopeStream(3, time.Unix(0, 0))
		if workers == 0 {
			win, err = captureClassic(tel, src, nv)
		} else {
			win, err = tel.CaptureWindowEngine(context.Background(), src, nv, workers, 256)
		}
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		table := tel.SourceTable(win)
		for _, row := range table.RowKeys() {
			v, _ := table.Get(row, "packets")
			out[row] = v.Num
		}
		return capture{win: win, table: out}
	}

	classic := run(0)
	for _, workers := range []int{1, 2, 8} {
		got := run(workers)
		if got.win.NV != classic.win.NV || got.win.Dropped != classic.win.Dropped {
			t.Fatalf("workers=%d: NV/Dropped %d/%d, want %d/%d",
				workers, got.win.NV, got.win.Dropped, classic.win.NV, classic.win.Dropped)
		}
		if !got.win.Start.Equal(classic.win.Start) || !got.win.End.Equal(classic.win.End) {
			t.Fatalf("workers=%d: window bounds differ", workers)
		}
		if !hypersparse.Equal(got.win.Matrix, classic.win.Matrix) {
			t.Fatalf("workers=%d: engine matrix differs from the classic build", workers)
		}
		if len(got.table) != len(classic.table) {
			t.Fatalf("workers=%d: table sizes differ: %d vs %d", workers, len(got.table), len(classic.table))
		}
		for k, v := range classic.table {
			if got.table[k] != v {
				t.Fatalf("workers=%d: row %s = %g, want %g", workers, k, got.table[k], v)
			}
		}
	}
}

// TestEngineSourceTableFresh verifies the reverse-anonymization memo is
// invalidated by an engine capture, so the D4M table covers every
// matrix row.
func TestEngineSourceTableFresh(t *testing.T) {
	pop := testPopulation(t, 1000)
	tel := New(pop.Config().Darkspace, "table-key")
	w, err := tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(4, time.Unix(0, 0)), 2048, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	table := tel.SourceTable(w)
	if table.NRows() != w.Matrix.NRows() {
		t.Fatalf("table rows %d != matrix rows %d (reverse cache stale?)",
			table.NRows(), w.Matrix.NRows())
	}
	var sum float64
	for _, row := range table.RowKeys() {
		v, _ := table.Get(row, "packets")
		sum += v.Num
	}
	if sum != float64(w.NV) {
		t.Errorf("table total %g != NV %d", sum, w.NV)
	}
}

func TestEngineRejectsBadNV(t *testing.T) {
	tel := New(radiation.DefaultConfig().Darkspace, "bad")
	if _, err := tel.CaptureWindowEngine(context.Background(), nil, 0, 4, 0); err == nil {
		t.Error("NV=0 accepted")
	}
}

func TestEngineShortStream(t *testing.T) {
	pop := testPopulation(t, 200)
	tel := New(pop.Config().Darkspace, "short-eng")
	w, err := tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(4, time.Unix(0, 0)), 1<<30, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.NV == 0 {
		t.Fatal("captured nothing")
	}
	if w.Matrix.Sum() != float64(w.NV) {
		t.Error("NV not conserved on short stream")
	}
}

// TestEngineCaptureCancel verifies a telescope capture can be abandoned
// mid-window.
func TestEngineCaptureCancel(t *testing.T) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 3000
	cfg.ZM = stats.PaperZM(1 << 10)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := New(cfg.Darkspace, "cancel-key", WithLeafSize(1<<8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tel.CaptureWindowEngine(ctx, pop.TelescopeStream(3, time.Unix(0, 0)), 1<<20, 4, 0); err == nil {
		t.Error("cancelled capture succeeded")
	}
}

// TestEngineReaderSourceMatchesSerial is the wire-format slab path end
// to end: radiation -> pcap file -> batched reader (ReaderSource
// satisfies the engine's BatchSource, so the engine pulls whole decoded
// slabs) -> sharded engine with in-worker filtering and batched
// CryptoPAN -> window. It must match the classic per-packet capture
// (captureClassic) over a fresh reader of the same bytes exactly.
func TestEngineReaderSourceMatchesSerial(t *testing.T) {
	pop := testPopulation(t, 800)
	st := pop.TelescopeStream(4, time.Unix(1_592_395_200, 0))
	var buf bytes.Buffer
	pw, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var pkt pcap.Packet
	for emitted := 0; st.Next(&pkt) && emitted < 5000; emitted++ {
		if err := pw.WritePacket(&pkt); err != nil {
			t.Fatal(err)
		}
	}
	pw.Flush()
	read := func() *ReaderSource {
		pr, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return &ReaderSource{R: pr}
	}

	const nv = 2000
	classicTel := New(pop.Config().Darkspace, "pcap-engine")
	classic, err := captureClassic(classicTel, read(), nv)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		tel := New(pop.Config().Darkspace, "pcap-engine")
		w, err := tel.CaptureWindowEngine(context.Background(), read(), nv, workers, 128)
		if err != nil {
			t.Fatal(err)
		}
		if w.NV != classic.NV || w.Dropped != classic.Dropped ||
			!w.Start.Equal(classic.Start) || !w.End.Equal(classic.End) {
			t.Fatalf("workers=%d: window %d/%d [%v, %v], want %d/%d [%v, %v]",
				workers, w.NV, w.Dropped, w.Start, w.End,
				classic.NV, classic.Dropped, classic.Start, classic.End)
		}
		if !hypersparse.Equal(w.Matrix, classic.Matrix) {
			t.Fatalf("workers=%d: matrix differs from the classic pcap capture", workers)
		}
	}
}

// TestEngineReaderSourceTruncated verifies a mid-stream pcap decode
// error surfaces from the batched engine path (through the deferred
// NextBatch error and the Errorer hook), not silently as a short
// window.
func TestEngineReaderSourceTruncated(t *testing.T) {
	pop := testPopulation(t, 500)
	st := pop.TelescopeStream(4, time.Unix(1_592_395_200, 0))
	var buf bytes.Buffer
	pw, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var pkt pcap.Packet
	for emitted := 0; st.Next(&pkt) && emitted < 2000; emitted++ {
		if err := pw.WritePacket(&pkt); err != nil {
			t.Fatal(err)
		}
	}
	pw.Flush()
	data := buf.Bytes()[:buf.Len()-5] // cut the last record's body
	pr, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	tel := New(pop.Config().Darkspace, "truncated-engine")
	if _, err := tel.CaptureWindowEngine(context.Background(), &ReaderSource{R: pr}, 1<<20, 4, 0); err == nil {
		t.Fatal("truncated pcap capture succeeded")
	}
}

// BenchmarkCaptureEngine measures one cold 64k-packet window through
// the production capture: a fresh telescope per window, default
// workers and batch.
func BenchmarkCaptureEngine(b *testing.B) {
	c := radiation.DefaultConfig()
	c.NumSources = 50000
	pop, err := radiation.NewPopulation(c)
	if err != nil {
		b.Fatal(err)
	}
	const nv = 1 << 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel := New(c.Darkspace, "bench-key", WithLeafSize(1<<12))
		w, err := capture(tel, pop.TelescopeStream(4.5, time.Unix(0, 0)), nv)
		if err != nil {
			b.Fatal(err)
		}
		if w.NV != nv {
			b.Fatalf("short window %d", w.NV)
		}
	}
}
