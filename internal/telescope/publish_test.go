package telescope

import (
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/radiation"
	"repro/internal/stats"
	"repro/internal/tripled"
)

// TestPublishFetchSourceTableRoundTrip pushes a captured window's D4M
// source table through a tripled server and back: the fetched table
// must be identical to SourceTable's output, including exact float
// packet counts.
func TestPublishFetchSourceTableRoundTrip(t *testing.T) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 1500
	cfg.ZM = stats.PaperZM(1 << 9)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := New(cfg.Darkspace, "publish-key", WithLeafSize(1<<9))
	w, err := capture(tel, pop.TelescopeStream(3, time.Unix(0, 0)), 2048)
	if err != nil {
		t.Fatal(err)
	}
	want := tel.SourceTable(w)

	srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tripled.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const label = "20200617-120000"
	if err := tel.PublishSourceTable(c, label, w); err != nil {
		t.Fatal(err)
	}
	back, err := FetchSourceTable(c, label)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != want.NNZ() || back.NRows() != want.NRows() {
		t.Fatalf("fetched table %d rows / %d cells, want %d / %d",
			back.NRows(), back.NNZ(), want.NRows(), want.NNZ())
	}
	want.Iterate(func(r, col string, v assoc.Value) bool {
		if got, ok := back.Get(r, col); !ok || got != v {
			t.Errorf("cell (%s,%s) = %v, want %v", r, col, got, v)
		}
		return true
	})
}
