package repro

// bench_test.go is the benchmark harness: one benchmark per table and
// figure of the paper (T1, T2, F3-F8 in DESIGN.md's experiment index)
// plus the A1-A3 design ablations. Shape metrics are attached to the
// benchmark output via ReportMetric so a run records not just cost but
// whether the regenerated artifact has the paper's shape (fitted ZM
// alpha, modified-Cauchy alpha, residual ratios, ...).
//
// Run: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/hypersparse"
	"repro/internal/netquant"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/stats"
	"repro/internal/telescope"
)

// benchConfig is the shared study scale for the artifact benchmarks:
// large enough for paper-shaped statistics, small enough to build in a
// few seconds.
func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.NV = 1 << 16
	cfg.LeafSize = 1 << 12
	cfg.Radiation.NumSources = 40000
	cfg.Radiation.ZM = stats.PaperZM(1 << 14)
	cfg.Radiation.BrightLog2 = 8 // log2(sqrt(2^16))
	cfg.MinBandSources = 25
	return cfg
}

var (
	benchOnce sync.Once
	benchRes  *core.Result
	benchErr  error
)

func benchResult(b *testing.B) *core.Result {
	b.Helper()
	benchOnce.Do(func() {
		p, err := core.New(benchConfig())
		if err != nil {
			benchErr = err
			return
		}
		benchRes, benchErr = p.Run()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRes
}

// The artifact benchmarks below build a fresh serial report graph per
// iteration (res.ReportWith(1)): Result's own emitters memoize on the
// shared graph, and a memoized lookup is not the regeneration cost
// these benchmarks track. The frozen study stays shared, as before.

// BenchmarkTableI regenerates the dataset inventory (Table I).
func BenchmarkTableI(b *testing.B) {
	res := benchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(res.ReportWith(1).TableI())
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkTableII regenerates the network quantities (Table II) of all
// snapshot matrices.
func BenchmarkTableII(b *testing.B) {
	res := benchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	var nv float64
	for i := 0; i < b.N; i++ {
		qs := res.ReportWith(1).TableII()
		nv = qs[0].ValidPackets
	}
	b.ReportMetric(nv, "NV")
}

// BenchmarkFig3 regenerates the degree distributions and their
// Zipf-Mandelbrot fits; the fitted alpha (paper: 1.76) is reported.
func BenchmarkFig3(b *testing.B) {
	res := benchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	var alpha float64
	for i := 0; i < b.N; i++ {
		s := res.ReportWith(1).Fig3()
		alpha = s[0].Alpha
	}
	b.ReportMetric(alpha, "zm-alpha")
}

// BenchmarkFig4 regenerates the same-month correlation curves; the
// fraction of the brightest well-populated band is reported (paper: ~1).
func BenchmarkFig4(b *testing.B) {
	res := benchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	var bright float64
	for i := 0; i < b.N; i++ {
		series, err := res.ReportWith(1).Fig4()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range series[0].Points {
			if p.Sources >= 10 {
				bright = p.Fraction
			}
		}
	}
	b.ReportMetric(bright, "bright-frac")
}

// BenchmarkFig5 regenerates the three-model comparison; the ratio of the
// Gaussian residual to the modified-Cauchy residual is reported (>1
// means the paper's conclusion holds).
func BenchmarkFig5(b *testing.B) {
	res := benchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, fits, err := res.ReportWith(1).Fig5()
		if err != nil {
			b.Fatal(err)
		}
		ratio = fits["gaussian"].Residual / fits["modified-cauchy"].Residual
	}
	b.ReportMetric(ratio, "gauss/mc-residual")
}

// BenchmarkFig6 regenerates all temporal-correlation curves and fits.
func BenchmarkFig6(b *testing.B) {
	res := benchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	var curves int
	for i := 0; i < b.N; i++ {
		all, _ := res.ReportWith(1).Fig6()
		curves = len(all)
	}
	b.ReportMetric(float64(curves), "curves")
}

// BenchmarkFig7 regenerates the per-band alpha sweep; the mean fitted
// alpha is reported (paper: ~1).
func BenchmarkFig7(b *testing.B) {
	res := benchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		var alphas []float64
		for _, sweep := range res.ReportWith(1).Fig7And8() {
			for _, f := range sweep {
				alphas = append(alphas, f.Alpha)
			}
		}
		mean = stats.Summarize(alphas).Mean
	}
	b.ReportMetric(mean, "mean-alpha")
}

// BenchmarkFig8 regenerates the one-month-drop sweep; the maximum drop
// is reported (paper: ~0.5 at d ≈ 10^3).
func BenchmarkFig8(b *testing.B) {
	res := benchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	var maxDrop float64
	for i := 0; i < b.N; i++ {
		maxDrop = 0
		for _, sweep := range res.ReportWith(1).Fig7And8() {
			for _, f := range sweep {
				if f.Drop > maxDrop {
					maxDrop = f.Drop
				}
			}
		}
	}
	b.ReportMetric(maxDrop, "max-drop")
}

// BenchmarkCaptureWindow measures the end-to-end cost of one telescope
// window: stream generation, validity filter, CryptoPAN, hierarchical
// matrix assembly.
func BenchmarkCaptureWindow(b *testing.B) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 40000
	cfg.ZM = stats.PaperZM(1 << 14)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const nv = 1 << 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel := telescope.New(cfg.Darkspace, "bench-key")
		w, err := tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(4.5, time.Unix(0, 0)), nv, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if w.NV != nv {
			b.Fatalf("short window: %d", w.NV)
		}
	}
	b.ReportMetric(float64(nv)*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkEngineWindow compares window construction through the
// sharded streaming engine across worker counts; workers=1 is the
// one-shard case of the same build, so the subbenchmark ratios are the
// engine's speedup curve. The cost covered is the full hot path: stream generation,
// validity filter, CryptoPAN, leaf assembly, hierarchical merge.
func BenchmarkEngineWindow(b *testing.B) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 40000
	cfg.ZM = stats.PaperZM(1 << 14)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const nv = 1 << 16
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tel := telescope.New(cfg.Darkspace, "bench-key", telescope.WithLeafSize(1<<12))
				w, err := tel.CaptureWindowEngine(context.Background(),
					pop.TelescopeStream(4.5, time.Unix(0, 0)), nv, workers, 0)
				if err != nil {
					b.Fatal(err)
				}
				if w.NV != nv {
					b.Fatalf("short window: %d", w.NV)
				}
			}
			b.ReportMetric(float64(nv)*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkEngineWindowSteady is the steady-state counterpart of
// BenchmarkEngineWindow: one telescope serves every window, so the
// anonymization caches and pooled merge scratch are warm — the regime a
// long-running capture actually operates in. (BenchmarkEngineWindow
// keeps its historical fresh-telescope-per-window shape so its numbers
// stay comparable across the BENCH trajectory.)
func BenchmarkEngineWindowSteady(b *testing.B) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 40000
	cfg.ZM = stats.PaperZM(1 << 14)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const nv = 1 << 16
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tel := telescope.New(cfg.Darkspace, "bench-key", telescope.WithLeafSize(1<<12))
			if _, err := tel.CaptureWindowEngine(context.Background(),
				pop.TelescopeStream(4.5, time.Unix(0, 0)), nv, workers, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := tel.CaptureWindowEngine(context.Background(),
					pop.TelescopeStream(4.5, time.Unix(0, 0)), nv, workers, 0)
				if err != nil {
					b.Fatal(err)
				}
				if w.NV != nv {
					b.Fatalf("short window: %d", w.NV)
				}
			}
			b.ReportMetric(float64(nv)*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkLeafBuild measures the steady-state radix leaf build: one
// retained triple-buffer builder compiling 2^12-entry leaves.
func BenchmarkLeafBuild(b *testing.B) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 40000
	cfg.ZM = stats.PaperZM(1 << 14)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const leafSize = 1 << 12
	st := pop.TelescopeStream(4.5, time.Unix(0, 0))
	pairs := make([][2]uint32, leafSize)
	pkt := new(pcap.Packet)
	for i := range pairs {
		if !st.Next(pkt) {
			b.Fatal("stream exhausted")
		}
		pairs[i] = [2]uint32{uint32(pkt.Src), uint32(pkt.Dst)}
	}
	builder := hypersparse.NewBuilder(leafSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			builder.Add(p[0], p[1], 1)
		}
		builder.Build()
	}
	b.ReportMetric(float64(leafSize)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkNetquantFused measures the fused Table II reduction against a
// window-scale matrix; allocs/op must stay 0 once the pool is warm.
func BenchmarkNetquantFused(b *testing.B) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 40000
	cfg.ZM = stats.PaperZM(1 << 14)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := hypersparse.HierSum(buildLeaves(b, pop, 1<<12), 0)
	netquant.Compute(m) // warm the column-scan pool
	b.ReportAllocs()
	b.ResetTimer()
	var q netquant.Quantities
	for i := 0; i < b.N; i++ {
		q = netquant.Compute(m)
	}
	b.ReportMetric(q.ValidPackets, "NV")
}

// BenchmarkHierarchicalSum (ablation A1) compares the log-depth parallel
// merge against the flat single-builder baseline across leaf sizes.
func BenchmarkHierarchicalSum(b *testing.B) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 40000
	cfg.ZM = stats.PaperZM(1 << 14)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	leaves := buildLeaves(b, pop, 1<<12)
	b.Run("hierarchical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hypersparse.HierSum(leaves, 0)
		}
	})
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hypersparse.FlatSum(leaves)
		}
	})
}

func buildLeaves(b *testing.B, pop *radiation.Population, leafSize int) []*hypersparse.Matrix {
	b.Helper()
	st := pop.TelescopeStream(4.5, time.Unix(0, 0))
	var leaves []*hypersparse.Matrix
	builder := hypersparse.NewBuilder(leafSize)
	n := 0
	pkt := new(pcap.Packet)
	for st.Next(pkt) && len(leaves) < 16 {
		builder.Add(uint32(pkt.Src), uint32(pkt.Dst), 1)
		n++
		if n == leafSize {
			leaves = append(leaves, builder.Build())
			n = 0
		}
	}
	if len(leaves) == 0 {
		b.Fatal("no leaves built")
	}
	return leaves
}

// BenchmarkFitNorms (ablation A2) compares fit quality and cost of the
// paper's ||.||_1/2 norm against L1 and L2 on noisy modified-Cauchy
// data; the reported metric is the alpha recovery error.
func BenchmarkFitNorms(b *testing.B) {
	truth := stats.ModifiedCauchy{Alpha: 1.0, Beta: 4.0}
	dts := make([]float64, 15)
	vals := make([]float64, 15)
	rng := newDeterministicNoise()
	for i := range dts {
		dts[i] = float64(i - 4)
		noise := 0.05 * (rng() - 0.5)
		// One gross outlier, the regime where fractional norms help.
		if i == 12 {
			noise = 0.35
		}
		vals[i] = 0.8*truth.Eval(dts[i]) + noise
	}
	for _, p := range []struct {
		name string
		p    float64
	}{{"half", 0.5}, {"L1", 1}, {"L2", 2}} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			var errAlpha float64
			for i := 0; i < b.N; i++ {
				fit := stats.FitModifiedCauchyNorm(dts, vals, p.p)
				errAlpha = math.Abs(fit.Model.(stats.ModifiedCauchy).Alpha - truth.Alpha)
			}
			b.ReportMetric(errAlpha, "alpha-error")
		})
	}
}

// BenchmarkWindowing (ablation A3) compares constant-packet and
// constant-time window capture; the metric is the matrix NV actually
// collected (constant-packet pins it exactly).
func BenchmarkWindowing(b *testing.B) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 40000
	cfg.ZM = stats.PaperZM(1 << 14)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("constant-packet", func(b *testing.B) {
		b.ReportAllocs()
		var nv int
		for i := 0; i < b.N; i++ {
			tel := telescope.New(cfg.Darkspace, "bench-key")
			w, err := tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(4.5, time.Unix(0, 0)), 1<<15, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			nv = w.NV
		}
		b.ReportMetric(float64(nv), "NV")
	})
	b.Run("constant-time", func(b *testing.B) {
		b.ReportAllocs()
		var nv int
		for i := 0; i < b.N; i++ {
			tel := telescope.New(cfg.Darkspace, "bench-key")
			w, err := tel.CaptureTimeWindow(pop.TelescopeStream(4.5, time.Unix(0, 0)), 30*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			nv = w.NV
		}
		b.ReportMetric(float64(nv), "NV")
	})
}

// newDeterministicNoise returns a tiny deterministic noise source so the
// ablation's data is identical across runs without importing math/rand
// here.
func newDeterministicNoise() func() float64 {
	state := uint64(0x9E3779B97F4A7C15)
	return func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1000) / 1000
	}
}

// BenchmarkStudy measures the whole-study wall clock through the
// parallel scheduler: population synthesis, every honeyfarm month,
// every engine-captured snapshot window, assembled by index. One op is
// one complete study at quick scale.
func BenchmarkStudy(b *testing.B) {
	cfg := core.QuickConfig()
	cfg.StudyWorkers = 0 // GOMAXPROCS fan-out
	b.ReportAllocs()
	b.ResetTimer()
	var pkts float64
	for i := 0; i < b.N; i++ {
		p, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		pkts = float64(len(res.Windows) * cfg.NV)
	}
	b.ReportMetric(pkts*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkCorrelate measures the frozen sorted-key correlation kernels
// across the full study: one op computes the Figure 4 peak curve and
// one temporal series for every snapshot, allocation-free at steady
// state.
func BenchmarkCorrelate(b *testing.B) {
	res := benchResult(b)
	f := res.Frozen()
	snaps := f.Snapshots()
	peaks := make([][]correlate.BandFraction, snaps)
	series := make([]correlate.Series, snaps)
	mis := make([]int, snaps)
	bands := make([]int, snaps)
	for si := 0; si < snaps; si++ {
		mi, err := f.SameMonthIndex(si)
		if err != nil {
			b.Fatal(err)
		}
		mis[si] = mi
		bands[si] = f.Bands(si)[0]
		peaks[si] = f.PeakCorrelation(si, mi)
		if err := f.TemporalInto(&series[si], si, bands[si]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for si := 0; si < snaps; si++ {
			peaks[si] = f.PeakInto(peaks[si], si, mis[si])
			if err := f.TemporalInto(&series[si], si, bands[si]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
