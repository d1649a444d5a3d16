// Command correlate runs the full observatory/outpost correlation study
// and prints a human-readable report: the dataset inventory (Table I),
// per-snapshot Zipf-Mandelbrot fits (Figure 3), the same-month
// brightness law (Figure 4), the model comparison on the temporal decay
// (Figure 5), and the per-band modified-Cauchy parameters (Figures 7-8).
//
// The artifact tables are the unified report renderer's TSV, aligned
// through a tabwriter — the same bytes cmd/figures writes to disk —
// while the Figure 3 and Figure 5 sections stay hand-written summaries
// (fit parameters, not the full curves).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	var (
		scale         = flag.String("scale", "default", "preset: quick or default")
		nv            = flag.Int("nv", 0, "override telescope window size NV")
		sources       = flag.Int("sources", 0, "override population size")
		seed          = flag.Int64("seed", 0, "override random seed")
		studyWorkers  = flag.Int("study-workers", 0, "study-level fan-out: months/snapshots in flight (1 = in line on one goroutine, 0 = GOMAXPROCS)")
		reportWorkers = flag.Int("report-workers", 0, "report-graph fit fan-out (1 = serial oracle, 0 = GOMAXPROCS)")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	if *scale == "quick" {
		cfg = core.QuickConfig()
	}
	if *nv > 0 {
		cfg.NV = *nv
	}
	if *sources > 0 {
		cfg.Radiation.NumSources = *sources
	}
	if *seed != 0 {
		cfg.Radiation.Seed = *seed
	}
	cfg.StudyWorkers = *studyWorkers
	cfg.ReportWorkers = *reportWorkers

	pipe, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := pipe.Run()
	if err != nil {
		log.Fatal(err)
	}
	g := res.Report()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer tw.Flush()

	section := func(title string, id report.ArtifactID) {
		fmt.Fprintf(tw, "%s\n", title)
		if err := report.WriteTSV(tw, g, id); err != nil {
			log.Fatal(err)
		}
	}

	section("== Dataset inventory (Table I) ==", report.Table1)

	fmt.Fprintf(tw, "\n== Source-packet degree distribution (Figure 3) ==\n")
	fmt.Fprintf(tw, "snapshot\tZM alpha\tZM delta\tresidual\t(paper: alpha 1.76, delta 3.93)\n")
	for _, s := range res.Fig3() {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.4f\t\n", s.Label, s.Alpha, s.Delta, s.Residual)
	}

	fmt.Fprintln(tw)
	section("== Same-month correlation vs brightness (Figure 4) ==", report.Fig4)

	fmt.Fprintf(tw, "\n== Temporal decay model comparison (Figure 5) ==\n")
	series, fits, err := res.Fig5()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(tw, "snapshot %s, band 2^%d (%d sources)\n", series.Snapshot, series.Band, series.Sources)
	fmt.Fprintf(tw, "model\tparameters\tresidual (||.||_1/2)\n")
	for _, name := range []string{"modified-cauchy", "cauchy", "gaussian"} {
		fit := fits[name]
		switch m := fit.Model.(type) {
		case stats.ModifiedCauchy:
			fmt.Fprintf(tw, "%s\talpha=%.2f beta=%.2f\t%.4f\n", name, m.Alpha, m.Beta, fit.Residual)
		case stats.Cauchy:
			fmt.Fprintf(tw, "%s\tgamma=%.2f\t%.4f\n", name, m.Gamma, fit.Residual)
		case stats.Gaussian:
			fmt.Fprintf(tw, "%s\tsigma=%.2f\t%.4f\n", name, m.Sigma, fit.Residual)
		}
	}

	fmt.Fprintln(tw)
	section("== Modified-Cauchy parameters by brightness (Figures 7 and 8) ==", report.Fig7Fig8)
}
