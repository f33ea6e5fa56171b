// Command rgmlbench regenerates the tables and figures of the paper's
// evaluation (section VII). Each experiment writes an aligned text table
// to stdout and, with -out, to <out>/<id>.txt.
//
// Usage:
//
//	rgmlbench [flags] <experiment>...
//	rgmlbench all
//	rgmlbench -chaos "kill(point=commit,iter=10,place=1)" -seeds 1,2,3 chaos
//
// Experiments: table2, fig2, fig3, fig4, table3, fig5, fig6, fig7, table4,
// ablations ("all" runs these ten) and chaos — a fault-injection campaign
// that sweeps the -seeds list over the -chaos schedule for each benchmark
// application and emits a per-campaign survival/recovery JSON report.
// Performance is measured by the benchmark/ module, not here.
//
// The -placement/-redundancy/-shards flags set the snapshot store's
// redundancy policy for every resilient run. -transport tcp runs every
// place as a separate OS process (heavy: each runtime spawns a process
// group).
//
// The workload sizes default to laptop scale (see -scale and the
// per-workload flags); EXPERIMENTS.md records how they map to the paper's
// cluster-scale parameters.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"github.com/rgml/rgml/internal/bench"
	"github.com/rgml/rgml/internal/cliflags"
	"github.com/rgml/rgml/internal/par"
)

func main() {
	// Self-spawned tcp workers re-exec this binary with the worker
	// environment set; they serve their place and exit here.
	cliflags.MaybeWorker()
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rgmlbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rgmlbench", flag.ContinueOnError)
	var rf cliflags.Runtime
	rf.Register(fs)
	var (
		outDir     = fs.String("out", "", "directory for result files (empty: stdout only)")
		placesCSV  = fs.String("places", "", "comma-separated place counts (default 2,4,8,...,44)")
		iters      = fs.Int("iters", 0, "iterations per run (default 30)")
		runs       = fs.Int("runs", 0, "runs to average (default 3)")
		ckpt       = fs.Int("ckpt", 0, "checkpoint interval (default 10)")
		failIter   = fs.Int("fail-iter", 0, "failure iteration for fig5-7 (default 15)")
		scale      = fs.Float64("scale", 1, "multiplier on the per-place workload sizes")
		ledgerWork = fs.Int("ledger-work", bench.DefaultConfig().LedgerWork, "resilient-finish ledger work units per event")
		metricsDir = fs.String("metrics", "", "directory for per-restore-run JSON metrics exports (empty: none)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile covering all experiments to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile after all experiments to this file")
		quiet      = fs.Bool("q", false, "suppress progress output")

		chaosSched  = fs.String("chaos", "", "chaos schedule for the chaos experiment (default: one random kill at the failure iteration)")
		seedsCSV    = fs.String("seeds", "1,2,3", "comma-separated chaos engine seeds to sweep")
		chaosPlaces = fs.Int("chaos-places", 4, "active places per chaos run")
		chaosMode   = fs.String("chaos-mode", "shrink", "restore mode for chaos runs: shrink, shrink-rebalance, replace-redundant, replace-elastic")
		chaosSpares = fs.Int("chaos-spares", 0, "spare places reserved per chaos run as the spare pool of either replace mode (ignored by shrink modes)")
		chaosStrict = fs.Bool("chaos-strict", false, "exit non-zero when any chaos run fails to survive or verify")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("no experiments given (try: rgmlbench all)")
	}
	if rf.Workers > 0 {
		par.SetWorkers(rf.Workers)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rgmlbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rgmlbench: -memprofile:", err)
			}
		}()
	}

	cfg := bench.DefaultConfig()
	cfg.LedgerWork = *ledgerWork
	cfg.MetricsDir = *metricsDir
	mode, err := rf.FinishMode()
	if err != nil {
		return err
	}
	cfg.FinishMode = mode
	pol, err := rf.StorePolicy()
	if err != nil {
		return err
	}
	cfg.Store = pol
	spec, err := rf.Compression()
	if err != nil {
		return err
	}
	cfg.Compress = spec
	factory, err := rf.TransportFactory(nil)
	if err != nil {
		return err
	}
	cfg.Transport = factory
	cfg.TransportName = rf.Transport
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	s := &cfg.Scale
	if *placesCSV != "" {
		counts, err := cliflags.ParseInts(*placesCSV)
		if err != nil {
			return fmt.Errorf("-places: %w", err)
		}
		s.PlaceCounts = counts
	}
	if *iters > 0 {
		s.Iterations = *iters
	}
	if *runs > 0 {
		s.Runs = *runs
	}
	if *ckpt > 0 {
		s.CheckpointInterval = *ckpt
	}
	if *failIter > 0 {
		s.FailureIteration = *failIter
	}
	if *scale != 1 {
		s.LinRegExamplesPerPlace = int(float64(s.LinRegExamplesPerPlace) * *scale)
		s.LogRegExamplesPerPlace = int(float64(s.LogRegExamplesPerPlace) * *scale)
		s.PageRankNodesPerPlace = int(float64(s.PageRankNodesPerPlace) * *scale)
	}

	experiments := fs.Args()
	if len(experiments) == 1 && experiments[0] == "all" {
		experiments = []string{"table2", "fig2", "fig3", "fig4", "table3", "fig5", "fig6", "fig7", "table4", "ablations"}
	}
	for _, exp := range experiments {
		if exp == "chaos" {
			co := chaosOptions{
				schedule: *chaosSched,
				seedsCSV: *seedsCSV,
				places:   *chaosPlaces,
				mode:     *chaosMode,
				spares:   *chaosSpares,
				strict:   *chaosStrict,
			}
			if err := runChaosCampaigns(cfg, co, *outDir); err != nil {
				return fmt.Errorf("chaos: %w", err)
			}
			continue
		}
		if err := runExperiment(cfg, exp, *outDir); err != nil {
			return fmt.Errorf("%s: %w", exp, err)
		}
	}
	return nil
}

// chaosOptions carries the chaos experiment's flag values.
type chaosOptions struct {
	schedule string
	seedsCSV string
	places   int
	mode     string
	spares   int
	strict   bool
}

// runChaosCampaigns sweeps the seed list over the schedule for every
// benchmark application, writing one JSON report per campaign to stdout
// and, with -out, to <out>/chaos_<app>.json.
func runChaosCampaigns(cfg bench.Config, co chaosOptions, outDir string) error {
	mode, err := cliflags.ParseRestoreMode(co.mode)
	if err != nil {
		return err
	}
	seeds, err := cliflags.ParseSeeds(co.seedsCSV)
	if err != nil {
		return fmt.Errorf("-seeds: %w", err)
	}
	schedule := co.schedule
	if schedule == "" {
		// Default: one random-victim kill at the evaluation's canonical
		// failure iteration — any single failure is survivable under
		// double in-memory storage.
		schedule = fmt.Sprintf("kill(iter=%d)", cfg.Scale.FailureIteration)
	}
	failed := false
	for _, app := range bench.Apps {
		rep, err := cfg.ChaosCampaign(bench.ChaosSpec{
			App:      app,
			Places:   co.places,
			Schedule: schedule,
			Seeds:    seeds,
			Mode:     mode,
			Spares:   co.spares,
		})
		if err != nil {
			return err
		}
		if rep.Failed() {
			failed = true
		}
		writers := []io.Writer{os.Stdout}
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(outDir, fmt.Sprintf("chaos_%s.json", app)))
			if err != nil {
				return err
			}
			writers = append(writers, f)
			defer f.Close()
		}
		if err := bench.WriteChaosReport(io.MultiWriter(writers...), rep); err != nil {
			return err
		}
	}
	if failed && co.strict {
		return fmt.Errorf("at least one run did not survive or verify")
	}
	return nil
}

// output tees an experiment's rendering to stdout and the result file.
func output(outDir, id string, render func(w io.Writer) error) error {
	writers := []io.Writer{os.Stdout}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(outDir, id+".txt"))
		if err != nil {
			return err
		}
		defer f.Close()
		writers = append(writers, f)
	}
	if err := render(io.MultiWriter(writers...)); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func runExperiment(cfg bench.Config, exp, outDir string) error {
	figApp := map[string]bench.AppName{
		"fig2": bench.LinReg, "fig3": bench.LogReg, "fig4": bench.PageRank,
		"fig5": bench.LinReg, "fig6": bench.LogReg, "fig7": bench.PageRank,
	}
	switch exp {
	case "table2":
		rows, err := bench.LOCTable()
		if err != nil {
			return err
		}
		return output(outDir, "table2", func(w io.Writer) error {
			return bench.WriteLOCTable(w, rows)
		})
	case "fig2", "fig3", "fig4":
		fig, err := cfg.FinishOverheadFigure(figApp[exp])
		if err != nil {
			return err
		}
		return output(outDir, exp, func(w io.Writer) error {
			if err := bench.WriteFigure(w, fig); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return bench.WriteFigureChart(w, fig)
		})
	case "table3":
		rows, err := cfg.CheckpointTable()
		if err != nil {
			return err
		}
		return output(outDir, "table3", func(w io.Writer) error {
			return bench.WriteCheckpointTable(w, rows)
		})
	case "fig5", "fig6", "fig7":
		fig, err := cfg.RestoreFigure(figApp[exp])
		if err != nil {
			return err
		}
		return output(outDir, exp, func(w io.Writer) error {
			if err := bench.WriteFigure(w, fig); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return bench.WriteFigureChart(w, fig)
		})
	case "table4":
		rows, err := cfg.PercentTable()
		if err != nil {
			return err
		}
		places := cfg.Scale.PlaceCounts[len(cfg.Scale.PlaceCounts)-1]
		return output(outDir, "table4", func(w io.Writer) error {
			return bench.WritePercentTable(w, rows, places)
		})
	case "ablations":
		rows, err := cfg.Ablations()
		if err != nil {
			return err
		}
		return output(outDir, "ablations", func(w io.Writer) error {
			return bench.WriteAblations(w, rows, cfg.Scale.Runs)
		})
	default:
		return fmt.Errorf("unknown experiment (want table2, fig2-7, table3, table4, ablations, chaos, all)")
	}
}
