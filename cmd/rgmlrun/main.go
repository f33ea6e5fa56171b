// Command rgmlrun executes one benchmark application once under the
// resilient executor, optionally injecting place failures through a chaos
// schedule (-chaos, the one fault door), and prints a run summary — a
// quick way to watch the framework recover. The summary's "final
// iterate:" line hashes the result's float64 bits, so two runs print the
// same hash exactly when their iterates are bitwise equal; a NaN or ±Inf
// element fails the run instead.
//
// Usage:
//
//	rgmlrun -app pagerank -places 8 -mode shrink -chaos "kill(iter=15,place=4)"
//	rgmlrun -app linreg -places 4 -ckpt 2 -chaos "kill(point=commit,iter=4,place=1)"
//	rgmlrun -transport tcp -app pagerank -places 4 -ckpt 2 -chaos "crash(iter=4,place=2)"
//
// With -transport tcp every place is a separate OS process; a crash rule
// SIGKILLs a worker and fails the run unless the failure detector reports
// the death within 10 s. A run whose schedule killed a place of the
// active group exits non-zero if it never restored.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apps"
	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/cliflags"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/obs"
)

func main() {
	// Self-spawned tcp workers re-exec this binary with the worker
	// environment set; they serve their place and exit here.
	cliflags.MaybeWorker()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rgmlrun:", err)
		os.Exit(1)
	}
}

func run() error {
	var rf cliflags.Runtime
	rf.Register(flag.CommandLine)
	var (
		appName        = flag.String("app", "pagerank", "application: linreg, logreg, pagerank or gnmf")
		places         = flag.Int("places", 8, "number of active places")
		iters          = flag.Int("iters", 30, "iterations")
		ckpt           = flag.Int("ckpt", 10, "checkpoint interval (0 disables)")
		modeName       = flag.String("mode", "shrink", "restore mode: shrink, shrink-rebalance, replace-redundant (one spare reserved) or replace-elastic (creates replacements); either replace mode shrinks away the places it cannot replace")
		minWorkerTasks = flag.Int("min-worker-tasks", 0, "tcp only: fail unless at least this many registered kernels executed inside worker processes (0: no assertion)")
		size           = flag.Int("size", 1000, "per-place problem size (examples or nodes)")
		seed           = flag.Uint64("seed", 42, "dataset seed")
		metrics        = flag.String("metrics", "", "export the run's metrics registry: \"-\" for text on stdout, else a JSON file path")
		chaosStr       = flag.String("chaos", "", "chaos schedule driving seed-reproducible fault injection, e.g. \"kill(iter=4,place=1)\", or \"crash(iter=4,place=1)\" to SIGKILL a tcp worker")
		chaosSd        = flag.Uint64("chaos-seed", 1, "chaos engine seed")
		timeout        = flag.Duration("timeout", 0, "cancel the run after this long (0: no bound)")
	)
	flag.Parse()

	mode, err := cliflags.ParseRestoreMode(*modeName)
	if err != nil {
		return err
	}
	spares := 0
	total := *places
	if mode == core.ReplaceRedundant {
		spares = 1
		total++
	}

	finishMode, err := rf.FinishMode()
	if err != nil {
		return err
	}
	pol, err := rf.StorePolicy()
	if err != nil {
		return err
	}
	compSpec, err := rf.Compression()
	if err != nil {
		return err
	}

	// One registry collects runtime, snapshot and executor metrics so the
	// -metrics export is a single coherent document.
	reg := obs.NewRegistry()
	rtOpts := []apgas.Option{
		apgas.WithPlaces(total),
		apgas.WithResilient(true),
		apgas.WithFinishMode(finishMode),
		apgas.WithStorePolicy(pol),
		apgas.WithObs(reg),
		apgas.WithKernelWorkers(rf.Workers),
	}
	if !compSpec.IsZero() {
		rtOpts = append(rtOpts, apgas.WithCompression(compSpec))
	}
	factory, err := rf.TransportFactory(reg)
	if err != nil {
		return err
	}
	if factory != nil {
		tp, err := factory()
		if err != nil {
			return err
		}
		rtOpts = append(rtOpts, apgas.WithTransport(tp))
	}
	if *minWorkerTasks > 0 && factory == nil {
		return fmt.Errorf("-min-worker-tasks needs -transport tcp (only a data-plane backend executes kernels in workers)")
	}
	rt, err := apgas.New(rtOpts...)
	if err != nil {
		return err
	}
	defer rt.Shutdown()

	opts := []core.Option{
		core.WithCheckpointInterval(*ckpt),
		core.WithRestoreMode(mode),
		core.WithSpares(spares),
		core.WithObs(reg),
	}
	var eng *chaos.Engine
	if *chaosStr != "" {
		sched, err := chaos.Parse(*chaosStr)
		if err != nil {
			return err
		}
		eng, err = chaos.New(rt, sched, chaos.WithSeed(*chaosSd))
		if err != nil {
			return err
		}
		opts = append(opts, core.WithChaos(eng))
	}
	exec, err := core.New(rt, opts...)
	if err != nil {
		return err
	}

	var app core.IterativeApp
	switch *appName {
	case "linreg":
		app, err = apps.NewLinReg(rt, apps.LinRegConfig{
			Examples: *size * *places, Features: 64, Iterations: *iters, Seed: *seed,
		}, exec.ActiveGroup())
	case "logreg":
		app, err = apps.NewLogReg(rt, apps.LogRegConfig{
			Examples: *size * *places, Features: 64, Iterations: *iters, Seed: *seed,
		}, exec.ActiveGroup())
	case "pagerank":
		app, err = apps.NewPageRank(rt, apps.PageRankConfig{
			Nodes: *size * *places, OutDegree: 16, Iterations: *iters, Seed: *seed,
		}, exec.ActiveGroup())
	case "gnmf":
		app, err = apps.NewGNMF(rt, apps.GNMFConfig{
			Rows: *size * *places, Cols: *size, NNZPerCol: 8, Rank: 8,
			Iterations: *iters, Seed: *seed,
		}, exec.ActiveGroup())
	default:
		return fmt.Errorf("unknown app %q", *appName)
	}
	if err != nil {
		return err
	}

	fmt.Printf("running %s: %d iterations on %d places (transport %s, mode %v, checkpoint every %d)\n",
		*appName, *iters, *places, rt.TransportName(), mode, *ckpt)
	if !pol.IsZero() {
		fmt.Printf("  store policy: %v\n", pol)
	}
	if !compSpec.IsZero() {
		fmt.Printf("  compression:  %v\n", compSpec)
	}
	active := exec.ActiveGroup()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	if err := exec.RunContext(ctx, app); err != nil {
		return err
	}
	elapsed := time.Since(start)

	m := exec.Metrics()
	if eng != nil && m.Restores == 0 {
		for _, k := range eng.Kills() {
			if active.Contains(k.Place) {
				return fmt.Errorf("chaos killed %v of the active group at iteration %d, yet the run never restored — the fault never reached the computation", k.Place, k.Iteration)
			}
		}
	}
	if *minWorkerTasks > 0 {
		if got := rt.Stats().WorkerTasks; got < int64(*minWorkerTasks) {
			return fmt.Errorf("only %d kernels executed inside worker processes, want at least %d — the distributed data plane never engaged", got, *minWorkerTasks)
		}
	}
	fmt.Printf("done in %v\n", elapsed.Round(time.Millisecond))
	if eng != nil {
		fmt.Printf("  chaos:        seed %d, %d kills [%s], %d transient faults\n",
			eng.Seed(), len(eng.Kills()), eng.Signature(), eng.Flakes())
	}
	fmt.Printf("  steps:        %d (%d replayed after rollback)\n", m.Steps, m.ReplayedSteps)
	fmt.Printf("  checkpoints:  %d (%v total)\n", m.Checkpoints, m.CheckpointTime.Round(time.Millisecond))
	fmt.Printf("  restores:     %d (%v total)\n", m.Restores, m.RestoreTime.Round(time.Millisecond))
	if bytesIn := reg.Counter("snapshot.compress.bytes_in").Value(); bytesIn > 0 {
		bytesOut := reg.Counter("snapshot.compress.bytes_out").Value()
		fmt.Printf("  compression:  %d -> %d bytes (%.1f%%), %dµs encode\n",
			bytesIn, bytesOut, 100*float64(bytesOut)/float64(bytesIn),
			reg.Counter("snapshot.compress.time_us").Value())
		if femto := reg.Gauge("snapshot.lossy.max_err").Value(); femto > 0 {
			fmt.Printf("  lossy err:    max %.3g (bound %g)\n", float64(femto)*1e-15, compSpec.ErrorBound)
		}
	}
	fmt.Printf("  final places: %v\n", exec.ActiveGroup())
	final, err := apps.FinalIterate(app)
	if err != nil {
		return err
	}
	if err := apps.CheckFinite(final); err != nil {
		return err
	}
	fmt.Printf("  final iterate: %s\n", apps.IterateHash(final))
	st := rt.Stats()
	fmt.Printf("  runtime:      %d tasks, %d messages, %d ledger events, %d places killed, %d failed\n",
		st.TasksSpawned, st.Messages, st.LedgerEvents, st.PlacesKilled, st.PlacesFailed)
	fmt.Printf("  kernels:      %d in workers, %d in-process\n",
		st.WorkerTasks, reg.CounterValue("apgas.tasks.kernel_local"))
	if finishMode == apgas.FinishSharded {
		fmt.Printf("  finish:       sharded (%d local fast-path tasks, %d refused forks)\n",
			st.LocalTasks, st.RefusedForks)
	}
	return exportMetrics(reg, *metrics)
}

// exportMetrics writes the registry to dest: nothing for "", a text dump on
// stdout for "-", otherwise an indented JSON file.
func exportMetrics(reg *obs.Registry, dest string) error {
	switch dest {
	case "":
		return nil
	case "-":
		fmt.Println()
		return reg.WriteText(os.Stdout)
	default:
		f, err := os.Create(dest)
		if err != nil {
			return fmt.Errorf("metrics export: %w", err)
		}
		defer f.Close()
		if err := reg.WriteJSON(f); err != nil {
			return fmt.Errorf("metrics export: %w", err)
		}
		return nil
	}
}
