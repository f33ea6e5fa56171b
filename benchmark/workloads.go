package main

import (
	"fmt"

	"github.com/rgml/rgml/internal/core"
)

// killKind says how a workload takes a place down.
type killKind int

const (
	// killAdmin is Runtime.Kill: the runtime marks the place dead first and
	// then destroys its body (on tcp: fKill frame + process kill).
	killAdmin killKind = iota
	// killSIGKILL kills the worker's OS process behind the runtime's back
	// and waits until the failure detector has declared the place dead.
	killSIGKILL
)

// workload is one named benchmark input: an application, a backend, a
// problem size and a fixed checkpoint/kill schedule. Sizes are per place
// (weak scaling, as in the paper); Iters is the measured iteration count
// of ONE repetition at the reference run length (refSeconds), and is the
// only field -seconds scales.
type workload struct {
	Name string
	Why  string
	// Layer names the module whose self time should dominate a step (or,
	// for the recovery workloads, a checkpoint/restore) — checked by eye
	// against the traced run, see README.
	Layer string

	App       string // linreg | logreg | pagerank
	Backend   string // local | tcp
	Places    int    // active places
	Spares    int    // extra places reserved for ReplaceRedundant
	PerPlace  int    // examples (linreg) or nodes (pagerank) per active place
	Features  int    // linreg columns
	OutDegree int    // pagerank out-links per node

	Iters int // measured iterations per repetition at refSeconds
	// MaxIters, when set, caps Iters however long the run is asked to be
	// (LinReg's iterate is only finite for ~170 iterations).
	MaxIters int
	// RepFactor, when above 1, multiplies the repetition count: a workload
	// whose single repetition has to be short repeats more often instead.
	RepFactor int
	Warmup    int // warm-up iterations, part of set-up
	Ckpt      int // checkpoint interval

	// CheckpointInputs re-saves the read-only training data on every
	// checkpoint (LinReg only) so the snapshot store moves real volume.
	CheckpointInputs bool

	// A place is killed after measured iteration j*KillEvery + KillOffset
	// (j = 0, 1, …): always KillOffset steps past a checkpoint, so the
	// number of replayed steps per failure is constant.
	KillEvery  int
	KillOffset int
	Kill       killKind
	Mode       core.RestoreMode

	KernelWorkers int
}

// refSeconds is the run length the Iters fields were sized for: the three
// repetitions of a run together measure for about this long on the
// 2-core reference host.
const refSeconds = 12

// The five gated workloads. Names are part of BENCHMARK.json and of every
// recorded result; never rename one, add a new one instead.
//
// Two departures from ISSUE 12, both forced (README, "Departures"):
//
//   - Every workload injects failures: the driver contract wants every
//     end-to-end metric (restore_ms included) from every workload and
//     never zero. The workloads sized as failure-free keep their problem
//     size, place count and checkpoint interval and get a sparse kill
//     schedule; iter_ms and ckpt_ms are medians and do not move with it.
//   - The long dense workloads run LogReg, not LinReg: LinReg's CG model
//     stops changing after ~17 iterations at this size and is NaN from
//     iteration ~143 on, so a long LinReg run verifies NaN against NaN.
//     LogReg drives the same dist/la calls (three mat-vec passes instead
//     of two) and its iterate still moves in every bit after thousands of
//     steps. LinReg stays where only it can do the job — re-saving its
//     inputs at every checkpoint — capped at 100 iterations.
var workloads = []workload{
	{
		Name:  "logreg_dense_local",
		Why:   "dense GEMV/GEMV-T over 5 MB blocks per place: la/par kernels do nearly all the work, finish/codec/transport little",
		Layer: "la",
		App:   "logreg", Backend: "local", Places: 4, PerPlace: 5000, Features: 128,
		Iters: 1200, Warmup: 20, Ckpt: 10,
		KillEvery: 200, KillOffset: 8, Kill: killAdmin, Mode: core.ReplaceElastic,
		KernelWorkers: 2,
	},
	{
		Name:  "pagerank_fine_local",
		Why:   "fine-grained 1 ms iterations on 8 places: apgas finish/ledger/task spawn and dist collectives dominate, kernels are negligible",
		Layer: "apgas",
		App:   "pagerank", Backend: "local", Places: 8, PerPlace: 2000, OutDegree: 8,
		Iters: 3000, Warmup: 20, Ckpt: 10,
		KillEvery: 500, KillOffset: 8, Kill: killAdmin, Mode: core.ReplaceElastic,
		KernelWorkers: 2,
	},
	{
		Name:  "linreg_resil_local",
		Why:   "20 MB saved every 5 iterations and a kill every 25: codec+snapshot writes carry ckpt_ms, snapshot reads+dist Remake carry restore_ms",
		Layer: "snapshot",
		App:   "linreg", Backend: "local", Places: 4, Spares: 5, PerPlace: 5000, Features: 128,
		Iters: 125, MaxIters: 125, RepFactor: 3, Warmup: 5, Ckpt: 5, CheckpointInputs: true,
		KillEvery: 25, KillOffset: 8, Kill: killAdmin, Mode: core.ReplaceRedundant,
		KernelWorkers: 2,
	},
	{
		Name:  "logreg_tcp",
		Why:   "same numerics through real worker processes: kernel dispatch, gob TASK/RESULT and socket round trips dominate (latency-bound)",
		Layer: "transport",
		App:   "logreg", Backend: "tcp", Places: 3, PerPlace: 5000, Features: 128,
		Iters: 480, Warmup: 20, Ckpt: 10,
		KillEvery: 80, KillOffset: 8, Kill: killAdmin, Mode: core.ReplaceElastic,
		KernelWorkers: 1,
	},
	{
		Name:  "pagerank_recover_tcp",
		Why:   "whole rank vector ships to every worker each step (bandwidth-bound tcp) and recovery crosses real SIGKILLed processes",
		Layer: "transport",
		App:   "pagerank", Backend: "tcp", Places: 3, PerPlace: 30000, OutDegree: 16,
		Iters: 300, Warmup: 20, Ckpt: 10,
		KillEvery: 50, KillOffset: 8, Kill: killSIGKILL, Mode: core.ReplaceElastic,
		KernelWorkers: 1,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns w with its measured iteration count scaled from
// refSeconds to seconds, rounded to whole kill periods so every
// repetition sees the same number of failures per iteration.
func (w workload) scaled(seconds int) workload {
	periods := (w.Iters*seconds + refSeconds*w.KillEvery/2) / (refSeconds * w.KillEvery)
	if periods < 1 {
		periods = 1
	}
	w.Iters = periods * w.KillEvery
	if w.MaxIters > 0 && w.Iters > w.MaxIters {
		w.Iters = w.MaxIters
	}
	return w
}

// smoke returns w shrunk to test scale: ≤ 40 rows per place, 12 measured
// iterations, one kill. Same backend, place count and restore mode.
func (w workload) smoke() workload {
	w.PerPlace = 40
	if w.Features > 8 {
		w.Features = 8
	}
	if w.OutDegree > 4 {
		w.OutDegree = 4
	}
	if w.Spares > 1 {
		w.Spares = 1
	}
	w.Iters, w.Warmup, w.Ckpt = 12, 4, 4
	w.KillEvery, w.KillOffset = 12, 2
	return w
}

// earlyCheckIter is the iteration at which the iterate is hashed a first
// time: shortly after the first recovery, while every solver is still far
// from its fixed point, so that a restore which loaded wrong state cannot
// hide behind later convergence.
func (w workload) earlyCheckIter() int64 { return w.killIters()[0] + 4 }

// killIters lists the completed-iteration counts (warm-up included) after
// which a place is killed.
func (w workload) killIters() []int64 {
	var out []int64
	for at := w.KillOffset; at < w.Iters-w.Ckpt; at += w.KillEvery {
		out = append(out, int64(w.Warmup+at))
	}
	return out
}
