package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/apgas/transport/local"
	"github.com/rgml/rgml/internal/apgas/transport/tcp"
	"github.com/rgml/rgml/internal/apps"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
)

// The tcp heartbeat is set explicitly: the 50 ms / 250 ms default
// declares a healthy worker dead now and then when three processes share
// two cores (see README, host findings), after which the run ends in
// ErrDataLost. A SIGKILLed worker is still found at once, by connection
// reset.
const (
	tcpHeartbeat        = 100 * time.Millisecond
	tcpHeartbeatTimeout = 2 * time.Second
)

// newTCP builds the tcp backend as every part of the benchmark uses it.
// Worker processes inherit the environment, which is how they get their
// kernel worker pool size. A nil registry leaves it uninstrumented.
func newTCP(kernelWorkers int, reg *obs.Registry) *tcp.Transport {
	os.Setenv("RGML_WORKERS", strconv.Itoa(kernelWorkers))
	return tcp.New(tcp.WithHeartbeat(tcpHeartbeat, tcpHeartbeatTimeout), tcp.WithObs(reg))
}

// joinedTCP is the tcp backend with a synchronous Grow. The backend's own
// Grow returns once the new worker processes are started; until their
// handshake lands, kernels dispatched to the new places silently fall
// back to the coordinator (all of them, at smoke scale). A benchmark that
// claims its tcp numbers are real cannot have that depend on a race, so
// Grow here returns only when every new place takes a frame. Worker start
// is thereby inside restore_ms, where recovery pays for it.
type joinedTCP struct {
	*tcp.Transport
	places int
}

func (t *joinedTCP) Start(places int, h transport.Handler) error {
	t.places = places
	return t.Transport.Start(places, h)
}

func (t *joinedTCP) Grow(n int) error {
	if err := t.Transport.Grow(n); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for p := t.places; p < t.places+n; p++ {
		for {
			if _, err := t.Transport.Send(0, p, transport.ClassControl, 0, nil); err == nil {
				break
			} else if time.Now().After(deadline) {
				return fmt.Errorf("place %d did not join within 10s: %w", p, err)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	t.places += n
	return nil
}

// repSpec is everything one repetition needs; the orchestrator hands it
// to a fresh child process as JSON.
type repSpec struct {
	W        workload
	Seed     uint64
	Traced   bool
	Ref      refHashes
	TraceOut string // Chrome trace path (traced runs)
}

// repResult is what one repetition measured.
type repResult struct {
	// End-to-end metrics.
	SetupS     float64
	RunS       float64
	IterMs     float64
	CkptMs     float64
	RestoreMs  float64
	LiveHeapMB float64
	IterP95Ms  float64 // per-layer: core.iter_p95_ms

	// Sample counts behind the medians.
	NIter, NCkpt, NRestore int

	// Accounting: shares of RunS, and Tao et al.'s three overhead terms.
	StepShare, CkptShare, RestoreShare, UnaccountedShare float64
	CkptS, RestartS, ExtraIterS                          float64

	Steps, Checkpoints, Restores, RestoreAttempts, Replayed int64
	Kills                                                   int
	WorkerTasks, FallbackTasks                              int64

	Attempted, Failed int64
	Hash              string
	Errors            []string

	// Layer holds the per-layer metrics of a traced repetition.
	Layer map[string]float64
}

func (r *repResult) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// Correct reports whether the repetition verified and accounted cleanly.
func (r *repResult) Correct() bool { return len(r.Errors) == 0 }

// appHandle is an application plus the accessor for its final iterate.
type appHandle struct {
	app   core.IterativeApp
	final func() (la.Vector, error)
}

func (h appHandle) hash() (string, error) {
	v, err := h.final()
	if err != nil {
		return "", err
	}
	return hashVector(v)
}

// buildApp constructs the workload's resilient application over pg. The
// iteration cap is left to the seam, so the app's own cap is unreachable.
func buildApp(rt *apgas.Runtime, w workload, seed uint64, pg apgas.PlaceGroup) (appHandle, error) {
	n := w.PerPlace * w.Places
	const never = math.MaxInt32
	switch w.App {
	case "linreg":
		a, err := apps.NewLinReg(rt, apps.LinRegConfig{
			Examples: n, Features: w.Features, Iterations: never, Seed: seed,
			CheckpointInputs: w.CheckpointInputs,
		}, pg)
		if err != nil {
			return appHandle{}, err
		}
		return appHandle{a, a.Weights}, nil
	case "logreg":
		a, err := apps.NewLogReg(rt, apps.LogRegConfig{
			Examples: n, Features: w.Features, Iterations: never, Seed: seed,
		}, pg)
		if err != nil {
			return appHandle{}, err
		}
		return appHandle{a, a.Weights}, nil
	case "pagerank":
		a, err := apps.NewPageRank(rt, apps.PageRankConfig{
			Nodes: n, OutDegree: w.OutDegree, Iterations: never, Seed: seed,
		}, pg)
		if err != nil {
			return appHandle{}, err
		}
		return appHandle{a, a.Ranks}, nil
	}
	return appHandle{}, fmt.Errorf("unknown app %q", w.App)
}

// hashVector hashes the float64 bit patterns of v (FNV-1a), so equality
// of hashes is bitwise equality of iterates. A non-finite element is an
// error: a diverged solver must not verify against a diverged reference.
func hashVector(v la.Vector) (string, error) {
	h := fnv.New64a()
	var b [8]byte
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return "", fmt.Errorf("iterate element %d is %v", i, x)
		}
		bits := math.Float64bits(x)
		for k := range b {
			b[k] = byte(bits >> (8 * k))
		}
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16), nil
}

// refHashes are the reference iterate's hashes at the two iterations a
// repetition is verified at.
type refHashes struct {
	Early, Final string
}

// reference runs the workload's application failure-free and
// checkpoint-free on the local backend — same config, place count, seed
// and iteration count — and hashes its iterate at the early check and at
// the end. Nothing is golden-filed: it is recomputed per (workload, seed).
func reference(w workload, seed uint64) (ref refHashes, err error) {
	rt, err := apgas.New(apgas.WithPlaces(w.Places), apgas.WithKernelWorkers(w.KernelWorkers))
	if err != nil {
		return ref, err
	}
	defer rt.Shutdown()
	h, err := buildApp(rt, w, seed, rt.World())
	if err != nil {
		return ref, err
	}
	for i := int64(1); i <= int64(w.Warmup+w.Iters); i++ {
		if err := h.app.Step(); err != nil {
			return ref, fmt.Errorf("reference step %d: %w", i, err)
		}
		if i == w.earlyCheckIter() {
			if ref.Early, err = h.hash(); err != nil {
				return ref, err
			}
		}
	}
	ref.Final, err = h.hash()
	return ref, err
}

// victimRNG draws the kill victims from the seed (splitmix64).
type victimRNG uint64

func (r *victimRNG) intn(n int) int {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}

// runRep runs one repetition of a workload in this process: set-up
// (runtime and workers, data generation, first checkpoint, warm-up), the
// measured run under the fixed kill schedule, verification, accounting.
// A returned error means the repetition could not be carried out at all;
// anything the repetition got wrong is in the result's Errors.
func runRep(spec repSpec) (*repResult, error) {
	w := spec.W
	res := new(repResult)

	var reg *obs.Registry
	if spec.Traced {
		reg = obs.NewRegistry()
	}
	var (
		tp    transport.Transport
		tcpTP *tcp.Transport
		tt    *tracedTransport
	)
	switch w.Backend {
	case "tcp":
		tcpTP = newTCP(w.KernelWorkers, reg)
		tp = &joinedTCP{Transport: tcpTP}
	case "local":
		if spec.Traced {
			tp = local.New()
		}
	default:
		return nil, fmt.Errorf("unknown backend %q", w.Backend)
	}
	if spec.Traced {
		tt = newTracedTransport(tp)
		tp = tt
	}
	rtOpts := []apgas.Option{
		apgas.WithPlaces(w.Places + w.Spares),
		apgas.WithResilient(true),
		apgas.WithKernelWorkers(w.KernelWorkers),
	}
	if reg != nil {
		rtOpts = append(rtOpts, apgas.WithObs(reg))
	}
	if tp != nil {
		rtOpts = append(rtOpts, apgas.WithTransport(tp))
	}
	spawnStart := time.Now()
	rt, err := apgas.New(rtOpts...)
	if err != nil {
		return nil, err
	}
	spawn := time.Since(spawnStart)
	defer rt.Shutdown()

	// The kill schedule, driven from the executor's after-step hook.
	killIters := w.killIters()
	rng := victimRNG(spec.Seed)
	var (
		exec    *core.Executor
		s       *seam
		sigkill int
	)
	var h appHandle
	earlyHash := ""
	hook := func(iter int64) {
		if iter == w.earlyCheckIter() && earlyHash == "" {
			var err error
			if earlyHash, err = h.hash(); err != nil {
				res.fail("iterate at iteration %d: %v", iter, err)
			}
		}
		if len(s.kills) == len(killIters) || iter != killIters[len(s.kills)] {
			return
		}
		active := exec.ActiveGroup()
		victim := active[1+rng.intn(active.Size()-1)] // place zero is immortal
		k := kill{at: sinceStart()}
		switch w.Kill {
		case killAdmin:
			if err := rt.Kill(victim); err != nil {
				res.fail("kill %v: %v", victim, err)
			}
		case killSIGKILL:
			sigkill++
			if err := tcpTP.KillWorkerProcess(victim.ID); err != nil {
				res.fail("SIGKILL %v: %v", victim, err)
				break
			}
			for deadline := time.Now().Add(10 * time.Second); !rt.IsDead(victim); {
				if time.Now().After(deadline) {
					res.fail("place %v not declared dead within 10s of its process dying", victim)
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
			k.detected = sinceStart() - k.at
		}
		s.kills = append(s.kills, k)
	}
	execOpts := []core.Option{
		core.WithCheckpointInterval(w.Ckpt),
		core.WithRestoreMode(w.Mode),
		core.WithSpares(w.Spares),
		core.WithMaxRestores(2*len(killIters) + 4),
		core.WithAfterStep(hook),
	}
	if reg != nil {
		execOpts = append(execOpts, core.WithObs(reg))
	}
	if exec, err = core.New(rt, execOpts...); err != nil {
		return nil, err
	}
	if h, err = buildApp(rt, w, spec.Seed, exec.ActiveGroup()); err != nil {
		return nil, err
	}
	s = newSeam(h.app, 2*(w.Warmup+w.Iters)+64)
	if spec.Traced {
		s.attach(layerProbes(reg))
	}

	// Set-up ends with the first checkpoint (which ships the read-only
	// inputs to their replicas, and on tcp to the workers) and the warm-up.
	s.limit = int64(w.Warmup)
	if err := exec.Run(s); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	measuredFrom := len(s.phases)
	for k := range s.acc {
		clear(s.acc[k])
	}
	s.limit = int64(w.Warmup + w.Iters)
	runStart := sinceStart()
	res.SetupS = float64(runStart) / 1e9
	runErr := exec.Run(s)
	runEnd := sinceStart()
	res.RunS = float64(runEnd-runStart) / 1e9
	if runErr != nil {
		res.fail("run: %v", runErr)
	}

	// Verification: bitwise against the failure-free reference, shortly
	// after the first recovery and at the end.
	if earlyHash != spec.Ref.Early {
		res.fail("iterate %s at iteration %d differs from the failure-free reference %s", earlyHash, w.earlyCheckIter(), spec.Ref.Early)
	}
	if res.Hash, err = h.hash(); err != nil {
		res.fail("final iterate: %v", err)
	} else if res.Hash != spec.Ref.Final {
		res.fail("final iterate %s differs from the failure-free reference %s", res.Hash, spec.Ref.Final)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.LiveHeapMB = float64(ms.HeapInuse) / 1e6
	runtime.KeepAlive(h)

	measured := s.phases[measuredFrom:]
	res.account(s, measured, runEnd-runStart)
	m := exec.Metrics()
	st := rt.Stats()
	res.Steps, res.Checkpoints, res.Restores = m.Steps, m.Checkpoints, m.Restores
	res.RestoreAttempts, res.Replayed = m.RestoreAttempts, m.ReplayedSteps
	res.Kills = len(s.kills)
	res.WorkerTasks = st.WorkerTasks
	if want := int64(w.Warmup+w.Iters) + m.ReplayedSteps; m.Steps != want {
		res.fail("executor counted %d steps, want iterations+replayed = %d", m.Steps, want)
	}
	if len(s.kills) != len(killIters) {
		res.fail("injected %d kills, schedule has %d", len(s.kills), len(killIters))
	}
	if m.Restores != int64(len(s.kills)) {
		res.fail("%d restores for %d injected kills", m.Restores, len(s.kills))
	}
	if spurious := st.PlacesKilled + st.PlacesFailed - int64(len(s.kills)); spurious != 0 {
		res.fail("%d place death(s) the schedule did not inject", spurious)
	}
	if w.Backend == "tcp" && st.WorkerTasks == 0 {
		res.fail("no kernel executed inside a worker process")
	}

	if spec.Traced {
		res.FallbackTasks = reg.CounterValue("apgas.tasks.kernel_fallback")
		if w.Backend == "tcp" && res.FallbackTasks != 0 {
			res.fail("%d kernel dispatches fell back to the coordinator", res.FallbackTasks)
		}
		res.Layer = layerMetrics(w, s, measured, tt, reg, res)
		if w.Backend == "tcp" {
			res.Layer["tcp.spawn_ms"] = float64(spawn) / 1e6 / float64(w.Places-1)
			res.Layer["tcp.spurious_deaths"] = float64(reg.CounterValue("transport.tcp.deaths") - int64(sigkill))
		}
		if spec.TraceOut != "" {
			if err := os.MkdirAll(filepath.Dir(spec.TraceOut), 0o755); err != nil {
				return nil, err
			}
			if err := writeChromeTrace(spec.TraceOut, runStart, runEnd, s.phases, tt); err != nil {
				return nil, err
			}
		}
	}

	// Peak RSS needs the workers reaped, so shut down first.
	rt.Shutdown()
	if spec.Traced {
		res.Layer["proc.peak_rss_mb"] = peakRSSMB(w.Backend == "tcp")
	}
	return res, nil
}

// account derives the end-to-end metrics and the accounting identity
// from the phases of the measured run.
func (r *repResult) account(s *seam, measured []phase, runNS int64) {
	var steps, ckpts []float64
	var stepNS, ckptNS, extraNS int64
	var failedSteps, failedOther int64
	for _, p := range measured {
		d := p.end - p.start
		switch {
		case p.kind == phStep && p.ok:
			steps = append(steps, float64(d)/1e6)
			stepNS += d
			if p.replay {
				extraNS += d
			}
		case p.kind == phStep:
			failedSteps++
		case p.kind == phCkpt && p.ok:
			ckpts = append(ckpts, float64(d)/1e6)
			ckptNS += d
		case !p.ok:
			failedOther++
		}
	}
	recs, ok := s.recoveries()
	if !ok {
		r.fail("a kill was never followed by a successful Restore")
	}
	var restores []float64
	var restoreNS int64
	for _, rc := range recs {
		restores = append(restores, float64(rc.total)/1e6)
		restoreNS += rc.total
	}
	r.NIter, r.NCkpt, r.NRestore = len(steps), len(ckpts), len(restores)
	r.IterMs, r.CkptMs, r.RestoreMs = median(steps), median(ckpts), median(restores)
	r.IterP95Ms = quantile(steps, 0.95)

	// Operations: every call the executor made into the application, plus
	// the verification. A failed step right after a kill is the injected
	// failure itself; any other failed call counts as failed.
	r.Attempted = int64(len(measured)) + 2
	if extra := failedSteps - int64(len(s.kills)); extra > 0 {
		r.fail("%d step(s) failed without an injected kill", extra)
	}
	if failedOther > 0 {
		r.fail("%d checkpoint/restore call(s) failed", failedOther)
	}

	// Accounting identity: run = steps + checkpoints + recoveries + rest.
	// A recovery window runs from the kill to the end of the successful
	// Restore and so contains the failed step.
	run := float64(runNS)
	r.StepShare = float64(stepNS) / run
	r.CkptShare = float64(ckptNS) / run
	r.RestoreShare = float64(restoreNS) / run
	r.UnaccountedShare = 1 - r.StepShare - r.CkptShare - r.RestoreShare
	r.CkptS, r.RestartS, r.ExtraIterS = float64(ckptNS)/1e9, float64(restoreNS)/1e9, float64(extraNS)/1e9
	if r.UnaccountedShare > 0.10 || r.UnaccountedShare < -0.01 {
		r.fail("accounting: %.1f%% of run_s is neither step, checkpoint nor recovery", 100*r.UnaccountedShare)
	}
}

// peakRSSMB is the largest resident set among this process and the
// children it has waited for (tcp workers), from getrusage.
func peakRSSMB(workers bool) float64 {
	var self, kids syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &self) != nil {
		return 0
	}
	peak := self.Maxrss
	// Workers are reaped by goroutines the transport started; give them a
	// moment so RUSAGE_CHILDREN has them.
	for i := 0; workers && i < 50; i++ {
		if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) == nil && kids.Maxrss > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if kids.Maxrss > peak {
		peak = kids.Maxrss
	}
	return float64(peak) * 1024 / 1e6 // ru_maxrss is in KiB on Linux
}
