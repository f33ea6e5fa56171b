// Command benchmark is the repository's one benchmark: five named
// workloads over the resilient framework on the local and tcp backends,
// end-to-end metrics with regression bounds, and per-layer metrics from a
// traced run and from direct calls into each layer. BENCHMARK.json at the
// repository root names the command, workloads and metrics; README.md in
// this directory defines them.
//
//	bash benchmark/run.sh                        every workload, traced runs and micro
//	bash benchmark/run.sh -workload logreg_tcp   one workload
//	bash benchmark/run.sh -json A.json           also write the set for -compare
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/rgml/rgml/internal/apgas/transport/tcp"
)

const defaultSeed = 20150525

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	reps     int
	trace    int // 0: end-to-end only, 1: traced only, -1: both
	micro    bool
	compare  bool
	jsonOut  string
	outDir   string
	child    string
}

func main() {
	// tcp workers are this binary re-executed; they serve and exit here.
	tcp.MaybeWorker()

	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the result object as the last line")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seed for the datasets and the kill victims (nothing else)")
	flag.IntVar(&o.seconds, "seconds", refSeconds, "seconds the repetitions of one run measure for, together; scales iteration counts, never sizes")
	flag.IntVar(&o.reps, "reps", 3, "repetitions per workload, each in a fresh process")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only (traced run + micro), default both")
	flag.BoolVar(&o.micro, "micro", false, "run only the direct-call layer benchmarks, at full length")
	flag.BoolVar(&o.compare, "compare", false, "compare two result sets: -compare A.json B.json")
	flag.StringVar(&o.jsonOut, "json", "", "write the result set to this file")
	flag.StringVar(&o.outDir, "out", defaultOutDir(), "directory for Chrome traces")
	flag.StringVar(&o.child, "child", "", "internal: run one child task (rep, nonres, micro) from a JSON spec on stdin")
	flag.Parse()

	var err error
	switch {
	case o.child != "":
		err = runChild(o.child)
	case o.compare:
		err = runCompare(flag.Args())
	case o.micro:
		err = runMicroOnly()
	default:
		err = orchestrate(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// defaultOutDir puts traces under the benchmark's own directory whether
// the command runs from the repository root or from benchmark/.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// runTask is how the orchestrator runs one task: in a fresh child process
// of this binary. The tests, whose binary is not this command, swap in
// task itself.
var runTask = inChild

// task runs one task in this process: a repetition, the non-resilient
// comparison run, or the direct-call benchmarks. spec is the task's JSON
// spec and the result is decoded into out.
func task(mode string, spec, out any) error {
	in, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	res, err := dispatch(mode, in)
	if err != nil {
		return err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

func dispatch(mode string, in []byte) (any, error) {
	switch mode {
	case "rep", "nonres":
		var spec repSpec
		if err := json.Unmarshal(in, &spec); err != nil {
			return nil, err
		}
		if mode == "nonres" {
			return runNonResilient(spec.W, spec.Seed)
		}
		return runRep(spec)
	case "micro":
		var spec microSpec
		if err := json.Unmarshal(in, &spec); err != nil {
			return nil, err
		}
		return runMicro(spec)
	}
	return nil, fmt.Errorf("unknown child mode %q", mode)
}

// runChild is the child side of inChild: the spec arrives on stdin, the
// result leaves as one JSON line on stdout.
func runChild(mode string) error {
	in, err := io.ReadAll(os.Stdin)
	if err != nil {
		return err
	}
	out, err := dispatch(mode, in)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// childTimeout bounds one child task; the contract allows a whole run 180 s.
const childTimeout = 150 * time.Second

// inChild runs one task in a fresh process of this binary — clean heap,
// pools and worker set — and decodes its result into out.
func inChild(mode string, spec, out any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	in, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode)
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %s: %w", mode, err)
	}
	return json.Unmarshal(stdout.Bytes(), out)
}

// workloadResult is one workload's part of a result set.
type workloadResult struct {
	Iters     int                `json:"iters_per_rep"`
	Reps      int                `json:"reps"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	Samples   map[string]int     `json:"samples_per_rep,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Attempted int64              `json:"ops_attempted"`
	Failed    int64              `json:"ops_failed"`
	Correct   bool               `json:"correct"`
	Hash      string             `json:"final_iterate_hash"`
	Errors    []string           `json:"errors,omitempty"`
}

// resultSet is what one invocation measured, the unit -compare reads.
type resultSet struct {
	Env       map[string]any             `json:"environment"`
	Seed      uint64                     `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Micro     map[string]float64         `json:"micro,omitempty"`
}

func environment(seed uint64) map[string]any {
	env := map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "go": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(), "date": time.Now().UTC().Format(time.RFC3339),
		"git_commit": "unknown", "seed": seed,
	}
	kw := map[string]int{}
	for _, w := range workloads {
		kw[w.Name] = w.KernelWorkers
	}
	env["kernel_workers"] = kw
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["git_commit"] = s.Value
			}
		}
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// orchestrate runs the selected workloads: the reference once per
// (workload, seed), then every repetition in a fresh child process.
func orchestrate(o options) error {
	selected := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	if o.seconds < 1 || o.reps < 1 {
		return errors.New("-seconds and -reps must be at least 1")
	}
	set := &resultSet{Env: environment(o.seed), Seed: o.seed, Seconds: o.seconds, Workloads: map[string]*workloadResult{}}
	fmt.Printf("rgml benchmark: seed %d, %d s per run, %d repetitions, %s, %d cpu(s)\n",
		o.seed, o.seconds, o.reps, set.Env["cpu"], runtime.NumCPU())

	allCorrect := true
	for _, w := range selected {
		w = w.scaled(o.seconds)
		ref, err := reference(w, o.seed)
		if err != nil {
			return fmt.Errorf("%s: reference: %w", w.Name, err)
		}
		wr := &workloadResult{Iters: w.Iters, Correct: true}
		set.Workloads[w.Name] = wr
		var untraced *repResult
		if o.trace != 1 {
			reps, err := runEndToEnd(w, o, ref, wr)
			if err != nil {
				return err
			}
			untraced = reps[len(reps)/2]
		}
		if o.trace != 0 {
			if err := runTraced(w, o, ref, wr, untraced); err != nil {
				return err
			}
		}
		allCorrect = allCorrect && wr.Correct
	}
	if o.trace != 0 && o.workload == "" {
		// The full-length direct-call benchmarks, once per set.
		m, err := microInChild(fullMicro)
		if err != nil {
			return err
		}
		set.Micro = m
		printLayer("micro (direct calls)", microLayer, m)
	}
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.workload != "" {
		printContractLine(set.Workloads[o.workload], o.trace)
	}
	if !allCorrect {
		return errors.New("verification or accounting failed (see above)")
	}
	return nil
}

// runEndToEnd runs the untraced repetitions of one workload and folds
// them into wr: each end-to-end metric is the median over repetitions.
func runEndToEnd(w workload, o options, ref refHashes, wr *workloadResult) ([]*repResult, error) {
	var reps []*repResult
	vals := map[string][]float64{}
	n := o.reps
	if w.RepFactor > 1 {
		n *= w.RepFactor
	}
	for i := 0; i < n; i++ {
		res := new(repResult)
		if err := runTask("rep", repSpec{W: w, Seed: o.seed, Ref: ref}, res); err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", w.Name, i, err)
		}
		reps = append(reps, res)
		for name, v := range map[string]float64{
			"setup_s": res.SetupS, "run_s": res.RunS, "iter_ms": res.IterMs,
			"ckpt_ms": res.CkptMs, "restore_ms": res.RestoreMs, "live_heap_mb": res.LiveHeapMB,
		} {
			vals[name] = append(vals[name], v)
		}
		wr.absorb(res)
	}
	wr.Reps = len(reps)
	wr.EndToEnd = map[string]summary{}
	for name, vs := range vals {
		wr.EndToEnd[name] = summarize(vs)
	}
	wr.Samples = map[string]int{"iter_ms": reps[0].NIter, "ckpt_ms": reps[0].NCkpt, "restore_ms": reps[0].NRestore}
	printEndToEnd(w, wr, reps)
	return reps, nil
}

// absorb folds one repetition's operation counts and verdict into wr.
func (wr *workloadResult) absorb(res *repResult) {
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	wr.Hash = res.Hash
	if !res.Correct() {
		wr.Correct = false
		wr.Errors = append(wr.Errors, res.Errors...)
	}
}

// runTraced takes the per-layer metrics of one workload: one traced
// repetition (registry wired through runtime, executor and tcp transport;
// transport decorator installed), an untraced one to price the tracing
// unless the end-to-end runs already supplied it, the non-resilient
// variant, and the direct-call benchmarks at reduced length.
func runTraced(w workload, o options, ref refHashes, wr *workloadResult, untraced *repResult) error {
	traceOut := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.trace.json", w.Name, o.seed))
	traced := new(repResult)
	if err := runTask("rep", repSpec{W: w, Seed: o.seed, Ref: ref, Traced: true, TraceOut: traceOut}, traced); err != nil {
		return fmt.Errorf("%s traced: %w", w.Name, err)
	}
	wr.absorb(traced)
	if untraced == nil {
		untraced = new(repResult)
		if err := runTask("rep", repSpec{W: w, Seed: o.seed, Ref: ref}, untraced); err != nil {
			return fmt.Errorf("%s untraced: %w", w.Name, err)
		}
		wr.absorb(untraced)
	}
	var nonres float64
	if err := runTask("nonres", repSpec{W: w, Seed: o.seed}, &nonres); err != nil {
		return fmt.Errorf("%s non-resilient: %w", w.Name, err)
	}
	m := traced.Layer
	m["apps.nonres_iter_ms"] = nonres
	m["apps.resil_overhead_pct"] = 100 * (ratio(untraced.IterMs, nonres) - 1)
	m["trace.overhead_pct"] = 100 * (ratio(traced.IterMs, untraced.IterMs) - 1)
	wr.PerLayer = m
	printLayer(fmt.Sprintf("%s: per-layer (traced run, seed %d; trace in %s)", w.Name, o.seed, traceOut), tracedLayer, m)
	if o.workload != "" {
		// A single-workload traced run carries the direct-call metrics
		// too, at reduced length; the full set runs them once at the end.
		micro, err := microInChild(quickMicro)
		if err != nil {
			return err
		}
		for k, v := range micro {
			m[k] = v
		}
		printLayer("micro (direct calls, short batches)", microLayer, micro)
	}
	return nil
}

func printEndToEnd(w workload, wr *workloadResult, reps []*repResult) {
	fmt.Printf("\n%s  (%s, %s, %d places, %d repetitions of %d iterations, checkpoint every %d, %d kill(s) each; layer under load: %s)\n",
		w.Name, w.App, w.Backend, w.Places, len(reps), w.Iters, w.Ckpt, len(w.killIters()), w.Layer)
	fmt.Printf("  %-14s %12s %-4s %12s %12s   %s\n", "metric", "median", "unit", "q1", "q3", "per repetition")
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.Name]
		n := ""
		if k, ok := wr.Samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d each)", k)
		}
		fmt.Printf("  %-14s %12.4f %-4s %12.4f %12.4f   %v%s\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3, fmtVals(s.Values), n)
	}
	mid := reps[len(reps)/2]
	fmt.Printf("  accounting     run_s %.3f = steps %.3f + checkpoint %.3f + restart %.3f + unaccounted %.3f (%.1f%%); extra iterations %.3f s of the steps\n",
		mid.RunS, mid.StepShare*mid.RunS, mid.CkptS, mid.RestartS, mid.UnaccountedShare*mid.RunS, 100*mid.UnaccountedShare, mid.ExtraIterS)
	fmt.Printf("  operations     %d attempted, %d failed; %d steps (%d replayed), %d checkpoints, %d restores per repetition\n",
		wr.Attempted, wr.Failed, mid.Steps, mid.Replayed, mid.Checkpoints, mid.Restores)
	if wr.Correct {
		fmt.Printf("  verified       final iterate %s is bitwise equal to the failure-free local reference in all %d repetitions\n", wr.Hash, len(reps))
	} else {
		for _, e := range wr.Errors {
			fmt.Printf("  FAILED         %s\n", e)
		}
	}
}

func fmtVals(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func printLayer(title string, defs []metricDef, m map[string]float64) {
	fmt.Printf("\n%s\n", title)
	for _, d := range defs {
		fmt.Printf("  %-34s %14.4f %-8s %s\n", d.Name, m[d.Name], d.Unit, d.What)
	}
}

// printContractLine prints the one JSON object the driver reads: the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
func printContractLine(wr *workloadResult, trace int) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if trace == 1 {
		for _, d := range perLayer() {
			metrics[d.Name] = mv{wr.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = mv{wr.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": wr.Correct, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics,
	})
	fmt.Println(string(line))
}
