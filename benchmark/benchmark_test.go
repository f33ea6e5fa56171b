package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/rgml/rgml/internal/apgas/transport/tcp"
)

func TestMain(m *testing.M) {
	// tcp workers are this test binary re-executed.
	tcp.MaybeWorker()
	// The orchestrator's children would be this test binary too, which
	// has no -child mode: run every task in-process instead.
	runTask = task
	os.Exit(m.Run())
}

func finite(t *testing.T, what, name string, v float64, present bool) {
	t.Helper()
	if !present {
		t.Errorf("%s: metric %s not emitted", what, name)
	} else if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("%s: metric %s = %v", what, name, v)
	}
}

// Every workload, at smoke scale and through the orchestrator's own code
// path, must verify bitwise against its reference and emit every declared
// end-to-end and traced per-layer metric with a finite value.
func TestWorkloadsSmoke(t *testing.T) {
	o := options{seed: defaultSeed, reps: 1, outDir: t.TempDir()}
	for _, w := range workloads {
		w := w.smoke()
		t.Run(w.Name, func(t *testing.T) {
			ref, err := reference(w, o.seed)
			if err != nil {
				t.Fatal(err)
			}
			wr := &workloadResult{Correct: true}
			reps, err := runEndToEnd(w, o, ref, wr)
			if err != nil {
				t.Fatal(err)
			}
			if err := runTraced(w, o, ref, wr, reps[0]); err != nil {
				t.Fatal(err)
			}
			if !wr.Correct || wr.Failed != 0 {
				t.Fatalf("not correct: %d of %d operations failed: %v", wr.Failed, wr.Attempted, wr.Errors)
			}
			if reps[0].Kills != 1 || reps[0].Restores != 1 {
				t.Errorf("kills %d, restores %d, want 1 and 1", reps[0].Kills, reps[0].Restores)
			}
			for _, d := range endToEnd {
				s, ok := wr.EndToEnd[d.Name]
				finite(t, w.Name, d.Name, s.Median, ok)
				if ok && s.Median <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, s.Median)
				}
			}
			for _, d := range tracedLayer {
				v, ok := wr.PerLayer[d.Name]
				finite(t, w.Name, d.Name, v, ok)
			}
			if len(wr.PerLayer) != len(tracedLayer) {
				t.Errorf("%d per-layer metrics emitted, %d declared", len(wr.PerLayer), len(tracedLayer))
			}
			if w.Backend == "tcp" {
				if wr.PerLayer["kernel.worker_tasks_per_iter"] <= 0 || wr.PerLayer["kernel.fallback_tasks"] != 0 {
					t.Errorf("tcp data plane: %v worker tasks per iteration, %v fallbacks",
						wr.PerLayer["kernel.worker_tasks_per_iter"], wr.PerLayer["kernel.fallback_tasks"])
				}
			}
			trace := filepath.Join(o.outDir, w.Name+"-seed20150525.trace.json")
			data, err := os.ReadFile(trace)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct{ TraceEvents []map[string]any }
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) < 10 {
				t.Errorf("Chrome trace %s: %d events, err %v", trace, len(doc.TraceEvents), err)
			}
		})
	}
}

// A wrong iterate must fail the repetition, not pass silently.
func TestVerificationCatchesWrongIterate(t *testing.T) {
	w := workloads[1].smoke()
	ref, err := reference(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := reference(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ref == other {
		t.Fatal("two seeds gave the same reference hashes")
	}
	res, err := runRep(repSpec{W: w, Seed: 1, Ref: other})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct() || res.Failed != 2 {
		t.Errorf("repetition verified against the wrong reference: failed %d, errors %v", res.Failed, res.Errors)
	}
}

func TestMicroEmitsEveryMetric(t *testing.T) {
	m, err := runMicro(microSpec{Batches: 1, BatchMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range microLayer {
		v, ok := m[d.Name]
		finite(t, "micro", d.Name, v, ok)
		if ok && v <= 0 {
			t.Errorf("micro metric %s = %v", d.Name, v)
		}
	}
	if len(m) != len(microLayer) {
		t.Errorf("%d micro metrics emitted, %d declared", len(m), len(microLayer))
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, program sized for %d", doc.RunSeconds, refSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q uses a character outside [A-Za-z0-9_.-] or is too long", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.Name)
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q", i, doc.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, file, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(file), kind, len(prog))
		}
		for i, d := range prog {
			check(d.Name)
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s: unit %q", d.Name, d.Unit)
			}
			f := file[i]
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better || f.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, program has %s %s %s %v", kind, i, f, d.Name, d.Unit, d.Better, d.Bound)
			}
		}
	}
	compare("end-to-end", doc.EndToEnd, endToEnd)
	compare("per-layer", doc.PerLayer, perLayer())
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestCompareVerdict(t *testing.T) {
	d := metricDef{Name: "run_s", Better: "lower", Bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1} }
	for _, c := range []struct {
		a, b summary
		want string
	}{
		{tight(10), tight(10.9), "ok"},
		{tight(10), tight(8), "ok"},
		{tight(10), tight(11.5), "regressed"},
		{tight(10), wide(11.5), "unresolved"},
		{wide(10), tight(11.5), "unresolved"},
	} {
		if got := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.a.Median, c.b.Median, got, c.want)
		}
	}
	up := metricDef{Name: "x", Better: "higher", Bound: 0.10}
	if got := verdict(up, tight(10), tight(8)); got != "regressed" {
		t.Errorf("higher-is-better drop: %s", got)
	}
}

func TestCoveredIsAUnion(t *testing.T) {
	spans := []span{{0, 10, 20}, {0, 15, 30}, {0, 40, 50}, {0, 45, 70}}
	if got := covered(spans, 0, 60); got != 40 {
		t.Errorf("covered = %d, want 40 (10..30 and 40..60)", got)
	}
}

func TestScaledKeepsWholeKillPeriods(t *testing.T) {
	for _, w := range workloads {
		for _, sec := range []int{1, 6, refSeconds, 30, 60} {
			s := w.scaled(sec)
			if s.Iters%s.KillEvery != 0 || s.Iters < s.KillEvery {
				t.Errorf("%s at %d s: %d iterations, kill period %d", w.Name, sec, s.Iters, s.KillEvery)
			}
			if len(s.killIters()) == 0 {
				t.Errorf("%s at %d s: no kill, restore_ms would be 0", w.Name, sec)
			}
			if s.Warmup%s.Ckpt != 0 || s.KillEvery%s.Ckpt != 0 || s.KillOffset%s.Ckpt == 0 {
				t.Errorf("%s: kills do not fall %d steps past a checkpoint", w.Name, s.KillOffset)
			}
		}
		if w.scaled(refSeconds).Iters != w.Iters {
			t.Errorf("%s: reference length changes the iteration count", w.Name)
		}
	}
}
