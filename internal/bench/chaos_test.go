package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apps"
	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/par"
)

// acceptanceSchedule kills one place inside a checkpoint commit and a
// second, non-adjacent place mid-restore — the two historically fragile
// windows — on a 4-place group. Victims 1 and 3 are non-adjacent, so the
// double in-memory storage keeps every snapshot entry recoverable.
const acceptanceSchedule = "kill(point=commit,iter=2,place=1);kill(point=restore,place=3)"

func acceptanceSpec(app AppName) ChaosSpec {
	return ChaosSpec{
		App:      app,
		Places:   4,
		Schedule: acceptanceSchedule,
		Seeds:    []uint64{7},
		Mode:     core.Shrink,
	}
}

// TestChaosCampaignDeterminism is the acceptance criterion: a fixed-seed
// campaign that kills a place during commit and another during restore
// completes with the correct final iterate, and a second execution of the
// same campaign reproduces the first exactly.
func TestChaosCampaignDeterminism(t *testing.T) {
	c := smokeConfig()
	first, err := c.ChaosCampaign(acceptanceSpec(LinReg))
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.ChaosCampaign(acceptanceSpec(LinReg))
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]ChaosReport{"first": first, "second": second} {
		if rep.Failed() {
			t.Fatalf("%s campaign failed: %+v", name, rep.Runs)
		}
		run := rep.Runs[0]
		if run.Signature != "2@commit:p1,2@restore:p3" {
			t.Errorf("%s signature = %q", name, run.Signature)
		}
		if run.Restores != 1 || run.RestoreAttempts != 2 {
			t.Errorf("%s restores = %d, attempts = %d, want 1, 2", name, run.Restores, run.RestoreAttempts)
		}
	}
	// Bit-for-bit reproducibility of the whole report, wall time aside.
	a, b := first.Runs[0], second.Runs[0]
	a.DurationMS, b.DurationMS = 0, 0
	if a != b {
		t.Errorf("campaign not reproducible:\n first %+v\nsecond %+v", a, b)
	}
}

// chaosCase is one seeded LinReg chaos run (64 examples × 8 features, 6
// iterations) on a group of places under a schedule.
type chaosCase struct {
	places   int
	schedule string
	seed     uint64
}

var acceptanceCase = chaosCase{places: 4, schedule: acceptanceSchedule, seed: 7}

// oddPlaceCases put uneven partitions (64 rows over 3 or 5 places) under
// a probabilistic commit-time kill; seeds 1-3 kill at the second commit,
// at the first, and never. One kill keeps every cell recoverable at 3
// places, where two could take a snapshot entry's owner and backup
// together.
func oddPlaceCases() []chaosCase {
	var cases []chaosCase
	for _, places := range []int{3, 5} {
		for _, seed := range []uint64{1, 2, 3} {
			cases = append(cases, chaosCase{places, "kill(point=commit,prob=0.6,times=1)", seed})
		}
	}
	return cases
}

// runChaosCase executes k at the executor level under c and returns the
// engine's kill fingerprint and the final weights.
func runChaosCase(t *testing.T, c Config, k chaosCase) (string, la.Vector) {
	t.Helper()
	rt, err := c.newRuntime(k.places, true, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	eng, err := chaos.New(rt, chaos.MustParse(k.schedule), chaos.WithSeed(k.seed))
	if err != nil {
		t.Fatal(err)
	}
	exec, err := core.New(rt,
		core.WithCheckpointInterval(c.Scale.CheckpointInterval),
		core.WithChaos(eng),
	)
	if err != nil {
		t.Fatal(err)
	}
	app, err := apps.NewLinReg(rt, apps.LinRegConfig{
		Examples: 64, Features: 8, Iterations: 6, Seed: 1,
	}, exec.ActiveGroup())
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	w, err := app.Weights()
	if err != nil {
		t.Fatal(err)
	}
	return eng.Signature(), append(la.Vector(nil), w...)
}

// TestChaosRunsBitIdenticalIterates is the invariance oracle: a seeded
// chaos run gives the same kill fingerprint AND the same floating-point
// result, bit for bit and not merely within tolerance, whatever is
// perturbed around it. Each row changes one thing against the reference
// (default config, one kernel worker): nothing at all (determinism), the
// kernel worker count (parallel kernels must not perturb recovery paths
// or results), checkpoint compression (lossless changes the wire bytes,
// never the restored state), and the resilient-finish architecture at odd
// place counts (sharded bookkeeping moves cost, not semantics).
func TestChaosRunsBitIdenticalIterates(t *testing.T) {
	defer par.SetWorkers(par.Workers())
	base := smokeConfig()
	base.LedgerWork = 50 // charge the ledger cost in both finish modes

	acceptance := []chaosCase{acceptanceCase}
	rows := []struct {
		name    string
		workers int
		perturb func(*Config)
		cases   []chaosCase
	}{
		{name: "rerun", workers: 1, cases: acceptance},
		{name: "workers=2", workers: 2, cases: acceptance},
		{name: "workers=7", workers: 7, cases: acceptance},
		{name: "workers=NumCPU", workers: runtime.NumCPU(), cases: acceptance},
		{name: "compress=lossless", workers: 1, cases: acceptance,
			perturb: func(c *Config) { c.Compress = codec.Spec{Mode: codec.CompressLossless} }},
		{name: "finish=sharded", workers: 1, cases: oddPlaceCases(),
			perturb: func(c *Config) { c.FinishMode = apgas.FinishSharded }},
	}

	type result struct {
		sig  string
		bits []uint64
	}
	refs := map[chaosCase]result{}
	reference := func(t *testing.T, k chaosCase) result {
		if r, ok := refs[k]; ok {
			return r
		}
		par.SetWorkers(1)
		sig, w := runChaosCase(t, base, k)
		refs[k] = result{sig, vectorBits(w)}
		return refs[k]
	}
	if sig := reference(t, acceptanceCase).sig; sig != "2@commit:p1,2@restore:p3" {
		t.Fatalf("reference signature = %q", sig)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := base
			if row.perturb != nil {
				row.perturb(&c)
			}
			for _, k := range row.cases {
				ref := reference(t, k)
				par.SetWorkers(row.workers)
				sig, w := runChaosCase(t, c, k)
				if sig != ref.sig {
					t.Errorf("%+v: kill fingerprint diverged: %q vs %q", k, sig, ref.sig)
				}
				if !slices.Equal(vectorBits(w), ref.bits) {
					t.Errorf("%+v: weights not bitwise equal to the reference: %v", k, w)
				}
			}
		})
	}
}

// TestIteratesMatchRejectsNonFinite: the campaign verifier must never
// report a NaN or ±Inf iterate as matching, not even against an equally
// diverged reference.
func TestIteratesMatchRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name     string
		ref, got la.Vector
		want     bool
	}{
		{"equal", la.Vector{1, -2}, la.Vector{1, -2}, true},
		{"within tolerance", la.Vector{1}, la.Vector{1 + 1e-12}, true},
		{"beyond tolerance", la.Vector{1}, la.Vector{1.001}, false},
		{"length", la.Vector{1}, la.Vector{1, 1}, false},
		{"NaN vs finite", la.Vector{1, nan}, la.Vector{1, 2}, false},
		{"finite vs NaN", la.Vector{1, 2}, la.Vector{1, nan}, false},
		{"NaN vs NaN", la.Vector{nan}, la.Vector{nan}, false},
		{"Inf vs Inf", la.Vector{inf}, la.Vector{inf}, false},
		{"Inf vs finite", la.Vector{inf}, la.Vector{1}, false},
		{"finite vs -Inf", la.Vector{1}, la.Vector{-inf}, false},
	} {
		if got := iteratesMatch(tc.ref, tc.got); got != tc.want {
			t.Errorf("%s: iteratesMatch(%v, %v) = %v, want %v", tc.name, tc.ref, tc.got, got, tc.want)
		}
	}
}

// TestChaosBurstCampaign drives a burst kill (two places in one window)
// through the campaign runner under every seed of a small sweep and
// checks each run either survives with a verified iterate or failed for
// the one legitimate reason: the random burst hit adjacent places, whose
// shared snapshot entries are a documented double-failure data loss.
func TestChaosBurstCampaign(t *testing.T) {
	c := smokeConfig()
	rep, err := c.ChaosCampaign(ChaosSpec{
		App:      LinReg,
		Places:   6,
		Schedule: "burst(k=2,iter=3)",
		Seeds:    []uint64{1, 2, 3},
		Mode:     core.Shrink,
	})
	if err != nil {
		t.Fatal(err)
	}
	survived := 0
	for _, run := range rep.Runs {
		if run.Kills != 2 {
			t.Errorf("seed %d: kills = %d, want 2 (%s)", run.Seed, run.Kills, run.Signature)
		}
		if run.Survived {
			survived++
			if !run.Verified {
				t.Errorf("seed %d survived but diverged: %+v", run.Seed, run)
			}
		} else if !strings.Contains(run.Error, "lost") {
			t.Errorf("seed %d died for a non-data-loss reason: %s", run.Seed, run.Error)
		}
	}
	if survived == 0 {
		t.Error("no burst run survived; expected at least one non-adjacent draw")
	}

	// Reproducibility of the whole sweep.
	rep2, err := c.ChaosCampaign(ChaosSpec{
		App:      LinReg,
		Places:   6,
		Schedule: "burst(k=2,iter=3)",
		Seeds:    []uint64{1, 2, 3},
		Mode:     core.Shrink,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Runs {
		a, b := rep.Runs[i], rep2.Runs[i]
		if a.Signature != b.Signature || a.Survived != b.Survived {
			t.Errorf("seed %d not reproducible: %q/%v vs %q/%v",
				a.Seed, a.Signature, a.Survived, b.Signature, b.Survived)
		}
	}
}

// TestChaosCampaignFlakeRetries checks the transient-failure path through
// the campaign: replica flakes are retried (visible in the report) and the
// run still survives and verifies.
func TestChaosCampaignFlakeRetries(t *testing.T) {
	c := smokeConfig()
	rep, err := c.ChaosCampaign(ChaosSpec{
		App:      LinReg,
		Places:   3,
		Schedule: "flake(times=3)",
		Seeds:    []uint64{1},
		Mode:     core.Shrink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("campaign failed: %+v", rep.Runs)
	}
	run := rep.Runs[0]
	if run.Flakes != 3 {
		t.Errorf("flakes = %d, want 3", run.Flakes)
	}
	if run.ReplicaRetries != 3 {
		t.Errorf("replicaRetries = %d, want 3", run.ReplicaRetries)
	}
	if run.ReplicaDropped != 0 {
		t.Errorf("replicaDropped = %d, want 0", run.ReplicaDropped)
	}
}

// TestChaosCampaignWithCompression: the full campaign runner under a
// lossless policy still passes its bitwise verification against the
// failure-free reference. Under a lossy policy that verification MUST
// fail — a restore passes through the quantized checkpoint, so the
// replayed trajectory legitimately differs from the reference by up to
// the error bound — but the run survives, restores, and two executions
// of the same campaign reproduce each other exactly.
func TestChaosCampaignWithCompression(t *testing.T) {
	c := smokeConfig()
	c.Compress = codec.Spec{Mode: codec.CompressLossless}
	rep, err := c.ChaosCampaign(acceptanceSpec(LinReg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("lossless campaign failed: %+v", rep.Runs)
	}
	if got := rep.Environment["compression"]; got != "lossless" {
		t.Fatalf("report compression = %q", got)
	}

	// LinReg checkpoints only its 8-element model lossy; at this size an
	// error bound of 1e-9 does not pay (the codec keeps the frame exact),
	// 1e-7 does.
	c.Compress = codec.Spec{Mode: codec.CompressLossy, ErrorBound: 1e-7}
	first, err := c.ChaosCampaign(acceptanceSpec(LinReg))
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.ChaosCampaign(acceptanceSpec(LinReg))
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]ChaosReport{"first": first, "second": second} {
		if got := rep.Environment["compression"]; got != "lossy(eps=1e-07)" {
			t.Fatalf("%s report compression = %q", name, got)
		}
		run := rep.Runs[0]
		if !run.Survived || run.Restores == 0 {
			t.Fatalf("%s lossy run did not survive a restore: %+v", name, run)
		}
		if run.Verified {
			t.Fatalf("%s lossy run passed bitwise verification — restore did not roll back to the quantized checkpoint", name)
		}
	}
	a, b := first.Runs[0], second.Runs[0]
	a.DurationMS, b.DurationMS = 0, 0
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("lossy campaign not reproducible:\n%s\n%s", aj, bj)
	}
}

// TestChaosReportJSON pins the report's wire shape.
func TestChaosReportJSON(t *testing.T) {
	rep := ChaosReport{App: "LinReg", Places: 4, Mode: "shrink", Schedule: "kill(point=step)", Total: 1}
	rep.Runs = []ChaosRun{{Seed: 7, Survived: true, Verified: true, Signature: "0@step:p2"}}
	var buf bytes.Buffer
	if err := WriteChaosReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back ChaosReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Runs[0].Seed != 7 || back.App != "LinReg" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
