package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// runCompare prints, for every workload and end-to-end metric of two
// result sets, both medians with their quartiles, the ratio B/A, the
// metric's bound and a verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	regressed   it is worse by more than the bound, and the spread of
//	            either side is inside the bound (so the gap is not noise)
//	unresolved  it is worse by more than the bound, but a side's own
//	            quartile spread is wider than the bound
//
// It fails on any regressed metric and when B failed a larger share of
// its operations than A. The exact-count per-layer metrics present in
// both sets are listed when they differ.
func runCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: -compare A.json B.json")
	}
	a, err := readSet(args[0])
	if err != nil {
		return err
	}
	b, err := readSet(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("A = %s (seed %d, %v)\nB = %s (seed %d, %v)\n", args[0], a.Seed, a.Env["git_commit"], args[1], b.Seed, b.Env["git_commit"])
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	regressed := 0
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		fmt.Printf("\n%s\n  %-14s %-4s %30s %30s %14s %6s  %s\n", name, "metric", "unit",
			"A median [q1, q3]", "B median [q1, q3]", "B/A", "bound", "verdict")
		for _, d := range endToEnd {
			sa, oka := wa.EndToEnd[d.Name]
			sb, okb := wb.EndToEnd[d.Name]
			if !oka || !okb || sa.Median == 0 {
				continue
			}
			r := sb.Median / sa.Median
			v := verdict(d, sa, sb)
			if v == "regressed" {
				regressed++
			}
			fmt.Printf("  %-14s %-4s %30s %30s %6.3f (A=%.4g) %6.2f  %s\n", d.Name, d.Unit, fmtSummary(sa), fmtSummary(sb), r, sa.Median, d.Bound, v)
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		v := "ok"
		if fb > fa {
			v = "regressed"
			regressed++
		}
		fmt.Printf("  %-14s %-4s %30s %30s %28s  %s\n", "ops_failed", "",
			fmt.Sprintf("%d of %d", wa.Failed, wa.Attempted), fmt.Sprintf("%d of %d", wb.Failed, wb.Attempted), "", v)
		for _, name := range exactCounts {
			va, oka := wa.PerLayer[name]
			vb, okb := wb.PerLayer[name]
			if oka && okb && va != vb {
				fmt.Printf("  %-34s A=%.6g B=%.6g (exact count differs)\n", name, va, vb)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}

// exactCounts are the per-layer metrics that count program events and
// repeat exactly from run to run of one commit on one seed. (The tcp
// byte and frame counts are not among them: they include heartbeats.)
var exactCounts = []string{
	"core.replayed_steps", "core.restore_attempts",
	"apgas.tasks_per_iter", "apgas.messages_per_iter",
	"kernel.worker_tasks_per_iter", "kernel.local_tasks_per_iter", "kernel.fallback_tasks",
	"snapshot.save_bytes_per_ckpt", "snapshot.replica_bytes_per_ckpt",
}

func verdict(d metricDef, a, b summary) string {
	worse := b.Median/a.Median - 1
	if d.Better == "higher" {
		worse = a.Median/b.Median - 1
	}
	if worse <= d.Bound {
		return "ok"
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		return "unresolved"
	}
	return "regressed"
}

// spread is the quartile distance as a share of the median.
func spread(s summary) float64 { return ratio(s.Q3-s.Q1, s.Median) }

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := new(resultSet)
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}
