package main

import (
	"github.com/rgml/rgml/internal/obs"
)

// The la kernels that have a duration histogram (the dense ones; sparse
// mat-vec is not instrumented, so la.kernel_* reads 0 on PageRank).
var laKernels = []string{"gemm", "gemv", "tgemv", "gram", "accum_tds", "accum_sdt"}

// layerProbes lists the existing internal/obs instruments the traced run
// reads at phase boundaries. Only names the layers already register are
// used; the benchmark adds no instrument to the program.
func layerProbes(reg *obs.Registry) []probe {
	var ps []probe
	for _, name := range []string{
		"apgas.tasks.spawned", "apgas.ledger.events", "apgas.net.messages",
		"apgas.tasks.worker_executed", "apgas.tasks.kernel_local",
		"par.runs.parallel", "par.chunks",
		"transport.tcp.wire_bytes", "transport.tcp.logical_bytes", "transport.tcp.frames",
		"snapshot.save.bytes", "snapshot.replicas.bytes",
		"snapshot.load.bytes", "dist.matrix.remakes",
	} {
		ps = append(ps, counterProbe(reg, name))
	}
	ps = append(ps, histProbes(reg, "apgas.finish.duration")...)
	for _, k := range laKernels {
		ps = append(ps, histProbes(reg, "la.kernel."+k)...)
	}
	return ps
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the traced run's per-layer metrics: phase spans
// from the seam, transport spans from the decorator, and instrument
// differences accumulated per phase kind. "per_iter" divides by the
// successful steps of the measured run, "per_ckpt" by its successful
// checkpoints, "per_restore" by its recoveries.
func layerMetrics(w workload, s *seam, measured []phase, tt *tracedTransport, reg *obs.Registry, r *repResult) map[string]float64 {
	m := make(map[string]float64)
	iters, ckpts, restores := float64(r.NIter), float64(r.NCkpt), float64(r.NRestore)

	m["core.step_share"] = r.StepShare
	m["core.ckpt_share"] = r.CkptShare
	m["core.restore_share"] = r.RestoreShare
	m["core.unaccounted_share"] = r.UnaccountedShare
	var plan, apply []float64
	m["core.iter_p95_ms"] = r.IterP95Ms
	for _, p := range s.phases {
		if p.kind == phCkpt {
			m["core.ckpt_first_ms"] = float64(p.end-p.start) / 1e6
			break
		}
	}
	recs, _ := s.recoveries()
	var detect []float64
	for i, rc := range recs {
		plan = append(plan, float64(rc.plan)/1e6)
		apply = append(apply, float64(rc.apply)/1e6)
		if w.Kill == killSIGKILL {
			detect = append(detect, float64(s.kills[i].detected)/1e6)
		}
	}
	m["core.recover_plan_ms"] = median(plan)
	m["core.recover_apply_ms"] = median(apply)
	m["core.replayed_steps"] = float64(r.Replayed)
	m["core.restore_attempts"] = float64(r.RestoreAttempts)

	step := func(name string) float64 { return s.accOf(phStep, name) }
	m["apgas.tasks_per_iter"] = ratio(step("apgas.tasks.spawned"), iters)
	m["apgas.ledger_events_per_iter"] = ratio(step("apgas.ledger.events"), iters)
	m["apgas.messages_per_iter"] = ratio(step("apgas.net.messages"), iters)
	m["apgas.finishes_per_iter"] = ratio(step("apgas.finish.duration.count"), iters)
	m["apgas.finish_ms_per_iter"] = ratio(step("apgas.finish.duration.ns")/1e6, iters)

	var kernelNS, kernelCalls float64
	for _, k := range laKernels {
		kernelNS += step("la.kernel." + k + ".ns")
		kernelCalls += step("la.kernel." + k + ".count")
	}
	m["la.kernel_ms_per_iter"] = ratio(kernelNS/1e6, iters)
	m["la.kernel_calls_per_iter"] = ratio(kernelCalls, iters)
	m["par.parallel_runs_per_iter"] = ratio(step("par.runs.parallel"), iters)
	m["par.chunks_per_iter"] = ratio(step("par.chunks"), iters)

	m["kernel.worker_tasks_per_iter"] = ratio(step("apgas.tasks.worker_executed"), iters)
	m["kernel.local_tasks_per_iter"] = ratio(step("apgas.tasks.kernel_local"), iters)
	m["kernel.fallback_tasks"] = float64(r.FallbackTasks)

	st := tt.within(measured, func(p phase) bool { return p.kind == phStep && p.ok })
	m["transport.sends_per_iter"] = ratio(float64(st.sends), iters)
	m["transport.send_ms_per_iter"] = ratio(float64(st.sendNS)/1e6, iters)
	m["transport.exec_ms_per_iter"] = ratio(float64(st.execNS)/1e6, iters)
	m["transport.exec_p50_us"] = float64(st.execP50NS) / 1e3

	m["tcp.wire_bytes_per_iter"] = ratio(step("transport.tcp.wire_bytes"), iters)
	m["tcp.logical_bytes_per_iter"] = ratio(step("transport.tcp.logical_bytes"), iters)
	m["tcp.frames_per_iter"] = ratio(step("transport.tcp.frames"), iters)
	m["tcp.wire_bytes_per_ckpt"] = ratio(s.accOf(phCkpt, "transport.tcp.wire_bytes"), ckpts)
	m["tcp.detect_ms"] = median(detect)
	m["tcp.spawn_ms"], m["tcp.spurious_deaths"] = 0, 0 // set by the caller on tcp

	saved := s.accOf(phCkpt, "snapshot.save.bytes")
	m["snapshot.save_bytes_per_ckpt"] = ratio(saved, ckpts)
	m["snapshot.replica_bytes_per_ckpt"] = ratio(s.accOf(phCkpt, "snapshot.replicas.bytes"), ckpts)
	m["snapshot.ckpt_mb_per_s"] = ratio(saved/1e6, r.CkptS)
	hits, misses := float64(reg.CounterValue("snapshot.pool.hits")), float64(reg.CounterValue("snapshot.pool.misses"))
	m["snapshot.pool_hit_ratio"] = ratio(hits, hits+misses)
	m["snapshot.load_bytes_per_restore"] = ratio(s.accOf(phRestore, "snapshot.load.bytes"), restores)
	m["dist.remakes_per_restore"] = ratio(s.accOf(phRestore, "dist.matrix.remakes"), restores)
	return m
}
