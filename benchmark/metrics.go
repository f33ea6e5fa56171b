package main

// metricDef is one row of the benchmark's metric catalogue; BENCHMARK.json
// lists the same names, units, directions and bounds, and the test keeps
// the two identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated relative worsening of the median
	What   string
}

// endToEnd are the metrics a user of the framework sees. The time bounds
// are the contract's maximum: on the shared 2-core reference host whole
// minutes run 30-60 % slower than others (README, calibration), and the
// quartile spread over ten seeds reaches 0.15-0.24 on every time metric.
// A bound below the noise would gate on the neighbours, not on the code.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "process start to first measured step: runtime and worker start, data generation, first checkpoint, warm-up"},
	{"run_s", "s", "lower", 0.25, "wall clock of Executor.Run for the fixed iteration count, with checkpoints, recoveries and replay"},
	{"iter_ms", "ms", "lower", 0.25, "median duration of one successful Step at the IterativeApp seam"},
	{"ckpt_ms", "ms", "lower", 0.25, "median duration of one steady-state Checkpoint including commit"},
	{"restore_ms", "ms", "lower", 0.25, "median, over injected failures, of kill to the end of the successful Restore"},
	{"live_heap_mb", "MB", "lower", 0.10, "coordinator HeapInuse after a forced GC at the end of the run"},
}

// tracedLayer are the per-layer metrics of the traced repetition, named
// after the module they measure.
var tracedLayer = []metricDef{
	{"core.step_share", "1", "higher", 0, "share of run_s inside successful Step calls"},
	{"core.ckpt_share", "1", "lower", 0, "share of run_s inside Checkpoint calls"},
	{"core.restore_share", "1", "lower", 0, "share of run_s between a kill and the end of its Restore"},
	{"core.unaccounted_share", "1", "lower", 0, "share of run_s in none of the three (executor bookkeeping)"},
	{"core.iter_p95_ms", "ms", "lower", 0, "95th percentile Step duration"},
	{"core.ckpt_first_ms", "ms", "lower", 0, "first checkpoint (ships the read-only inputs); part of setup_s"},
	{"core.recover_plan_ms", "ms", "lower", 0, "median kill to Restore entered: detection, failed step, group planning"},
	{"core.recover_apply_ms", "ms", "lower", 0, "median duration of the successful Restore call"},
	{"core.replayed_steps", "count", "lower", 0, "iterations re-executed after rollbacks (exact)"},
	{"core.restore_attempts", "count", "lower", 0, "Restore attempts (exact; equals kills when none is retried)"},
	{"apps.nonres_iter_ms", "ms", "lower", 0, "median Step of the non-resilient variant on a non-resilient runtime, same problem"},
	{"apps.resil_overhead_pct", "%", "lower", 0, "untraced iter_ms over apps.nonres_iter_ms, minus one"},
	{"apgas.tasks_per_iter", "count", "lower", 0, "tasks spawned per iteration (exact)"},
	{"apgas.ledger_events_per_iter", "count", "lower", 0, "resilient-finish bookkeeping events per iteration"},
	{"apgas.messages_per_iter", "count", "lower", 0, "place-crossing messages per iteration"},
	{"apgas.finishes_per_iter", "count", "lower", 0, "finish scopes per iteration"},
	{"apgas.finish_ms_per_iter", "ms", "lower", 0, "summed finish durations per iteration (nested scopes count twice)"},
	{"la.kernel_ms_per_iter", "ms", "lower", 0, "summed dense-kernel durations per iteration, over all coordinator-resident places"},
	{"la.kernel_calls_per_iter", "count", "lower", 0, "dense kernel calls per iteration"},
	{"par.parallel_runs_per_iter", "count", "lower", 0, "par regions that enlisted pool workers, per iteration"},
	{"par.chunks_per_iter", "count", "lower", 0, "par chunks executed per iteration"},
	{"kernel.worker_tasks_per_iter", "count", "higher", 0, "registered kernels executed inside worker processes, per iteration"},
	{"kernel.local_tasks_per_iter", "count", "lower", 0, "registered kernels executed at the coordinator, per iteration"},
	{"kernel.fallback_tasks", "count", "lower", 0, "remote dispatches that degraded to coordinator execution (whole process)"},
	{"transport.sends_per_iter", "count", "lower", 0, "Transport.Send calls per iteration"},
	{"transport.send_ms_per_iter", "ms", "lower", 0, "summed Send durations per iteration"},
	{"transport.exec_ms_per_iter", "ms", "lower", 0, "summed Executor.Exec round trips per iteration"},
	{"transport.exec_p50_us", "us", "lower", 0, "median Exec round trip inside steps"},
	{"tcp.wire_bytes_per_iter", "B", "lower", 0, "bytes on the sockets per iteration, both directions"},
	{"tcp.logical_bytes_per_iter", "B", "lower", 0, "declared payload bytes of DATA frames per iteration"},
	{"tcp.frames_per_iter", "count", "lower", 0, "frames per iteration"},
	{"tcp.wire_bytes_per_ckpt", "B", "lower", 0, "bytes on the sockets per checkpoint"},
	{"tcp.spawn_ms", "ms", "lower", 0, "runtime construction per worker process: spawn, dial, handshake"},
	{"tcp.detect_ms", "ms", "lower", 0, "median SIGKILL to the runtime seeing the place dead"},
	{"tcp.spurious_deaths", "count", "lower", 0, "deaths the detector reported that no kill caused"},
	{"snapshot.save_bytes_per_ckpt", "B", "lower", 0, "bytes saved into the store per checkpoint (exact)"},
	{"snapshot.replica_bytes_per_ckpt", "B", "lower", 0, "replica bytes placed per checkpoint"},
	{"snapshot.ckpt_mb_per_s", "MB/s", "higher", 0, "saved bytes over checkpoint time"},
	{"snapshot.pool_hit_ratio", "1", "higher", 0, "snapshot buffer pool hits over hits+misses"},
	{"snapshot.load_bytes_per_restore", "B", "lower", 0, "bytes loaded from the store per recovery"},
	{"dist.remakes_per_restore", "count", "lower", 0, "DistBlockMatrix remakes per recovery"},
	{"proc.peak_rss_mb", "MB", "lower", 0, "peak resident set, coordinator or any reaped worker"},
	{"trace.overhead_pct", "%", "lower", 0, "traced over untraced iter_ms, minus one"},
}

// microLayer are the per-layer metrics taken by calling each layer's
// public functions directly at one fixed shape (micro.go).
var microLayer = []metricDef{
	{"la.gemv_gflops", "GFLOP/s", "higher", 0, "DenseMatrix.MultVec 20000x128, 2 kernel workers (flops computed)"},
	{"la.gemv_serial_gflops", "GFLOP/s", "higher", 0, "the same with 1 kernel worker: the single-threaded baseline"},
	{"la.tgemv_gflops", "GFLOP/s", "higher", 0, "DenseMatrix.TransMultVec 20000x128"},
	{"la.spmv_gflops", "GFLOP/s", "higher", 0, "SparseCSC.MultVec 90000x30000, 16 nnz per column"},
	{"la.axpy_gb_per_s", "GB/s", "higher", 0, "Vector.Axpy over 1M elements (24 B per element computed)"},
	{"par.for_overhead_us", "us", "lower", 0, "par.For with an empty body over 64 chunks"},
	{"dist.multvec_ms", "ms", "lower", 0, "DistBlockMatrix.MultVec, 4 local places, 20000x128 per place"},
	{"dist.transmultvec_ms", "ms", "lower", 0, "DistBlockMatrix.TransMultVec, same shape"},
	{"dist.dot_us", "us", "lower", 0, "DupVector.Dot, 128 elements, 4 places"},
	{"dist.sync_us", "us", "lower", 0, "DupVector.Sync, 16000 elements, 8 places"},
	{"dist.gather_us", "us", "lower", 0, "DistVector.GatherTo, 16000 elements, 8 places"},
	{"apgas.finish_fanout_us", "us", "lower", 0, "one resilient finish with an empty AsyncAt per place, 8 places"},
	{"apgas.finish_fanout_nonres_us", "us", "lower", 0, "the same on a non-resilient runtime"},
	{"apgas.forkjoin_tasks_per_s", "1/s", "higher", 0, "tasks through resilient finishes of 64 AsyncAt each"},
	{"codec.encode_mb_per_s", "MB/s", "higher", 0, "Encoder.PutFloat64s of a 16 MB frame, CRC included"},
	{"codec.decode_mb_per_s", "MB/s", "higher", 0, "Float64sInto of the same frame"},
	{"codec.lossless_encode_mb_per_s", "MB/s", "higher", 0, "the same frame through the lossless compressor"},
	{"codec.lossless_ratio", "1", "lower", 0, "compressed over raw size of that frame"},
	{"snapshot.save_mb_per_s", "MB/s", "higher", 0, "MakeSnapshot of a 64 MB dense DistBlockMatrix, 4 places, replicate k=2"},
	{"snapshot.load_mb_per_s", "MB/s", "higher", 0, "RestoreSnapshot of the same"},
	{"tcp.task_rtt_us", "us", "lower", 0, "ExecKernel of a no-op kernel in a worker process, one in flight"},
	{"tcp.tasks_per_s", "1/s", "higher", 0, "no-op kernels per second, one in flight"},
	{"tcp.put_mb_per_s", "MB/s", "higher", 0, "kernel.put of an 8 MB blob into a worker process"},
	{"tcp.frame_overhead_ratio", "1", "lower", 0, "wire bytes over payload bytes of those puts"},
	{"tcp.send_rtt_us", "us", "lower", 0, "Transport.Send of an empty DATA frame (write only; no reply exists)"},
}

// perLayer is every per-layer metric, traced then direct.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), tracedLayer...), microLayer...)
}
