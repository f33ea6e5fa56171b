package apgas

// StatsSnapshot is a point-in-time copy of the runtime's activity
// counters. They power the benchmark harness's reporting (e.g. isolating
// how much of the resilient overhead is ledger traffic) and the ablation
// benches.
type StatsSnapshot struct {
	// Messages counts place-crossing messages (task spawns, at-hops,
	// ledger events, data transfers).
	Messages int64
	// Bytes counts payload bytes declared to Ctx.Transfer.
	Bytes int64
	// LedgerEvents counts bookkeeping events processed by the resilient
	// finish ledger.
	LedgerEvents int64
	// TasksSpawned counts AsyncAt invocations.
	TasksSpawned int64
	// PlacesKilled counts injected failures.
	PlacesKilled int64
	// PlacesFailed counts real failures reported by the transport's
	// failure detector (heartbeat timeout, connection loss) — always zero
	// on the local backend, where no external bodies exist.
	PlacesFailed int64
	// PlacesAdded counts elastically created places.
	PlacesAdded int64
	// RefusedForks counts forks refused because the target place was
	// already dead (answered with DeadPlaceError without becoming live).
	RefusedForks int64
	// LocalTasks counts tasks that rode the sharded local fast path:
	// spawned at their finish's home place and tracked by the finish's
	// local counter instead of ledger events.
	LocalTasks int64
	// WorkerTasks counts registered-kernel tasks that executed inside a
	// worker process body (distributed data plane) rather than at the
	// coordinator — always zero on the local backend.
	WorkerTasks int64
}

// Stats returns a snapshot of the runtime's activity counters, read from
// the observability counters that record the same events.
func (rt *Runtime) Stats() StatsSnapshot {
	in := &rt.instr
	return StatsSnapshot{
		Messages:     in.messages.Value(),
		Bytes:        in.bytes.Value(),
		LedgerEvents: in.ledgerEvents.Value(),
		TasksSpawned: in.tasks.Value(),
		PlacesKilled: in.kills.Value(),
		PlacesFailed: in.failures.Value(),
		PlacesAdded:  in.placesAdded.Value(),
		RefusedForks: in.refusedForks.Value(),
		LocalTasks:   in.ledgerLocal.Value(),
		WorkerTasks:  in.workerExec.Value(),
	}
}

// Sub returns the delta s - prev, for measuring an interval.
func (s StatsSnapshot) Sub(prev StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Messages:     s.Messages - prev.Messages,
		Bytes:        s.Bytes - prev.Bytes,
		LedgerEvents: s.LedgerEvents - prev.LedgerEvents,
		TasksSpawned: s.TasksSpawned - prev.TasksSpawned,
		PlacesKilled: s.PlacesKilled - prev.PlacesKilled,
		PlacesFailed: s.PlacesFailed - prev.PlacesFailed,
		PlacesAdded:  s.PlacesAdded - prev.PlacesAdded,
		RefusedForks: s.RefusedForks - prev.RefusedForks,
		LocalTasks:   s.LocalTasks - prev.LocalTasks,
		WorkerTasks:  s.WorkerTasks - prev.WorkerTasks,
	}
}
