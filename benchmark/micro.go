package main

import (
	"fmt"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/dist"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/par"
)

// The direct-call layer benchmarks: each layer's public functions at one
// fixed shape, taken from the workloads (the dense block of the LogReg
// workloads, the sparse block of pagerank_recover_tcp, the place counts
// of the local workloads). Operation and byte counts are computed from
// the sizes, not measured.

// microSpec sets the measuring protocol: the median over Batches timed
// batches, each repeating the operation for at least BatchMS.
type microSpec struct {
	Batches int
	BatchMS int
}

var (
	// fullMicro is the protocol of -micro and of a full set.
	fullMicro = microSpec{Batches: 11, BatchMS: 100}
	// quickMicro rides along with a single workload's traced run, where
	// the whole invocation has to stay inside the driver's time budget.
	quickMicro = microSpec{Batches: 5, BatchMS: 20}
)

const noopKernel = "bench.noop"

func init() {
	// Registered at init so the re-executed worker binary resolves it too.
	apgas.RegisterKernel(noopKernel, func(*kernel.Exec, *kernel.Task) (*kernel.Result, error) {
		return &kernel.Result{}, nil
	})
}

// seconds returns the median time of one op, in seconds.
func (s microSpec) seconds(op func()) float64 {
	batch := time.Duration(s.BatchMS) * time.Millisecond
	op() // warms caches and pools
	t0 := time.Now()
	op() // sizes the batches
	per := time.Since(t0)
	reps := 1
	if per < batch {
		reps = int(batch/(per+1)) + 1
	}
	var samples []float64
	for b := 0; b < s.Batches; b++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			op()
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(reps))
	}
	return median(samples)
}

func microInChild(spec microSpec) (map[string]float64, error) {
	m := map[string]float64{}
	return m, runTask("micro", spec, &m)
}

func runMicroOnly() error {
	m, err := microInChild(fullMicro)
	if err != nil {
		return err
	}
	printLayer("micro (direct calls)", microLayer, m)
	return nil
}

// runMicro runs every direct-call benchmark in this process.
func runMicro(spec microSpec) (map[string]float64, error) {
	m := map[string]float64{}
	for _, group := range []func(microSpec, map[string]float64) error{
		microLA, microDist, microApgas, microCodec, microSnapshot, microTCP,
	} {
		if err := group(spec, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func fill(v la.Vector, rng *la.RNG) {
	for i := range v {
		v[i] = rng.Float64()
	}
}

func microLA(spec microSpec, m map[string]float64) error {
	const rows, cols = 20000, 128
	rng := la.NewRNG(1)
	a := la.NewDense(rows, cols)
	fill(a.Data, rng)
	x, y := la.NewVector(cols), la.NewVector(rows)
	fill(x, rng)
	fill(y, rng)
	flops := 2.0 * rows * cols

	par.SetWorkers(2)
	m["la.gemv_gflops"] = flops / spec.seconds(func() { a.MultVec(x, y) }) / 1e9
	m["la.tgemv_gflops"] = flops / spec.seconds(func() { a.TransMultVec(y, x) }) / 1e9
	par.SetWorkers(1)
	m["la.gemv_serial_gflops"] = flops / spec.seconds(func() { a.MultVec(x, y) }) / 1e9
	par.SetWorkers(2)

	const srows, scols, deg = 90000, 30000, 16
	ts := make([]la.Triplet, 0, scols*deg)
	for j := 0; j < scols; j++ {
		for k := 0; k < deg; k++ {
			ts = append(ts, la.Triplet{Row: rng.Intn(srows), Col: j, Val: 1.0 / deg})
		}
	}
	sp := la.NewSparseCSCFromTriplets(srows, scols, ts)
	sx, sy := la.NewVector(scols), la.NewVector(srows)
	fill(sx, rng)
	m["la.spmv_gflops"] = 2 * float64(sp.NNZ()) / spec.seconds(func() { sp.MultVec(sx, sy) }) / 1e9

	const n = 1 << 20
	v, w := la.NewVector(n), la.NewVector(n)
	fill(w, rng)
	m["la.axpy_gb_per_s"] = 24.0 * n / spec.seconds(func() { v.Axpy(1e-9, w) }) / 1e9

	m["par.for_overhead_us"] = 1e6 * spec.seconds(func() { par.For(64, 1, func(lo, hi int) {}) })
	return nil
}

func microDist(spec microSpec, m map[string]float64) error {
	rt, err := apgas.New(apgas.WithPlaces(8), apgas.WithResilient(true), apgas.WithKernelWorkers(2))
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	world := rt.World()
	four := world[:4]
	const rows, cols = 4 * 20000, 128
	x, err := dist.MakeDistBlockMatrix(rt, block.Dense, rows, cols, 4, 1, 4, 1, four)
	if err != nil {
		return err
	}
	if err := x.InitDense(func(i, j int) float64 { return float64((i*31+j*17)%97) / 97 }); err != nil {
		return err
	}
	w, err := dist.MakeDupVector(rt, cols, four)
	if err != nil {
		return err
	}
	if err := w.Init(func(i int) float64 { return 1 / float64(i+1) }); err != nil {
		return err
	}
	s, err := dist.MakeDistVector(rt, rows, four)
	if err != nil {
		return err
	}
	var opErr error
	keep := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	m["dist.multvec_ms"] = 1e3 * spec.seconds(func() { keep(x.MultVec(w, s)) })
	m["dist.transmultvec_ms"] = 1e3 * spec.seconds(func() { keep(x.TransMultVec(s, w)) })
	m["dist.dot_us"] = 1e6 * spec.seconds(func() { _, err := w.Dot(w); keep(err) })

	const n = 16000
	p, err := dist.MakeDupVector(rt, n, world)
	if err != nil {
		return err
	}
	gp, err := dist.MakeDistVector(rt, n, world)
	if err != nil {
		return err
	}
	m["dist.sync_us"] = 1e6 * spec.seconds(func() { keep(p.Sync()) })
	m["dist.gather_us"] = 1e6 * spec.seconds(func() { keep(gp.GatherTo(p)) })
	return opErr
}

func microApgas(spec microSpec, m map[string]float64) error {
	fanout := func(resilient bool, tasksPerPlace int) (float64, error) {
		rt, err := apgas.New(apgas.WithPlaces(8), apgas.WithResilient(resilient))
		if err != nil {
			return 0, err
		}
		defer rt.Shutdown()
		world := rt.World()
		var opErr error
		sec := spec.seconds(func() {
			err := rt.Finish(func(ctx *apgas.Ctx) {
				for i := 0; i < tasksPerPlace; i++ {
					for _, p := range world {
						ctx.AsyncAt(p, func(*apgas.Ctx) {})
					}
				}
			})
			if err != nil {
				opErr = err
			}
		})
		return sec, opErr
	}
	res, err := fanout(true, 1)
	if err != nil {
		return err
	}
	nonres, err := fanout(false, 1)
	if err != nil {
		return err
	}
	big, err := fanout(true, 8) // 64 tasks per finish
	if err != nil {
		return err
	}
	m["apgas.finish_fanout_us"] = 1e6 * res
	m["apgas.finish_fanout_nonres_us"] = 1e6 * nonres
	m["apgas.forkjoin_tasks_per_s"] = 64 / big
	return nil
}

func microCodec(spec microSpec, m map[string]float64) error {
	const n = 2 << 20 // 16 MB of float64
	rng := la.NewRNG(2)
	vs := make([]float64, n)
	fill(vs, rng)
	mb := 8.0 * n / 1e6
	size := codec.SizeFloat64s(n)

	var frame []byte
	m["codec.encode_mb_per_s"] = mb / spec.seconds(func() {
		codec.PutBuffer(frame)
		e := codec.NewEncoder(size)
		e.PutFloat64s(vs)
		frame = e.Bytes()
	})
	dst := make([]float64, n)
	var opErr error
	m["codec.decode_mb_per_s"] = mb / spec.seconds(func() {
		if _, _, err := codec.Float64sInto(dst, frame); err != nil {
			opErr = err
		}
	})
	comp, err := codec.NewCompressor(codec.Spec{Mode: codec.CompressLossless})
	if err != nil {
		return err
	}
	var packed []byte
	m["codec.lossless_encode_mb_per_s"] = mb / spec.seconds(func() {
		codec.PutBuffer(packed)
		e := codec.NewEncoderC(size, comp)
		e.PutFloat64s(vs)
		packed = e.Bytes()
	})
	m["codec.lossless_ratio"] = float64(len(packed)) / float64(len(frame))
	return opErr
}

func microSnapshot(spec microSpec, m map[string]float64) error {
	rt, err := apgas.New(apgas.WithPlaces(4), apgas.WithResilient(true), apgas.WithKernelWorkers(2))
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	const rows, cols = 4 * 16384, 128 // 64 MB
	x, err := dist.MakeDistBlockMatrix(rt, block.Dense, rows, cols, 4, 1, 4, 1, rt.World())
	if err != nil {
		return err
	}
	if err := x.InitDense(func(i, j int) float64 { return float64((i*13+j*7)%101) / 101 }); err != nil {
		return err
	}
	mb := 8.0 * rows * cols / 1e6
	snap, err := x.MakeSnapshot()
	if err != nil {
		return err
	}
	var opErr error
	m["snapshot.save_mb_per_s"] = mb / spec.seconds(func() {
		// One live snapshot at a time, as under the executor: destroying
		// the previous one is what recycles its buffers into the next.
		snap.Destroy()
		if snap, err = x.MakeSnapshot(); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return opErr
	}
	m["snapshot.load_mb_per_s"] = mb / spec.seconds(func() {
		if err := x.RestoreSnapshot(snap); err != nil {
			opErr = err
		}
	})
	return opErr
}

func microTCP(spec microSpec, m map[string]float64) error {
	reg := obs.NewRegistry()
	tp := newTCP(1, reg)
	rt, err := apgas.New(apgas.WithPlaces(2), apgas.WithResilient(true), apgas.WithTransport(tp), apgas.WithObs(reg))
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	worker := rt.Place(1)
	wire := reg.Counter("transport.tcp.wire_bytes")

	const blob = 8 << 20
	data := make([]byte, blob)
	var opErr error
	var ver uint64
	var putBytes, putWire float64
	// All dispatches happen inside one task at the worker's place, so the
	// timings hold the kernel round trip and nothing of finish or At.
	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(worker, func(c *apgas.Ctx) {
			exec := func(t *kernel.Task) {
				if _, err := c.ExecKernel(t); err != nil {
					opErr = err
				}
			}
			rtt := spec.seconds(func() { exec(&kernel.Task{Name: noopKernel}) })
			m["tcp.task_rtt_us"] = 1e6 * rtt
			m["tcp.tasks_per_s"] = 1 / rtt
			before := wire.Value()
			m["tcp.put_mb_per_s"] = blob / 1e6 / spec.seconds(func() {
				ver++
				putBytes += blob
				exec(&kernel.Task{Name: kernel.PutName, Puts: []kernel.Blob{{Handle: 1 << 40, Key: 0, Ver: ver, Data: data}}})
			})
			putWire = float64(wire.Value() - before)
		})
	})
	if err != nil {
		return err
	}
	if opErr != nil {
		return opErr
	}
	if rt.Stats().WorkerTasks == 0 || reg.CounterValue("apgas.tasks.kernel_fallback") != 0 {
		return fmt.Errorf("tcp micro: kernels did not run in the worker process")
	}
	m["tcp.frame_overhead_ratio"] = putWire / putBytes
	m["tcp.send_rtt_us"] = 1e6 * spec.seconds(func() {
		if _, err := tp.Send(0, worker.ID, transport.ClassData, 0, nil); err != nil {
			opErr = err
		}
	})
	return opErr
}
