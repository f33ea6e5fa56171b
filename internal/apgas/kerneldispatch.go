package apgas

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/codec"
)

// The registered-kernel data plane. Closures cannot cross process
// boundaries, so task bodies that should execute inside a worker process
// are expressed as registered kernels (internal/apgas/kernel): named pure
// functions over a task descriptor and a per-place data store. A Ctx
// dispatches them with ExecKernel; on a backend with a distributed data
// plane (transport/tcp) the kernel runs inside the place's worker
// process, and on any other backend — or whenever the remote side fails
// mid-dispatch — it runs at the coordinator against an equivalent store,
// which the kernel purity contract makes bit-identical.
//
// ExecKernel deliberately performs NO hop/NetModel accounting: the call
// sites that adopt it (dist.MultVec, DupVector.Sync, snapshot replica
// puts) already charge their logical traffic exactly as the closure path
// does, so apgas-level counters — and with them chaos fingerprints and
// cross-backend NetModel invariance — are unchanged by where the kernel
// physically ran. Only transport-level wire counters may differ.

// RegisterKernel registers a named kernel in the process-global registry
// (see kernel.Register). Call it from package init so the re-exec'd
// worker binary resolves the same names the coordinator dispatches.
func RegisterKernel(name string, fn kernel.Func) { kernel.Register(name, fn) }

// mirrorKey identifies one store entry in the coordinator's per-place
// shipped-version mirror.
type mirrorKey struct {
	handle uint64
	key    int64
}

// kernDispatch is the runtime's dispatch state: the transport's executor
// capability (nil without a distributed data plane), a per-place mirror
// of which entry versions have been shipped to each worker body (so an
// unchanged matrix block crosses the wire once, not once per iteration),
// per-place coordinator-resident stores for place zero and for fallback
// execution, and the destroyed handles each worker body has yet to be
// told to drop.
type kernDispatch struct {
	ex transport.Executor

	mu     sync.Mutex
	mirror map[int]map[mirrorKey]uint64
	stores map[int]*kernel.Store
	drops  map[int][]uint64
}

func (k *kernDispatch) init(ex transport.Executor) {
	k.ex = ex
	k.mirror = make(map[int]map[mirrorKey]uint64)
	k.stores = make(map[int]*kernel.Store)
	k.drops = make(map[int][]uint64)
}

// shipped reports whether place's worker body is known to hold
// (handle, key) at exactly ver.
func (k *kernDispatch) shipped(place int, handle uint64, key int64, ver uint64) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok := k.mirror[place][mirrorKey{handle, key}]
	return ok && v == ver
}

// commit records that the blobs have landed in place's worker body (its
// executor applied them before answering, so a successful Exec is the
// acknowledgement).
func (k *kernDispatch) commit(place int, puts []kernel.Blob) {
	if len(puts) == 0 {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	m := k.mirror[place]
	if m == nil {
		m = make(map[mirrorKey]uint64)
		k.mirror[place] = m
	}
	for _, b := range puts {
		m[mirrorKey{b.Handle, b.Key}] = b.Ver
	}
}

// store returns place's coordinator-resident kernel store, creating it
// on first use.
func (k *kernDispatch) store(place int) *kernel.Store {
	k.mu.Lock()
	defer k.mu.Unlock()
	s := k.stores[place]
	if s == nil {
		s = kernel.NewStore()
		k.stores[place] = s
	}
	return s
}

// placeDead drops everything known about a dead place: its worker body's
// cache is gone with the process, and the place's coordinator store dies
// with the place exactly as its apgas store does.
func (k *kernDispatch) placeDead(place int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.mirror, place)
	delete(k.stores, place)
	delete(k.drops, place)
}

// dropHandle forgets a destroyed handle at every place of g: its entries
// leave the coordinator-resident stores and the mirror at once, and each
// worker body the mirror says holds some is told on the next task
// dispatched to it (takeDrops). Without this every Remake would leave a
// dead generation of blocks, and every superseded checkpoint its replica,
// in memory on both sides for the rest of the run.
func (k *kernDispatch) dropHandle(handle uint64, g PlaceGroup) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.stores) == 0 && len(k.mirror) == 0 {
		return // no kernel ever ran: nothing holds anything
	}
	for _, p := range g {
		if st := k.stores[p.ID]; st != nil {
			st.Drop(handle)
		}
		shipped := false
		for mk := range k.mirror[p.ID] {
			if mk.handle == handle {
				delete(k.mirror[p.ID], mk)
				shipped = true
			}
		}
		if shipped {
			k.drops[p.ID] = append(k.drops[p.ID], handle)
		}
	}
}

// takeDrops hands over the handles place's worker body has yet to drop.
func (k *kernDispatch) takeDrops(place int) []uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	d := k.drops[place]
	delete(k.drops, place)
	return d
}

// KernelDispatch reports whether the runtime's backend executes
// registered kernels inside worker processes. Call sites use it to keep
// the plain-closure path — zero encode overhead, bit-identical by
// construction — on backends without a data plane.
func (c *Ctx) KernelDispatch() bool { return c.rt.kern.ex != nil }

// WorkerBody reports whether the task's own place is embodied by a worker
// process that executes kernels: a data-plane backend, and not place
// zero, which is the coordinator itself. Cache warms (forced puts that
// only pre-install bytes in a worker's store) are pointless without one.
func (c *Ctx) WorkerBody() bool { return c.rt.kern.ex != nil && c.Here.ID != 0 }

// ExecKernel runs registered kernel task t at the task's current place,
// resolving inputs into task refs and shipping only the blobs the
// executing store does not already hold at the declared version. Puts
// already present on t are unconditional installs: they ship (and apply)
// regardless of what the mirror believes, which is how call sites push
// content that changed under an unchanged version (DupVector.Sync
// republishes the root value without bumping it). On a
// data-plane backend the kernel runs inside the place's worker process;
// on any other backend, at place zero, or when the remote dispatch fails
// for any reason (worker death, broken wire, kernel-level error), it
// executes at the coordinator against an equivalent per-place store, where
// an input that carries its live object (Input.Obj) is installed by
// reference and never encoded. The error return is therefore rare: it
// means even coordinator-resident execution failed, and callers should
// fall back to their closure path.
//
// Buffers: the dispatcher owns what Input.Encode returns and recycles it
// once the remote dispatch has returned; forced puts stay the caller's.
// The returned Result may be pool-backed — call its Release when done
// with the bytes (optional).
//
// Like every Ctx operation it throws DeadPlaceError when the place has
// died; unlike At/Transfer it charges no hops or bytes — its call sites
// keep their existing logical accounting, so NetModel numbers and chaos
// fingerprints are invariant to where the kernel ran.
func (c *Ctx) ExecKernel(t *kernel.Task, inputs ...kernel.Input) (*kernel.Result, error) {
	rt := c.rt
	rt.placeState(c.Here).checkAlive()
	place := c.Here.ID
	t.Place = int32(place)
	t.Refs = make([]kernel.Ref, len(inputs))
	for i, in := range inputs {
		t.Refs[i] = kernel.Ref{Handle: in.Handle, Key: in.Key, Ver: in.Ver}
	}
	k := &rt.kern
	forced := t.Puts

	// Remote leg: place zero IS the coordinator, so only non-zero places
	// have a worker body to dispatch into.
	if k.ex != nil && place != 0 {
		t.Drops = k.takeDrops(place)
		for _, in := range inputs {
			if !k.shipped(place, in.Handle, in.Key, in.Ver) {
				t.Puts = append(t.Puts, kernel.Blob{Handle: in.Handle, Key: in.Key, Ver: in.Ver, Data: in.Encode()})
			}
		}
		res, err := k.ex.Exec(t)
		// Exec borrows the blobs only until it returns, so the ones encoded
		// for this dispatch go back to the pool now.
		shipped := t.Puts
		t.Puts, t.Drops = forced, nil
		for _, b := range shipped[len(forced):] {
			codec.PutBuffer(b.Data)
		}
		if err == nil && res != nil && res.Err == "" {
			k.commit(place, shipped)
			rt.stats.WorkerTasks.Add(1)
			rt.instr.workerExec.Inc()
			return res, nil
		}
		// Any remote failure — transport or kernel-level — degrades to
		// coordinator execution. Kernels are pure, so the re-execution is
		// equivalent; the detector handles the death independently.
		if res != nil {
			res.Release()
		}
		rt.instr.kernelFallback.Inc()
		rt.cfg.Obs.Trace("apgas.kernel.fallback", int64(place), 0)
	}

	// Coordinator-resident leg. Forced puts are left on t (as copies) for
	// kernel.Run to apply. An input that carries its live object installs by
	// reference, every time (a map write; the object may have been swapped
	// under an unchanged version); the rest install their encoded bytes
	// when the store lacks the version.
	st := k.store(place)
	if len(forced) > 0 {
		// Forced puts stay the caller's memory (a pooled buffer it is about
		// to recycle); the store must not alias it.
		t.Puts = make([]kernel.Blob, len(forced))
		for i, b := range forced {
			b.Data = bytes.Clone(b.Data)
			t.Puts[i] = b
		}
	}
	for _, in := range inputs {
		if in.Obj != nil {
			st.PutObj(in.Handle, in.Key, in.Ver, in.Obj)
		} else if !st.Holds(in.Handle, in.Key, in.Ver) {
			st.Put(in.Handle, in.Key, in.Ver, in.Encode())
		}
	}
	res := kernel.Run(&kernel.Exec{Place: place, Store: st}, t)
	if res.Err != "" {
		return nil, fmt.Errorf("apgas: kernel %q at place %d: %s", t.Name, place, res.Err)
	}
	rt.instr.kernelLocal.Inc()
	return res, nil
}
