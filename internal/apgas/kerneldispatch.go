package apgas

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/codec"
)

// The registered-kernel data plane. Closures cannot cross process
// boundaries, so task bodies that should execute inside a worker process
// are expressed as registered kernels (internal/apgas/kernel): named pure
// functions over a task descriptor and a per-place data store. A Ctx
// dispatches them with ExecKernel, on every backend: where the place has a
// worker body (transport/tcp, places other than zero) the kernel runs
// inside that process on shipped bytes, and everywhere else it runs
// in-process on the live objects, by reference. The kernel purity contract
// makes the two bit-identical.
//
// ExecKernel deliberately counts NO hop in apgas.net.*: the call sites
// that adopt it (dist.MultVec, DupVector.Sync, snapshot replica puts)
// count their logical traffic themselves, so apgas-level counters — and
// with them chaos fingerprints and their cross-backend invariance — are
// unchanged by where the kernel physically ran. Only transport-level
// wire counters may differ.

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
// per-place stores for in-process execution, and the re-keys and
// destroyed handles each worker body has yet to be told about.
type kernDispatch struct {
	ex transport.Executor

	mu     sync.Mutex
	mirror map[int]map[mirrorKey]uint64
	stores map[int]*kernel.Store
	rekeys map[int][]kernel.Rekey
	drops  map[int][]uint64
}

func (k *kernDispatch) init(ex transport.Executor) {
	k.ex = ex
	k.mirror = make(map[int]map[mirrorKey]uint64)
	k.stores = make(map[int]*kernel.Store)
	k.rekeys = make(map[int][]kernel.Rekey)
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

// store returns place's in-process kernel store, creating it
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
// cache is gone with the process, and the place's in-process store dies
// with the place exactly as its apgas store does.
func (k *kernDispatch) placeDead(place int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.mirror, place)
	delete(k.stores, place)
	delete(k.rekeys, place)
	delete(k.drops, place)
}

// inherit hands place's worker-resident entries of handle from over to
// handle to, for every key of vers (key → the live object's version)
// that the mirror records at exactly that version: the object survived
// a Remake at this place unchanged, so the bytes its worker holds are
// still its bytes. The mirror moves at once; the worker's store moves on
// the next task dispatched there (takePending), before that task's drops
// remove whatever else from still holds. An entry the mirror records at
// another version is left under from and dropped with it. It returns how
// many entries moved.
func (k *kernDispatch) inherit(place int, from, to uint64, vers map[int64]uint64) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	m := k.mirror[place]
	var keys []int64
	for key, ver := range vers {
		if v, ok := m[mirrorKey{from, key}]; ok && v == ver {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys) // a deterministic wire order
	for _, key := range keys {
		delete(m, mirrorKey{from, key})
		m[mirrorKey{to, key}] = vers[key]
		k.rekeys[place] = append(k.rekeys[place], kernel.Rekey{From: from, To: to, Key: key})
	}
	return len(keys)
}

// unkeep forgets the entries a dispatch's re-keys claimed, when the
// dispatch failed at the transport and the worker may never have applied
// them: a mirror that claims less than a worker holds costs a re-ship,
// one that claims more would serve a missing entry.
func (k *kernDispatch) unkeep(place int, rekeys []kernel.Rekey) {
	if len(rekeys) == 0 {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, r := range rekeys {
		delete(k.mirror[place], mirrorKey{r.To, r.Key})
	}
}

// dropHandle forgets a destroyed handle at every place of g: its entries
// leave the in-process stores and the mirror at once, and each
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

// takePending hands over the re-keys and dropped handles place's worker
// body has yet to apply.
func (k *kernDispatch) takePending(place int) ([]kernel.Rekey, []uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	r, d := k.rekeys[place], k.drops[place]
	delete(k.rekeys, place)
	delete(k.drops, place)
	return r, d
}

// WorkerBody reports whether the task's own place is embodied by a worker
// process that executes kernels: a data-plane backend, and not place
// zero, which is the coordinator itself. It is the one fact ExecKernel's
// two legs are selected by. Cache warms (forced puts that only
// pre-install bytes in a worker's store) are pointless without one.
func (c *Ctx) WorkerBody() bool { return c.rt.kern.ex != nil && c.Here.ID != 0 }

// Causes of an in-process re-execution, read off the transport's Exec
// error: the second field of the apgas.kernel.fallback trace event.
const (
	FallbackPlaceDead       = 1 // the worker body was already gone at dispatch
	FallbackWireError       = 2 // the wire broke, or the body died, mid-dispatch
	FallbackTransportClosed = 3 // the backend was shut down
)

// fallbackCause classifies a transport-level Exec error.
func fallbackCause(err error) int64 {
	switch {
	case errors.Is(err, transport.ErrClosed):
		return FallbackTransportClosed
	case errors.Is(err, transport.ErrNoBody):
		return FallbackPlaceDead
	}
	return FallbackWireError
}

// ExecKernel runs registered kernel task t at the task's current place,
// the one way a ported operation's per-place body executes on every
// backend. It has two legs, selected by WorkerBody:
//
//   - The place has a worker body: inputs resolve into task refs, only the
//     blobs the worker's store does not already hold at the declared
//     version ship, and the kernel runs inside the worker process. Puts
//     already present on t are unconditional installs: they ship (and
//     apply) regardless of what the mirror believes, which is how call
//     sites push content that changed under an unchanged version
//     (DupVector.Sync republishes the root value without bumping it).
//   - It has none (any place of the local backend, place zero of tcp): the
//     kernel runs in-process against the place's store, where each input's
//     live object (Input.Obj) is installed by reference and nothing is
//     encoded; the task's Sink reaches the kernel as Exec.Sink, so outputs
//     land in the caller's memory without a wire round trip. Forced puts
//     are byte installs for a worker's store and are not applied here.
//
// A kernel-level failure (Result.Err: unknown kernel, missing or stale
// store entry, kernel error or panic) is returned as the error from
// either leg — a pure kernel would fail identically on a re-run. Only a
// transport-level Exec error (the worker body is gone or going)
// re-executes in-process, counted in apgas.tasks.kernel_fallback; the
// detector handles the death independently.
//
// Buffers: the dispatcher owns what Input.Encode returns and recycles it
// once the remote dispatch has returned; forced puts stay the caller's.
// The returned Result may be pool-backed — call its Release when done
// with the bytes (optional).
//
// Like every Ctx operation it throws DeadPlaceError when the place has
// died; unlike At/Transfer it counts no hops or bytes — its call sites
// keep their existing logical accounting, so the apgas.net.* counts and
// chaos fingerprints are invariant to where the kernel ran.
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

	if c.WorkerBody() {
		forced := t.Puts
		t.Rekeys, t.Drops = k.takePending(place)
		for _, in := range inputs {
			if !k.shipped(place, in.Handle, in.Key, in.Ver) {
				t.Puts = append(t.Puts, kernel.Blob{Handle: in.Handle, Key: in.Key, Ver: in.Ver, Data: in.Encode()})
			}
		}
		var putBytes int64
		for _, b := range t.Puts {
			putBytes += int64(len(b.Data))
		}
		res, err := k.ex.Exec(t)
		// Exec borrows the blobs only until it returns, so the ones encoded
		// for this dispatch go back to the pool now.
		shipped, rekeys := t.Puts, t.Rekeys
		t.Puts, t.Rekeys, t.Drops = forced, nil, nil
		for _, b := range shipped[len(forced):] {
			codec.PutBuffer(b.Data)
		}
		if err == nil {
			rt.instr.kernelPutBytes.Add(putBytes)
			if res.Err != "" {
				return nil, kernelError(t, res)
			}
			k.commit(place, shipped)
			rt.instr.workerExec.Inc()
			return res, nil
		}
		k.unkeep(place, rekeys)
		rt.instr.kernelFallback.Inc()
		rt.cfg.Obs.Trace("apgas.kernel.fallback", int64(place), fallbackCause(err))
	}

	// In-process leg. Installs are by reference, every time (a map write;
	// the object may have been swapped under an unchanged version). An
	// input without a live object has nothing to install, and the kernel's
	// Exec.Ref reports it.
	st := k.store(place)
	t.Puts = nil
	for _, in := range inputs {
		if in.Obj != nil {
			st.PutObj(in.Handle, in.Key, in.Ver, in.Obj)
		}
	}
	res := kernel.Run(&kernel.Exec{Place: place, Store: st, Sink: t.Sink}, t)
	if res.Err != "" {
		return nil, kernelError(t, res)
	}
	rt.instr.kernelLocal.Inc()
	return res, nil
}

// kernelError turns a kernel-level failure into ExecKernel's error,
// releasing whatever buffers the failed result still carries.
func kernelError(t *kernel.Task, res *kernel.Result) error {
	res.Release()
	return fmt.Errorf("apgas: kernel %q at place %d: %s", t.Name, t.Place, res.Err)
}
