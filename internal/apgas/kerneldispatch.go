package apgas

import (
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
// functions over a task descriptor and the versioned inputs it names. A
// Ctx dispatches them with ExecKernel, on every backend: where the place
// has a worker body (transport/tcp, places other than zero) the kernel
// runs inside that process on shipped bytes held in the worker's store,
// and everywhere else it runs in-process on the inputs' live objects, by
// reference and with no store. The kernel purity contract makes the two
// bit-identical.
//
// ExecKernel deliberately counts NO hop in apgas.net.*: the call sites
// that adopt it (dist.MultVec and dist.TransMultVec's block kernel)
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
// and the re-keys and destroyed handles each worker body has yet to be
// told about. It holds no data: a worker's store is in the worker, and an
// in-process kernel reads its inputs.
type kernDispatch struct {
	ex transport.Executor

	mu     sync.Mutex
	mirror map[int]map[mirrorKey]uint64
	rekeys map[int][]kernel.Rekey
	drops  map[int][]uint64
}

func (k *kernDispatch) init(ex transport.Executor) {
	k.ex = ex
	k.mirror = make(map[int]map[mirrorKey]uint64)
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

// placeDead drops everything known about a dead place: its worker body's
// store is gone with the process.
func (k *kernDispatch) placeDead(place int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.mirror, place)
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

// dropHandle forgets a destroyed handle at every place of g: its entries
// leave the mirror at once, and each worker body the mirror says holds
// some is told on the next task dispatched to it (takePending). Without
// this every Remake would leave a dead generation of blocks in every
// worker for the rest of the run.
func (k *kernDispatch) dropHandle(handle uint64, g PlaceGroup) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.mirror) == 0 {
		return // nothing was ever shipped: no worker holds anything
	}
	for _, p := range g {
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
// two legs are selected by.
func (c *Ctx) WorkerBody() bool { return c.rt.kern.ex != nil && c.Here.ID != 0 }

// ExecKernel runs registered kernel task t at the task's current place,
// the one way a ported operation's per-place body executes on every
// backend. It has two legs, selected by WorkerBody:
//
//   - The place has a worker body: inputs resolve into task refs, only the
//     blobs the worker's store does not already hold at the declared
//     version ship, and the kernel runs inside the worker process. A
//     worker therefore holds only what some kernel named as an input, and
//     a caller that changes an input's content must move its version.
//     Puts already present on t are unconditional installs that ship (and
//     apply) regardless of what the mirror believes; only the kernel.put
//     primitive's own benchmark and tests issue them.
//   - It has none (any place of the local backend, place zero of tcp): the
//     kernel runs in-process with no store, each ref resolving to its
//     input's live object (Input.Obj), by reference, and nothing is
//     encoded; the task's Sink reaches the kernel as Exec.Sink, so outputs
//     land in the caller's memory without a wire round trip. Forced puts
//     are byte installs for a worker's store and are not applied here.
//
// A kernel-level failure (Result.Err: unknown kernel, missing or stale
// entry, kernel error or panic) is returned as the error from
// either leg. A transport-level Exec error means the worker body is gone:
// ExecKernel reports the place's death through the runtime's one death
// path (the same one the failure detector feeds, so a death both report
// is accounted once) and throws DeadPlaceError. A worker place's kernel
// therefore runs only in its worker, never at the coordinator on the
// coordinator's copy of its blocks. Once the runtime is shut down that
// path kills no place, so a dispatch the closing backend failed is a
// plain error.
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
		shipped := t.Puts
		t.Puts, t.Rekeys, t.Drops = forced, nil, nil
		for _, b := range shipped[len(forced):] {
			codec.PutBuffer(b.Data)
		}
		if err != nil {
			rt.transportDeath(place, transport.CauseConn)
			c.CheckAlive()
			return nil, fmt.Errorf("apgas: kernel %q at place %d: %w", t.Name, place, err)
		}
		rt.instr.kernelPutBytes.Add(putBytes)
		if res.Err != "" {
			return nil, kernelError(t, res)
		}
		k.commit(place, shipped)
		rt.instr.workerExec.Inc()
		return res, nil
	}

	// In-process leg: the kernel reads the inputs themselves, so an object
	// swapped under an unchanged version is the one it sees, and an input
	// without a live object fails its ref (Exec.Ref).
	t.Puts = nil
	res := kernel.Run(kernel.InProcess(place, inputs, t.Sink), t)
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
