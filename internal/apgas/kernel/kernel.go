// Package kernel is the task IR of the distributed data plane: a
// process-global registry of named compute kernels, a task descriptor
// that references them (with its flat wire encoding, wire.go), and the
// data store a worker process executes kernels against.
//
// Go cannot serialize closures, so the transport seam's multi-process
// backend (transport/tcp) could historically only mirror traffic — every
// task body still ran in the coordinator process. A registered kernel is
// the serializable alternative: a function registered under a stable
// string name at package-init time, so the coordinator's re-exec'd worker
// binary (same executable, RGML_TCP_WORKER set) resolves the exact same
// name to the exact same code. A Task names a kernel and carries its
// inputs — scalars, one payload, and references to versioned objects
// (with the bytes to install when the worker does not hold them yet) — and
// a Result carries its outputs back. Both are plain values; nothing in
// this package depends on the apgas runtime or the transport, so both can
// import it.
//
// Determinism contract: a kernel must be a pure function of its task and
// the entries it references, and must perform bit-identical
// floating-point arithmetic wherever it executes. The runtime relies on
// this to run the same kernel inside a worker process, on the bytes of
// its Store, or in-process (a place without a worker body), on the live
// objects its inputs name, without perturbing results.
package kernel

import (
	"fmt"
	"sort"
	"sync"

	"github.com/rgml/rgml/internal/codec"
)

// Task describes one registered-kernel invocation. It is the unit the
// tcp backend ships to a worker process (an fTask frame) and the unit the
// runtime's in-process leg executes directly.
type Task struct {
	// Name resolves the kernel in the process-global registry. Names must
	// be stable across re-exec: register at package init, never from
	// per-run state.
	Name string
	// Place is the place the task executes at (the runtime sets it at
	// dispatch).
	Place int32
	// I64 and F64 carry scalar arguments.
	I64 []int64
	F64 []float64
	// Payload carries one opaque per-call input, valid for the duration
	// of the kernel call only (a worker recycles its buffer afterwards).
	Payload []byte
	// Refs name the entries the kernel reads, in the order the kernel
	// expects them. In a worker, the dispatcher guarantees the store holds
	// every ref at exactly the referenced version, shipping Puts for the
	// ones it does not; in-process, each ref is the live object of the
	// input it came from (Exec.Ref).
	Refs []Ref
	// Puts are store installs applied before the kernel runs: the subset
	// of Refs the target place did not already hold (plus, for the
	// kernel.put primitive, the installs its caller adds itself).
	Puts []Blob
	// Rekeys move entries whose object survived a Remake at this place
	// from the destroyed handle to its successor. They apply before Drops,
	// so whatever else the old handle held is still dropped. The
	// dispatcher rides them on the next task to the place, like Drops.
	Rekeys []Rekey
	// Drops are store handles whose owning object was destroyed or
	// remade; every entry under them is removed before Puts apply. The
	// dispatcher rides them on the next task to the place.
	Drops []uint64
	// Sink is the caller's destination for the kernel's outputs. It never
	// crosses the wire: the dispatcher hands it to the kernel as Exec.Sink
	// only when the task runs in the caller's process.
	Sink any
}

// Ref identifies one store entry at an exact content version.
type Ref struct {
	Handle uint64
	Key    int64
	Ver    uint64
}

// Rekey renames the store entry (From, Key) to (To, Key), keeping its
// version, bytes and decoded object.
type Rekey struct {
	From, To uint64
	Key      int64
}

// Blob is a store install: the bytes backing a Ref.
type Blob struct {
	Handle uint64
	Key    int64
	Ver    uint64
	Data   []byte
}

// Result carries a kernel's outputs back to the dispatcher.
type Result struct {
	// F64 carries scalar results.
	F64 []float64
	// Payload carries one opaque output.
	Payload []byte
	// Frames carries one output per task ref for fan-shaped kernels
	// (e.g. one partial vector per matrix block).
	Frames [][]byte
	// Err, when non-empty, reports a kernel-level failure (unknown
	// kernel, missing or stale store entry, kernel error or panic). The
	// dispatcher returns it to its caller as an error and never
	// re-executes: a pure kernel would fail identically.
	Err string
	// Pooled marks Frames and Payload as codec.GetBuffer buffers owned by
	// the result, which Release hands back. It never crosses the wire: a
	// kernel that fills its outputs from the pool sets it, and so does the
	// transport for a result it read off a socket.
	Pooled bool
}

// Release returns a pooled result's Frames and Payload to the buffer
// pool and clears them; the caller must be done with the bytes. It is
// optional — an unreleased result is ordinary garbage — and a no-op on
// results that alias memory they do not own.
func (r *Result) Release() {
	if !r.Pooled {
		return
	}
	for _, f := range r.Frames {
		codec.PutBuffer(f)
	}
	codec.PutBuffer(r.Payload)
	r.Frames, r.Payload, r.Pooled = nil, nil, false
}

// Input is a call-site declaration of one kernel input: the identity and
// version the kernel needs, plus an Encode that materializes the bytes
// only when the target worker's store does not hold that exact version.
// The dispatcher (apgas.Ctx.ExecKernel) turns Inputs into Refs and, for a
// worker's stale or missing ones, Puts.
//
// The dispatcher owns the buffer Encode returns and hands it to
// codec.PutBuffer once it has crossed the wire, so Encode returns either
// a codec.GetBuffer buffer or a fresh allocation — never memory something
// else still references.
//
// Obj is the live object the bytes would decode to. Where the kernel runs
// in-process its ref resolves to Obj itself (Exec.Ref), by reference and
// with no store, and Encode never runs; an input without one fails its
// ref there and can only be read in a worker.
type Input struct {
	Handle uint64
	Key    int64
	Ver    uint64
	Encode func() []byte
	Obj    any
}

// Func is a registered kernel body. It runs inside the executing place's
// worker process, or in the coordinator process for a place without one;
// ex resolves its refs (the worker's store, or the caller's live inputs),
// t gives its arguments. Returning an error — or panicking — is reported
// as Result.Err.
type Func func(ex *Exec, t *Task) (*Result, error)

// registry is the process-global kernel table. Registration happens at
// package init, before any runtime (or worker loop) starts, so no lock
// contention matters; the mutex only guards racy test registration.
var registry = struct {
	mu sync.RWMutex
	m  map[string]Func
}{m: make(map[string]Func)}

// Register adds fn under name. Call it from package init of the package
// owning the kernel, so every binary that links the package — including
// the re-exec'd worker — has an identical registry. Registering a
// duplicate name panics: silent replacement would let two packages fight
// over a name and diverge across processes.
func Register(name string, fn Func) {
	if name == "" || fn == nil {
		panic("kernel: Register with empty name or nil func")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("kernel: duplicate registration of %q", name))
	}
	registry.m[name] = fn
}

// Lookup resolves a registered kernel.
func Lookup(name string) (Func, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	fn, ok := registry.m[name]
	return fn, ok
}

// Names returns the registered kernel names, sorted (diagnostics).
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]string, 0, len(registry.m))
	for n := range registry.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// storeKey identifies a store entry.
type storeKey struct {
	handle uint64
	key    int64
}

// Entry is one versioned value a ref resolves to: in a worker's store, the
// installed bytes plus a decode-once cache for the kernel-side object
// decoded from them; in-process, the input's live object alone.
type Entry struct {
	ver  uint64
	data []byte
	// reuse is the decoded object of the entry this one replaced in the
	// store, offered to the decoder as storage.
	reuse any

	mu  sync.Mutex
	obj any
}

// Ver returns the entry's content version.
func (e *Entry) Ver() uint64 { return e.ver }

// Bytes returns the installed bytes (nil for a live object in-process).
// Kernels must treat them as read-only and must not keep them past the
// call: the store hands the buffer back to the pool when the entry is
// replaced or dropped.
func (e *Entry) Bytes() []byte { return e.data }

// Reuse returns the decoded object of the version this entry replaced,
// for a decode function to overwrite instead of allocating (the rank
// vector a worker receives every iteration has the same shape as the last
// one). Nil for a first version, and nil once Obj has decoded.
func (e *Entry) Reuse() any { return e.reuse }

// Obj returns the decoded object for the entry, building it with decode
// on first use and caching it for subsequent kernels: a matrix block
// shipped once is decoded once, not once per task.
func (e *Entry) Obj(decode func(data []byte) (any, error)) (any, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.obj != nil {
		return e.obj, nil
	}
	obj, err := decode(e.data)
	if err != nil {
		return nil, err
	}
	e.obj, e.reuse = obj, nil
	return obj, nil
}

// Store is a worker process's kernel-visible data: entries installed by
// task Puts, keyed by (handle, key). It is the only kernel store: a kernel
// run in-process reads its inputs' live objects instead (Exec.Ref).
//
// The store owns every installed buffer: a replaced or dropped entry's
// bytes go back to codec's buffer pool, and a replaced entry's decoded
// object is offered to its successor (Entry.Reuse). So tasks run against
// it one at a time, and every install is a buffer nothing else references
// — a worker's executor loop, whose installs are the pooled buffers the
// wire reader filled.
type Store struct {
	mu sync.RWMutex
	m  map[storeKey]*Entry
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{m: make(map[storeKey]*Entry)} }

// Put installs data under (handle, key) at version ver, replacing any
// previous version: its buffer is recycled and its decoded object offered
// to the new entry (Entry.Reuse).
func (s *Store) Put(handle uint64, key int64, ver uint64, data []byte) {
	e := &Entry{ver: ver, data: data}
	k := storeKey{handle, key}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.m[k]; old != nil {
		codec.PutBuffer(old.data)
		old.mu.Lock()
		e.reuse = old.obj
		old.mu.Unlock()
	}
	s.m[k] = e
}

// Get returns the entry for (handle, key).
func (s *Store) Get(handle uint64, key int64) (*Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.m[storeKey{handle, key}]
	return e, ok
}

// Rekey moves the entry (from, key) to (to, key) unchanged; a missing
// entry is left missing, for the next Ref of it to report.
func (s *Store) Rekey(from, to uint64, key int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[storeKey{from, key}]
	if !ok {
		return
	}
	delete(s.m, storeKey{from, key})
	if old := s.m[storeKey{to, key}]; old != nil {
		codec.PutBuffer(old.data)
	}
	s.m[storeKey{to, key}] = e
}

// Drop removes every entry under handle (the owning object was destroyed
// or remade).
func (s *Store) Drop(handle uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.m {
		if k.handle == handle {
			codec.PutBuffer(e.data)
			delete(s.m, k)
		}
	}
}

// Len returns the number of installed entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Exec is the environment a kernel executes in: which place it embodies
// and what its refs resolve against.
type Exec struct {
	Place int
	// Store is the worker's store, in a worker; nil in-process (InProcess).
	Store *Store
	// Sink is Task.Sink where the kernel runs in the caller's process, and
	// nil in a worker. A kernel that finds one writes its outputs into it
	// instead of encoding them as Result frames.
	Sink any

	// inputs are the task's inputs in-process (InProcess).
	inputs []Input
}

// InProcess returns the environment of a kernel run in the caller's
// process at place: no store — each ref resolves to the live object
// (Input.Obj) of the input it came from, by reference — and sink as
// Exec.Sink.
func InProcess(place int, inputs []Input, sink any) *Exec {
	return &Exec{Place: place, Sink: sink, inputs: inputs}
}

// Ref resolves one of the task's refs — against the worker's store, or
// in-process to the live object of the input it came from — failing
// loudly when the dispatcher's contract was violated (missing entry, an
// in-process input without a live object, or an interleaved install that
// moved the version).
func (ex *Exec) Ref(r Ref) (*Entry, error) {
	e, ok := ex.entry(r)
	if !ok {
		return nil, fmt.Errorf("kernel: store has no entry (handle %d, key %d)", r.Handle, r.Key)
	}
	if e.ver != r.Ver {
		return nil, fmt.Errorf("kernel: store entry (handle %d, key %d) at version %d, task needs %d",
			r.Handle, r.Key, e.ver, r.Ver)
	}
	return e, nil
}

// entry finds r's entry: in the worker's store or, in-process, as the
// live object of the input r came from.
func (ex *Exec) entry(r Ref) (*Entry, bool) {
	if ex.Store != nil {
		return ex.Store.Get(r.Handle, r.Key)
	}
	for _, in := range ex.inputs {
		if in.Handle == r.Handle && in.Key == r.Key && in.Obj != nil {
			return &Entry{ver: in.Ver, obj: in.Obj}, true
		}
	}
	return nil, false
}

// Run executes t against ex: apply the task's Rekeys, then its Drops,
// install its Puts, resolve the kernel, run it, and fold every failure
// mode — unknown name, kernel error, kernel panic — into Result.Err so the
// caller has exactly one error channel whether the run was local or
// remote.
func Run(ex *Exec, t *Task) *Result {
	for _, r := range t.Rekeys {
		ex.Store.Rekey(r.From, r.To, r.Key)
	}
	for _, h := range t.Drops {
		ex.Store.Drop(h)
	}
	for _, b := range t.Puts {
		ex.Store.Put(b.Handle, b.Key, b.Ver, b.Data)
	}
	fn, ok := Lookup(t.Name)
	if !ok {
		return &Result{Err: fmt.Sprintf("unknown kernel %q (registered: %v)", t.Name, Names())}
	}
	res, err := runSafe(fn, ex, t)
	if err != nil {
		return &Result{Err: err.Error()}
	}
	if res == nil {
		res = &Result{}
	}
	return res
}

// runSafe converts a kernel panic into an error: a worker must survive a
// broken kernel and report it, not die and trigger failure detection.
func runSafe(fn Func, ex *Exec, t *Task) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("kernel %q panicked: %v", t.Name, r)
		}
	}()
	return fn(ex, t)
}

// PutName is the built-in store-install kernel: it has no body of its
// own — the work is the task's Puts, which Run installs before any
// kernel executes — but it verifies its refs landed. It is a primitive
// for measuring and testing the data plane's bulk path; no framework
// code pushes data ahead of need, since a worker holds only what a
// kernel named as an input.
const PutName = "kernel.put"

func init() {
	Register(PutName, func(ex *Exec, t *Task) (*Result, error) {
		for _, r := range t.Refs {
			if _, err := ex.Ref(r); err != nil {
				return nil, err
			}
		}
		return &Result{}, nil
	})
}
