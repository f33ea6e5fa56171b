package apgas

import "fmt"

// PlaceLocalHandle references a family of objects, one per place of a
// PlaceGroup, like x10.lang.PlaceLocalHandle. The handle itself is a small
// copyable value; the per-place objects live in each place's store and can
// only be reached by a task executing at that place, which is what keeps
// the emulation honest about data placement: when a place dies its fragment
// is gone.
type PlaceLocalHandle[T any] struct {
	rt *Runtime
	id uint64
}

// NewPlaceLocalHandle allocates a handle and initializes it at every place
// of g by running init there (in parallel, under a finish). A failure
// during initialization is returned and the partially initialized handle is
// destroyed.
func NewPlaceLocalHandle[T any](rt *Runtime, g PlaceGroup, init func(ctx *Ctx, idx int) T) (PlaceLocalHandle[T], error) {
	h := PlaceLocalHandle[T]{rt: rt, id: rt.nextHandle.Add(1)}
	err := ForEachPlace(rt, g, func(ctx *Ctx, idx int) {
		v := init(ctx, idx)
		rt.placeState(ctx.Here).set(h.id, v)
	})
	if err != nil {
		h.Destroy(g)
		return PlaceLocalHandle[T]{}, err
	}
	return h, nil
}

// Valid reports whether the handle has been initialized.
func (h PlaceLocalHandle[T]) Valid() bool { return h.rt != nil }

// Handle returns the handle's runtime-unique numeric identity. The
// registered-kernel data plane uses it as the store namespace for the
// object's per-place kernel-visible data (kernel.Input.Handle): handle
// IDs are never reused within a runtime, so a remade object — new
// PlaceLocalHandle — can never collide with stale cached entries of the
// one it replaced; what it keeps of them it keeps through Inherit.
func (h PlaceLocalHandle[T]) Handle() uint64 { return h.id }

// Inherit lets h, the handle replacing old in a Remake, keep what the
// data plane cached under old in place p's worker body. vers names the
// keys whose live object old held at p and h now holds there unchanged,
// each with the object's current version; an entry cached at exactly
// that version moves to h in the dispatch mirror now and in the worker's
// store on the next task sent there, so the worker keeps its copy
// instead of being sent it again. Everything else cached under old is
// dropped when old is destroyed. Nothing happens where p has no worker
// body: nothing was cached there.
func (h PlaceLocalHandle[T]) Inherit(old PlaceLocalHandle[T], p Place, vers map[int64]uint64) {
	if h.rt == nil || len(vers) == 0 {
		return
	}
	if n := h.rt.kern.inherit(p.ID, old.id, h.id, vers); n > 0 {
		h.rt.instr.kernelRekeyed.Add(int64(n))
		h.rt.cfg.Obs.Trace("apgas.kernel.rekey", int64(p.ID), int64(n))
	}
}

// Local resolves the handle at the task's current place, like applying the
// () operator on a PlaceLocalHandle in X10. It throws DeadPlaceError if the
// place has failed and panics if the handle was never initialized there
// (a programming error).
func (h PlaceLocalHandle[T]) Local(ctx *Ctx) T {
	v, ok := ctx.rt.placeState(ctx.Here).get(h.id)
	if !ok {
		panic(fmt.Sprintf("apgas: PlaceLocalHandle %d not initialized at %v", h.id, ctx.Here))
	}
	return v.(T)
}

// TryLocal resolves the handle at the current place, reporting ok=false if
// no value is stored there rather than panicking.
func (h PlaceLocalHandle[T]) TryLocal(ctx *Ctx) (T, bool) {
	v, ok := ctx.rt.placeState(ctx.Here).get(h.id)
	if !ok {
		var zero T
		return zero, false
	}
	return v.(T), true
}

// SetLocal replaces the handle's value at the task's current place. It is
// used by remake() paths that rebuild an object over a new place group.
func (h PlaceLocalHandle[T]) SetLocal(ctx *Ctx, v T) {
	ctx.rt.placeState(ctx.Here).set(h.id, v)
}

// Destroy removes the handle's per-place objects from every live place of
// g, releasing the memory — including whatever kernel-visible data the
// data plane shipped to worker bodies under the handle. Dead places are
// skipped (their stores are already gone).
func (h PlaceLocalHandle[T]) Destroy(g PlaceGroup) {
	if h.rt == nil {
		return
	}
	for _, p := range g {
		h.rt.placeState(p).remove(h.id)
	}
	h.rt.kern.dropHandle(h.id, g)
}

// GlobalRef is a reference to a single object homed at one place, like
// x10.lang.GlobalRef. Only a task executing at the home place may
// dereference it.
type GlobalRef[T any] struct {
	rt   *Runtime
	id   uint64
	home Place
}

// NewGlobalRef stores v at the home place identified by ctx and returns a
// reference to it.
func NewGlobalRef[T any](ctx *Ctx, v T) GlobalRef[T] {
	r := GlobalRef[T]{rt: ctx.rt, id: ctx.rt.nextHandle.Add(1), home: ctx.Here}
	ctx.rt.placeState(ctx.Here).set(r.id, v)
	return r
}

// Home returns the place the referenced object lives at.
func (r GlobalRef[T]) Home() Place { return r.home }

// Get dereferences the GlobalRef; the calling task must be executing at the
// home place (X10 requires "at (gr) gr()").
func (r GlobalRef[T]) Get(ctx *Ctx) T {
	if ctx.Here.ID != r.home.ID {
		panic(fmt.Sprintf("apgas: GlobalRef homed at %v dereferenced at %v", r.home, ctx.Here))
	}
	v, ok := ctx.rt.placeState(ctx.Here).get(r.id)
	if !ok {
		panic(fmt.Sprintf("apgas: GlobalRef %d has no value at %v", r.id, r.home))
	}
	return v.(T)
}

// Set replaces the referenced value; the calling task must be at home.
func (r GlobalRef[T]) Set(ctx *Ctx, v T) {
	if ctx.Here.ID != r.home.ID {
		panic(fmt.Sprintf("apgas: GlobalRef homed at %v written at %v", r.home, ctx.Here))
	}
	ctx.rt.placeState(ctx.Here).set(r.id, v)
}

// Free releases the referenced object at the home place.
func (r GlobalRef[T]) Free() {
	if r.rt == nil {
		return
	}
	r.rt.placeState(r.home).remove(r.id)
}
