package kernel

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/rgml/rgml/internal/codec"
)

// The registry is process-global and Register panics on duplicates, so
// all test kernels register once at init — exactly the discipline
// production kernels follow (and the reason these tests survive
// -count=2, which reruns them in one process).
func init() {
	Register("kerneltest.a", func(ex *Exec, task *Task) (*Result, error) { return &Result{}, nil })
	Register("kerneltest.read", func(ex *Exec, task *Task) (*Result, error) {
		e, err := ex.Ref(task.Refs[0])
		if err != nil {
			return nil, err
		}
		return &Result{Payload: e.Bytes()}, nil
	})
	Register("kerneltest.panic", func(ex *Exec, task *Task) (*Result, error) { panic("boom") })
	Register("kerneltest.fail", func(ex *Exec, task *Task) (*Result, error) { return nil, errors.New("no luck") })
}

// holds reports whether s has (handle, key) at exactly ver.
func holds(s *Store, handle uint64, key int64, ver uint64) bool {
	e, ok := s.Get(handle, key)
	return ok && e.Ver() == ver
}

func TestRegistry(t *testing.T) {
	if _, ok := Lookup("kerneltest.a"); !ok {
		t.Fatal("registered kernel not found")
	}
	if _, ok := Lookup("kerneltest.nope"); ok {
		t.Fatal("unregistered kernel found")
	}
	found := false
	for _, n := range Names() {
		if n == "kerneltest.a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v, missing kerneltest.a", Names())
	}
	for _, bad := range []string{"", "kerneltest.a"} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register(%q) did not panic", bad)
				}
			}()
			Register(bad, func(ex *Exec, task *Task) (*Result, error) { return nil, nil })
		}()
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	s.Put(1, 0, 1, []byte("v1"))
	s.Put(1, 1, 1, []byte("other key"))
	s.Put(2, 0, 5, []byte("other handle"))
	if s.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", s.Len())
	}
	e, ok := s.Get(1, 0)
	if !ok || string(e.Bytes()) != "v1" || e.Ver() != 1 {
		t.Fatalf("Get(1,0) = %v, %v", e, ok)
	}
	if !holds(s, 1, 0, 1) || holds(s, 1, 0, 2) || holds(s, 3, 0, 1) {
		t.Fatal("version/handle discrimination broken")
	}
	// A new version replaces in place.
	s.Put(1, 0, 2, []byte("v2"))
	if e, _ := s.Get(1, 0); string(e.Bytes()) != "v2" || e.Ver() != 2 {
		t.Fatalf("after re-Put, Get(1,0) = %q ver %d", e.Bytes(), e.Ver())
	}
	if s.Len() != 3 {
		t.Fatalf("re-Put changed Len to %d", s.Len())
	}
	// Drop removes every key of a handle, other handles untouched.
	s.Drop(1)
	if s.Len() != 1 || holds(s, 1, 0, 2) || holds(s, 1, 1, 1) || !holds(s, 2, 0, 5) {
		t.Fatalf("after Drop(1): Len=%d", s.Len())
	}
}

func TestEntryObjDecodesOnce(t *testing.T) {
	s := NewStore()
	s.Put(1, 0, 1, []byte("abc"))
	e, _ := s.Get(1, 0)
	var calls atomic.Int32
	decode := func(data []byte) (any, error) {
		calls.Add(1)
		return strings.ToUpper(string(data)), nil
	}
	for i := 0; i < 3; i++ {
		v, err := e.Obj(decode)
		if err != nil || v.(string) != "ABC" {
			t.Fatalf("Obj = %v, %v", v, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("decode ran %d times, want 1 (memoized)", calls.Load())
	}
	wantErr := errors.New("bad bytes")
	if _, err := e.Obj(func([]byte) (any, error) { return nil, wantErr }); err != nil {
		t.Fatalf("memoized Obj re-decoded and failed: %v", err)
	}
}

func TestRunAppliesPutsAndResolvesRefs(t *testing.T) {
	ex := &Exec{Place: 3, Store: NewStore()}
	res := Run(ex, &Task{
		Name: "kerneltest.read",
		Refs: []Ref{{Handle: 9, Key: 2, Ver: 4}},
		Puts: []Blob{{Handle: 9, Key: 2, Ver: 4, Data: []byte("shipped")}},
	})
	if res.Err != "" || string(res.Payload) != "shipped" {
		t.Fatalf("Run = %+v", res)
	}
	// Version mismatch: the store now holds ver 4, a ref to ver 5 must
	// fail rather than serve stale bytes.
	res = Run(ex, &Task{Name: "kerneltest.read", Refs: []Ref{{Handle: 9, Key: 2, Ver: 5}}})
	if res.Err == "" {
		t.Fatal("stale-version ref resolved")
	}
}

func TestRunFoldsFailures(t *testing.T) {
	res := Run(&Exec{Store: NewStore()}, &Task{Name: "kerneltest.ghost"})
	if res.Err == "" || !strings.Contains(res.Err, "ghost") {
		t.Fatalf("unknown kernel Err = %q", res.Err)
	}
	res = Run(&Exec{Store: NewStore()}, &Task{Name: "kerneltest.panic"})
	if res.Err == "" || !strings.Contains(res.Err, "boom") {
		t.Fatalf("panicking kernel Err = %q", res.Err)
	}
	res = Run(&Exec{Store: NewStore()}, &Task{Name: "kerneltest.fail"})
	if res.Err != "no luck" {
		t.Fatalf("failing kernel Err = %q", res.Err)
	}
}

func TestBuiltinPut(t *testing.T) {
	ex := &Exec{Store: NewStore()}
	res := Run(ex, &Task{Name: PutName, Puts: []Blob{{Handle: 1, Key: 0, Ver: 2, Data: []byte("x")}}})
	if res.Err != "" {
		t.Fatalf("put kernel Err = %q", res.Err)
	}
	if !holds(ex.Store, 1, 0, 2) {
		t.Fatal("put kernel did not install the blob")
	}
}

func TestRunAppliesDropsBeforePuts(t *testing.T) {
	ex := &Exec{Store: NewStore()}
	ex.Store.Put(4, 0, 1, []byte("old generation"))
	ex.Store.Put(4, 1, 1, []byte("old generation"))
	ex.Store.Put(5, 0, 1, []byte("kept"))
	res := Run(ex, &Task{
		Name:  PutName,
		Drops: []uint64{4},
		Refs:  []Ref{{Handle: 4, Key: 0, Ver: 2}},
		Puts:  []Blob{{Handle: 4, Key: 0, Ver: 2, Data: []byte("new generation")}},
	})
	if res.Err != "" {
		t.Fatalf("Run = %+v", res)
	}
	if ex.Store.Len() != 2 || !holds(ex.Store, 4, 0, 2) || !holds(ex.Store, 5, 0, 1) {
		t.Fatalf("after drop+put: Len=%d", ex.Store.Len())
	}
}

// TestRunAppliesRekeysBeforeDrops pins the Remake hand-over: an entry
// re-keyed to the successor handle keeps its version, bytes and decoded
// object and survives the predecessor's drop in the same task, which still
// removes everything else the predecessor held. A re-key of an entry the
// store lacks leaves it missing, for the ref to report.
func TestRunAppliesRekeysBeforeDrops(t *testing.T) {
	ex := &Exec{Store: NewStore()}
	ex.Store.Put(4, 0, 3, []byte("survivor"))
	ex.Store.Put(4, 1, 1, []byte("left this place"))
	e, _ := ex.Store.Get(4, 0)
	obj, _ := e.Obj(func(b []byte) (any, error) { return string(b), nil })
	res := Run(ex, &Task{
		Name:   PutName,
		Rekeys: []Rekey{{From: 4, To: 6, Key: 0}},
		Drops:  []uint64{4},
		Refs:   []Ref{{Handle: 6, Key: 0, Ver: 3}},
	})
	if res.Err != "" {
		t.Fatalf("Run = %+v", res)
	}
	got, ok := ex.Store.Get(6, 0)
	if ex.Store.Len() != 1 || !ok || got != e || string(got.Bytes()) != "survivor" {
		t.Fatalf("after rekey+drop: Len=%d, entry %+v", ex.Store.Len(), got)
	}
	if again, _ := got.Obj(func([]byte) (any, error) { return nil, errors.New("decoded twice") }); again != obj {
		t.Fatal("re-keyed entry lost its decoded object")
	}
	res = Run(ex, &Task{Name: PutName, Rekeys: []Rekey{{From: 4, To: 6, Key: 1}}, Refs: []Ref{{Handle: 6, Key: 1, Ver: 1}}})
	if !strings.Contains(res.Err, "no entry") {
		t.Fatalf("ref of a re-key the store could not apply: %+v", res)
	}
}

// TestRecyclingStore pins what a worker's store does with superseded
// entries: the replaced buffer goes back to the pool, the replaced
// decoded object is offered to the new entry's decoder exactly once, and
// Drop recycles too.
func TestRecyclingStore(t *testing.T) {
	const size = 1 << 12
	pooled := func() []byte { return codec.GetBuffer(size)[:size] }
	puts := func() uint64 { _, _, p := codec.PoolStats(); return p }

	s := NewStore()
	s.Put(1, 0, 1, pooled())
	e1, _ := s.Get(1, 0)
	first, _ := e1.Obj(func([]byte) (any, error) { return "decoded v1", nil })
	if e1.Reuse() != nil {
		t.Fatal("first version offered storage to reuse")
	}
	before := puts()
	s.Put(1, 0, 2, pooled())
	if got := puts() - before; got != 1 {
		t.Fatalf("replacing an entry returned %d buffers to the pool, want 1", got)
	}
	e2, _ := s.Get(1, 0)
	if e2.Reuse() != first {
		t.Fatalf("Reuse() = %v, want the predecessor's object", e2.Reuse())
	}
	if _, err := e2.Obj(func([]byte) (any, error) { return "decoded v2", nil }); err != nil || e2.Reuse() != nil {
		t.Fatalf("after decode: err %v, Reuse() = %v", err, e2.Reuse())
	}
	s.Drop(1)
	if got := puts() - before; got != 2 {
		t.Fatalf("replace and drop returned %d buffers to the pool, want 2", got)
	}
}

func TestResultRelease(t *testing.T) {
	frame := codec.GetBuffer(1 << 10)[:1<<10]
	r := &Result{Frames: [][]byte{frame, nil}, Payload: codec.GetBuffer(100)[:100], Pooled: true}
	r.Release()
	if r.Frames != nil || r.Payload != nil || r.Pooled {
		t.Fatalf("after Release: %+v", r)
	}
	r.Release() // idempotent

	alias := []byte("store bytes the result does not own")
	r = &Result{Payload: alias}
	r.Release()
	if r.Payload == nil {
		t.Fatal("Release cleared a result that is not pool-backed")
	}
}

// TestWireRoundTrip: tasks and results survive the flat encoding with
// every field and blob in place, and the blobs are adopted, not copied.
func TestWireRoundTrip(t *testing.T) {
	task := &Task{
		Name: "kerneltest.read", Place: 3,
		I64: []int64{-1, 1 << 62}, F64: []float64{0.5, -0.0},
		Payload: []byte("payload"),
		Refs:    []Ref{{Handle: 9, Key: -2, Ver: 4}, {Handle: 1, Key: 0, Ver: 1}},
		Puts:    []Blob{{Handle: 9, Key: -2, Ver: 4, Data: []byte("shipped")}, {Handle: 7, Data: nil}},
		Rekeys:  []Rekey{{From: 11, To: 13, Key: -5}, {From: 12, To: 14, Key: 1 << 40}},
		Drops:   []uint64{11, 12},
	}
	meta, blobs := task.AppendWire(nil, nil)
	if len(blobs) != len(task.Puts)+1 || &blobs[0][0] != &task.Puts[0].Data[0] {
		t.Fatalf("AppendWire blobs = %q, want the task's own slices", blobs)
	}
	got, err := DecodeTask(meta, blobs)
	if err != nil || !reflect.DeepEqual(got, task) {
		t.Fatalf("DecodeTask = %+v, %v\nwant %+v", got, err, task)
	}
	empty, err := DecodeTask((&Task{}).AppendWire(nil, nil))
	if err != nil || !reflect.DeepEqual(empty, &Task{}) {
		t.Fatalf("empty task round trip = %+v, %v", empty, err)
	}

	res := &Result{F64: []float64{1, 2}, Err: "no luck", Frames: [][]byte{{1}, nil, {2, 3}}, Payload: []byte("out")}
	meta, blobs = res.AppendWire(nil, nil)
	back, err := DecodeResult(meta, blobs, true)
	res.Pooled = true
	if err != nil || !reflect.DeepEqual(back, res) {
		t.Fatalf("DecodeResult = %+v, %v\nwant %+v", back, err, res)
	}
}

// TestWireDecodeRejectsCorruptMeta: truncated meta, trailing bytes,
// counts larger than the bytes behind them and blob lists of the wrong
// length are errors — never a panic, never an allocation sized by a
// corrupt count.
func TestWireDecodeRejectsCorruptMeta(t *testing.T) {
	task := &Task{Name: "kernel-8", I64: []int64{1}, F64: []float64{2}, Refs: []Ref{{1, 2, 3}}, Drops: []uint64{4},
		Puts: []Blob{{Handle: 5, Data: []byte("x")}}}
	tmeta, tblobs := task.AppendWire(nil, nil)
	res := &Result{F64: []float64{1}, Err: "no luck!", Frames: [][]byte{{1}}}
	rmeta, rblobs := res.AppendWire(nil, nil)
	for cut := 0; cut < len(tmeta); cut++ {
		if _, err := DecodeTask(tmeta[:cut], tblobs); !errors.Is(err, ErrBadWire) {
			t.Fatalf("task meta cut at %d: %v", cut, err)
		}
	}
	for cut := 0; cut < len(rmeta); cut++ {
		if _, err := DecodeResult(rmeta[:cut], rblobs, false); !errors.Is(err, ErrBadWire) {
			t.Fatalf("result meta cut at %d: %v", cut, err)
		}
	}
	for name, err := range map[string]error{
		"task trailing byte":   second(DecodeTask(append(tmeta[:len(tmeta):len(tmeta)], 0), tblobs)),
		"task missing blob":    second(DecodeTask(tmeta, tblobs[:1])),
		"task extra blob":      second(DecodeTask(tmeta, append(tblobs[:2:2], nil))),
		"result trailing byte": second(DecodeResult(append(rmeta[:len(rmeta):len(rmeta)], 0), rblobs, false)),
		"result missing blob":  second(DecodeResult(rmeta, rblobs[:1], false)),
		"result no blobs":      second(DecodeResult(rmeta, nil, false)),
	} {
		if !errors.Is(err, ErrBadWire) {
			t.Errorf("%s: %v, want ErrBadWire", name, err)
		}
	}
	// Every count field set to 2^64-1 in turn.
	for off := 0; off+8 <= len(tmeta); off += 8 {
		bad := append([]byte(nil), tmeta...)
		for i := 0; i < 8; i++ {
			bad[off+i] = 0xff
		}
		DecodeTask(bad, tblobs) // must not panic or allocate by the count
	}
	for off := 0; off+8 <= len(rmeta); off += 8 {
		bad := append([]byte(nil), rmeta...)
		for i := 0; i < 8; i++ {
			bad[off+i] = 0xff
		}
		DecodeResult(bad, rblobs, false)
	}
}

func second[T any](_ T, err error) error { return err }
