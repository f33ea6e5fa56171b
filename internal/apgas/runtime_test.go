package apgas

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func newTestRuntime(t *testing.T, places int, resilient bool) *Runtime {
	t.Helper()
	rt, err := New(WithPlaces(places), WithResilient(resilient))
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestNewRuntimeValidation(t *testing.T) {
	if _, err := New(WithPlaces(0)); err == nil {
		t.Fatal("expected error for 0 places")
	}
	if _, err := New(WithPlaces(-3)); err == nil {
		t.Fatal("expected error for negative places")
	}
}

func TestWorldAndPlaces(t *testing.T) {
	rt := newTestRuntime(t, 4, false)
	w := rt.World()
	if w.Size() != 4 {
		t.Fatalf("world size = %d, want 4", w.Size())
	}
	for i, p := range w {
		if p.ID != i {
			t.Errorf("world[%d].ID = %d", i, p.ID)
		}
	}
	if rt.NumPlaces() != 4 {
		t.Errorf("NumPlaces = %d", rt.NumPlaces())
	}
	if got := rt.Place(2); got.ID != 2 {
		t.Errorf("Place(2) = %v", got)
	}
}

func TestFinishRunsAllTasks(t *testing.T) {
	for _, resilient := range []bool{false, true} {
		t.Run(fmt.Sprintf("resilient=%v", resilient), func(t *testing.T) {
			rt := newTestRuntime(t, 6, resilient)
			var n atomic.Int64
			err := rt.Finish(func(ctx *Ctx) {
				for _, p := range rt.World() {
					p := p
					ctx.AsyncAt(p, func(c *Ctx) {
						if c.Here.ID != p.ID {
							t.Errorf("task at %v, want %v", c.Here, p)
						}
						n.Add(1)
					})
				}
			})
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			if n.Load() != 6 {
				t.Fatalf("ran %d tasks, want 6", n.Load())
			}
		})
	}
}

func TestFinishNested(t *testing.T) {
	for _, resilient := range []bool{false, true} {
		t.Run(fmt.Sprintf("resilient=%v", resilient), func(t *testing.T) {
			rt := newTestRuntime(t, 4, resilient)
			var n atomic.Int64
			err := rt.Finish(func(ctx *Ctx) {
				ctx.AsyncAt(rt.Place(1), func(c *Ctx) {
					// Nested asyncs register with the same enclosing finish.
					c.AsyncAt(rt.Place(2), func(c2 *Ctx) {
						c2.AsyncAt(rt.Place(3), func(*Ctx) { n.Add(1) })
						n.Add(1)
					})
					n.Add(1)
				})
			})
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			if n.Load() != 3 {
				t.Fatalf("ran %d tasks, want 3", n.Load())
			}
		})
	}
}

func TestNestedFinishScope(t *testing.T) {
	rt := newTestRuntime(t, 3, true)
	err := rt.Finish(func(ctx *Ctx) {
		ctx.AsyncAt(rt.Place(1), func(c *Ctx) {
			var inner atomic.Int64
			// An inner finish must block until its own tasks are done.
			err := c.FinishFrom(func(ic *Ctx) {
				ic.AsyncAt(rt.Place(2), func(*Ctx) {
					time.Sleep(5 * time.Millisecond)
					inner.Add(1)
				})
			})
			if err != nil {
				Throw(err)
			}
			if inner.Load() != 1 {
				Throw(errors.New("inner finish returned before its task"))
			}
		})
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestThrowCollectsErrors(t *testing.T) {
	for _, resilient := range []bool{false, true} {
		t.Run(fmt.Sprintf("resilient=%v", resilient), func(t *testing.T) {
			rt := newTestRuntime(t, 3, resilient)
			boom := errors.New("boom")
			err := rt.Finish(func(ctx *Ctx) {
				ctx.AsyncAt(rt.Place(1), func(*Ctx) { Throw(boom) })
				ctx.AsyncAt(rt.Place(2), func(*Ctx) { Throw(boom) })
			})
			if err == nil {
				t.Fatal("expected error")
			}
			var me *MultiError
			if !errors.As(err, &me) {
				t.Fatalf("want MultiError, got %T: %v", err, err)
			}
			if len(me.Errs) != 2 {
				t.Fatalf("want 2 errors, got %d", len(me.Errs))
			}
		})
	}
}

func TestBodyPanicBecomesError(t *testing.T) {
	rt := newTestRuntime(t, 2, true)
	err := rt.Finish(func(ctx *Ctx) { panic("kaboom") })
	if err == nil || !errors.Is(err, err) {
		t.Fatalf("expected error, got %v", err)
	}
}

func TestAtAndEval(t *testing.T) {
	rt := newTestRuntime(t, 4, false)
	err := rt.Finish(func(ctx *Ctx) {
		got := Eval(ctx, rt.Place(3), func(c *Ctx) int { return c.Here.ID * 10 })
		if got != 30 {
			t.Errorf("Eval = %d, want 30", got)
		}
		ctx.At(rt.Place(2), func(c *Ctx) {
			if c.Here.ID != 2 {
				t.Errorf("At ran at %v", c.Here)
			}
		})
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestKillDeliversDeadPlaceError(t *testing.T) {
	rt := newTestRuntime(t, 4, true)
	victim := rt.Place(2)
	started := make(chan struct{})
	err := rt.Finish(func(ctx *Ctx) {
		ctx.AsyncAt(victim, func(c *Ctx) {
			close(started)
			// Spin until the failure detector aborts us.
			for {
				c.CheckAlive()
				time.Sleep(time.Millisecond)
			}
		})
		<-started
		if err := rt.Kill(victim); err != nil {
			t.Errorf("Kill: %v", err)
		}
	})
	if !IsDeadPlace(err) {
		t.Fatalf("want DeadPlaceError, got %v", err)
	}
	dead := DeadPlaces(err)
	if len(dead) != 1 || dead[0].ID != victim.ID {
		t.Fatalf("DeadPlaces = %v, want [%v]", dead, victim)
	}
	if !rt.IsDead(victim) {
		t.Error("IsDead(victim) = false")
	}
}

func TestAsyncToDeadPlaceFailsFast(t *testing.T) {
	rt := newTestRuntime(t, 3, true)
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	err := rt.Finish(func(ctx *Ctx) {
		ctx.AsyncAt(rt.Place(1), func(*Ctx) {
			t.Error("task ran at a dead place")
		})
	})
	if !IsDeadPlace(err) {
		t.Fatalf("want DeadPlaceError, got %v", err)
	}
}

func TestAtDeadPlaceThrows(t *testing.T) {
	rt := newTestRuntime(t, 3, true)
	if err := rt.Kill(rt.Place(2)); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	err := rt.Finish(func(ctx *Ctx) {
		ctx.At(rt.Place(2), func(*Ctx) { t.Error("ran at dead place") })
	})
	if !IsDeadPlace(err) {
		t.Fatalf("want DeadPlaceError, got %v", err)
	}
}

func TestKillRestrictions(t *testing.T) {
	rt := newTestRuntime(t, 3, true)
	if err := rt.Kill(rt.Place(0)); !errors.Is(err, ErrPlaceZeroImmortal) {
		t.Errorf("Kill(0) = %v, want ErrPlaceZeroImmortal", err)
	}
	nrt := newTestRuntime(t, 3, false)
	if err := nrt.Kill(nrt.Place(1)); !errors.Is(err, ErrNotResilient) {
		t.Errorf("non-resilient Kill = %v, want ErrNotResilient", err)
	}
}

func TestKillIdempotent(t *testing.T) {
	rt := newTestRuntime(t, 3, true)
	p := rt.Place(1)
	if err := rt.Kill(p); err != nil {
		t.Fatal(err)
	}
	if err := rt.Kill(p); err != nil {
		t.Fatalf("second Kill: %v", err)
	}
	if got := rt.Stats().PlacesKilled; got != 1 {
		t.Errorf("PlacesKilled = %d, want 1", got)
	}
}

func TestWorldExcludesDead(t *testing.T) {
	rt := newTestRuntime(t, 5, true)
	_ = rt.Kill(rt.Place(3))
	w := rt.World()
	if w.Size() != 4 || w.Contains(Place{ID: 3}) {
		t.Fatalf("World = %v", w)
	}
	live := rt.Live(PlaceGroup{{0}, {3}, {4}})
	if live.Size() != 2 || live.Contains(Place{ID: 3}) {
		t.Fatalf("Live = %v", live)
	}
}

func TestPlaceLocalHandle(t *testing.T) {
	rt := newTestRuntime(t, 4, true)
	g := rt.World()
	h, err := NewPlaceLocalHandle(rt, g, func(ctx *Ctx, idx int) []int {
		return []int{ctx.Here.ID, idx}
	})
	if err != nil {
		t.Fatalf("NewPlaceLocalHandle: %v", err)
	}
	err = ForEachPlace(rt, g, func(ctx *Ctx, idx int) {
		v := h.Local(ctx)
		if v[0] != ctx.Here.ID || v[1] != idx {
			t.Errorf("Local at %v = %v", ctx.Here, v)
		}
	})
	if err != nil {
		t.Fatalf("ForEachPlace: %v", err)
	}
	// Access after kill throws DeadPlaceError.
	_ = rt.Kill(rt.Place(2))
	err = rt.Finish(func(ctx *Ctx) {
		ctx.AsyncAt(rt.Place(2), func(c *Ctx) { _ = h.Local(c) })
	})
	if !IsDeadPlace(err) {
		t.Fatalf("want DeadPlaceError, got %v", err)
	}
	h.Destroy(g)
	err = rt.Finish(func(ctx *Ctx) {
		if _, ok := h.TryLocal(ctx); ok {
			t.Error("handle still present after Destroy")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlaceLocalHandleSetLocal(t *testing.T) {
	rt := newTestRuntime(t, 2, false)
	g := rt.World()
	h, err := NewPlaceLocalHandle(rt, g, func(ctx *Ctx, idx int) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	err = ForEachPlace(rt, g, func(ctx *Ctx, idx int) { h.SetLocal(ctx, idx+100) })
	if err != nil {
		t.Fatal(err)
	}
	err = ForEachPlace(rt, g, func(ctx *Ctx, idx int) {
		if got := h.Local(ctx); got != idx+100 {
			t.Errorf("Local = %d, want %d", got, idx+100)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGlobalRef(t *testing.T) {
	rt := newTestRuntime(t, 3, false)
	err := rt.Finish(func(ctx *Ctx) {
		var gr GlobalRef[string]
		ctx.At(rt.Place(1), func(c *Ctx) {
			gr = NewGlobalRef(c, "hello")
		})
		if gr.Home().ID != 1 {
			t.Errorf("Home = %v", gr.Home())
		}
		got := Eval(ctx, gr.Home(), func(c *Ctx) string { return gr.Get(c) })
		if got != "hello" {
			t.Errorf("Get = %q", got)
		}
		ctx.At(gr.Home(), func(c *Ctx) { gr.Set(c, "bye") })
		got = Eval(ctx, gr.Home(), func(c *Ctx) string { return gr.Get(c) })
		if got != "bye" {
			t.Errorf("Get after Set = %q", got)
		}
		gr.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGlobalRefWrongPlacePanics(t *testing.T) {
	rt := newTestRuntime(t, 2, false)
	err := rt.Finish(func(ctx *Ctx) {
		gr := NewGlobalRef(ctx, 42) // homed at place 0
		ctx.At(rt.Place(1), func(c *Ctx) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic dereferencing at wrong place")
				}
			}()
			_ = gr.Get(c)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAddPlacesElastic(t *testing.T) {
	rt := newTestRuntime(t, 2, true)
	added, err := rt.AddPlaces(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 3 || added[0].ID != 2 || added[2].ID != 4 {
		t.Fatalf("added = %v", added)
	}
	if rt.World().Size() != 5 {
		t.Fatalf("world = %v", rt.World())
	}
	// New places are fully usable.
	err = ForEachPlace(rt, added, func(ctx *Ctx, idx int) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddPlaces(-1); err == nil {
		t.Error("expected error for negative AddPlaces")
	}
}

func TestStatsCounting(t *testing.T) {
	rt := newTestRuntime(t, 4, true)
	before := rt.Stats()
	err := ForEachPlace(rt, rt.World(), func(ctx *Ctx, idx int) {
		ctx.Transfer(rt.Place(0), 1000)
	})
	if err != nil {
		t.Fatal(err)
	}
	d := rt.Stats().Sub(before)
	if d.TasksSpawned != 4 {
		t.Errorf("TasksSpawned = %d, want 4", d.TasksSpawned)
	}
	// 4 forks + 4 joins + 1 wait = 9 ledger events.
	if d.LedgerEvents != 9 {
		t.Errorf("LedgerEvents = %d, want 9", d.LedgerEvents)
	}
	// 3 transfers cross places (place 0's transfer to itself is free).
	if d.Bytes != 3000 {
		t.Errorf("Bytes = %d, want 3000", d.Bytes)
	}
}

func TestLedgerCostHookRuns(t *testing.T) {
	var calls atomic.Int64
	rt, err := New(
		WithPlaces(2),
		WithResilient(true),
		WithLedgerCost(func(live int) {
			if live < 0 {
				t.Errorf("negative live count %d", live)
			}
			calls.Add(1)
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if err := ForEachPlace(rt, rt.World(), func(*Ctx, int) {}); err != nil {
		t.Fatal(err)
	}
	// 2 forks + 2 joins + 1 wait.
	if calls.Load() != 5 {
		t.Errorf("LedgerCost calls = %d, want 5", calls.Load())
	}
}

// TestAtCountsOneHop pins what an At costs: one place-crossing message
// of no payload for the request leg, none for the return leg, and nothing
// at all when the target is the caller's own place.
func TestAtCountsOneHop(t *testing.T) {
	rt := newTestRuntime(t, 2, false)
	before := rt.Stats()
	err := rt.Finish(func(ctx *Ctx) {
		ctx.At(ctx.Here, func(*Ctx) {})
		_ = Eval(ctx, ctx.Here, func(*Ctx) int { return 1 })
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := rt.Stats().Sub(before); d.Messages != 0 || d.Bytes != 0 {
		t.Fatalf("At to the caller's own place counted: %+v", d)
	}
	before = rt.Stats()
	err = rt.Finish(func(ctx *Ctx) {
		ctx.At(rt.Place(1), func(*Ctx) {})
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := rt.Stats().Sub(before); d.Messages != 1 || d.Bytes != 0 {
		t.Fatalf("remote At counted %d messages, %d bytes; want 1, 0", d.Messages, d.Bytes)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	rt, err := New(WithPlaces(2), WithResilient(true))
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	rt.Shutdown()
	if _, err := rt.AddPlaces(1); !errors.Is(err, ErrShutdown) {
		t.Errorf("AddPlaces after shutdown = %v, want ErrShutdown", err)
	}
}

func TestMultipleFailuresInOneFinish(t *testing.T) {
	rt := newTestRuntime(t, 5, true)
	started := make(chan struct{}, 2)
	err := rt.Finish(func(ctx *Ctx) {
		for _, id := range []int{2, 3} {
			p := rt.Place(id)
			ctx.AsyncAt(p, func(c *Ctx) {
				started <- struct{}{}
				for {
					c.CheckAlive()
					time.Sleep(time.Millisecond)
				}
			})
		}
		<-started
		<-started
		_ = rt.Kill(rt.Place(2))
		_ = rt.Kill(rt.Place(3))
	})
	dead := DeadPlaces(err)
	if len(dead) != 2 || dead[0].ID != 2 || dead[1].ID != 3 {
		t.Fatalf("DeadPlaces = %v, want [2 3]", dead)
	}
}
