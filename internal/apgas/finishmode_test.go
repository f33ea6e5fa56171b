package apgas

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/rgml/rgml/internal/obs"
)

func newModeRuntime(t *testing.T, places int, mode FinishMode, opts ...Option) *Runtime {
	t.Helper()
	rt, err := New(append([]Option{
		WithPlaces(places),
		WithResilient(true),
		WithFinishMode(mode),
	}, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

var bothModes = []FinishMode{FinishCentral, FinishSharded}

func TestParseFinishMode(t *testing.T) {
	for _, m := range bothModes {
		got, err := ParseFinishMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseFinishMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseFinishMode("bogus"); err == nil {
		t.Fatal("expected error for unknown mode")
	}
	if got := FinishMode(42).String(); got != "FinishMode(42)" {
		t.Fatalf("String() on out-of-range mode = %q", got)
	}
}

func TestFinishModeConfigValidation(t *testing.T) {
	if _, err := New(WithPlaces(1), WithFinishMode(FinishMode(7))); err == nil {
		t.Fatal("expected error for unknown finish mode")
	}
	if _, err := New(WithPlaces(1), WithLedgerQueue(-1)); err == nil {
		t.Fatal("expected error for negative ledger queue")
	}
}

// TestFinishModesBasicEquivalence runs the same fan-out/fan-in program
// under both modes and checks the observable results agree.
func TestFinishModesBasicEquivalence(t *testing.T) {
	for _, mode := range bothModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rt := newModeRuntime(t, 4, mode)
			var mu sync.Mutex
			hits := make(map[int]int)
			err := rt.Finish(func(ctx *Ctx) {
				for _, p := range rt.World() {
					for k := 0; k < 8; k++ {
						p := p
						ctx.AsyncAt(p, func(c *Ctx) {
							// Nested remote and local spawns exercise the
							// batch and fast paths.
							c.AsyncAt(rt.Place(0), func(c2 *Ctx) {
								mu.Lock()
								hits[-1]++
								mu.Unlock()
							})
							mu.Lock()
							hits[c.Here.ID]++
							mu.Unlock()
						})
					}
				}
			})
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			for _, p := range rt.World() {
				if hits[p.ID] != 8 {
					t.Fatalf("place %d ran %d tasks, want 8", p.ID, hits[p.ID])
				}
			}
			if hits[-1] != 32 {
				t.Fatalf("nested tasks ran %d times, want 32", hits[-1])
			}
		})
	}
}

// TestFinishModesErrorCollection checks thrown errors surface identically.
func TestFinishModesErrorCollection(t *testing.T) {
	boom := errors.New("boom")
	for _, mode := range bothModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rt := newModeRuntime(t, 3, mode)
			err := rt.Finish(func(ctx *Ctx) {
				ctx.AsyncAt(rt.Place(1), func(c *Ctx) { Throw(boom) })
				ctx.AsyncAt(rt.Place(0), func(c *Ctx) { Throw(boom) })
			})
			if err == nil || !errors.Is(err, boom) {
				t.Fatalf("Finish err = %v, want boom", err)
			}
		})
	}
}

// TestShardedLargeFanOut spawns well past the fork batch cap from a single
// activity, at every place, with nested spawn-then-return patterns that
// provoke the early-join window.
func TestShardedLargeFanOut(t *testing.T) {
	rt := newModeRuntime(t, 5, FinishSharded)
	const perPlace = 3 * forkBatchCap // forces several flushes per activity
	var n sync.WaitGroup
	var count atomic64
	err := rt.Finish(func(ctx *Ctx) {
		for _, p := range rt.World() {
			p := p
			for k := 0; k < perPlace; k++ {
				ctx.AsyncAt(p, func(c *Ctx) {
					count.add(1)
				})
			}
		}
	})
	n.Wait()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := count.load(); got != int64(5*perPlace) {
		t.Fatalf("ran %d tasks, want %d", got, 5*perPlace)
	}
}

// atomic64 is a tiny helper avoiding an import cycle on sync/atomic naming.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// TestShardedLocalFastPath verifies home-place tasks bypass the shard (no
// ledger events) and are counted by the local-fast instrumentation.
func TestShardedLocalFastPath(t *testing.T) {
	reg := obs.NewRegistry()
	rt := newModeRuntime(t, 2, FinishSharded, WithObs(reg))
	before := rt.Stats()
	err := rt.Finish(func(ctx *Ctx) {
		for i := 0; i < 100; i++ {
			ctx.AsyncAt(rt.Place(0), func(c *Ctx) {})
		}
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	d := rt.Stats().Sub(before)
	if d.LocalTasks != 100 {
		t.Fatalf("LocalTasks = %d, want 100", d.LocalTasks)
	}
	// The only ledger traffic should be the wait round(s); the hundred
	// local tasks must not have produced fork/join events.
	if d.LedgerEvents > 10 {
		t.Fatalf("LedgerEvents = %d for an all-local finish, want only wait traffic", d.LedgerEvents)
	}
	if v := reg.Counter("apgas.ledger.local_fast").Value(); v != 100 {
		t.Fatalf("apgas.ledger.local_fast = %d, want 100", v)
	}
}

// TestLedgerQueueBackpressure drives a tiny bookkeeping queue hard enough
// to saturate it and checks the backpressure counter fires (satellite:
// queue_full observability) in both modes.
func TestLedgerQueueBackpressure(t *testing.T) {
	for _, mode := range bothModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			reg := obs.NewRegistry()
			rt := newModeRuntime(t, 2, mode,
				WithObs(reg),
				WithLedgerQueue(1),
				WithLedgerCost(func(live int) {
					for i := 0; i < 2000; i++ {
						_ = i * i
					}
				}),
			)
			err := rt.Finish(func(ctx *Ctx) {
				for i := 0; i < 400; i++ {
					ctx.AsyncAt(rt.Place(1), func(c *Ctx) {})
				}
			})
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			if reg.Counter("apgas.ledger.queue_full").Value() == 0 {
				t.Fatalf("queue_full counter never fired with capacity-1 queue")
			}
		})
	}
}

// TestRefusedForkCounter kills a place, then spawns at it: the fork must be
// refused, counted, and traced, and the finish must observe DeadPlaceError
// — identically in both modes, including a refused *home* spawn.
func TestRefusedForkCounter(t *testing.T) {
	for _, mode := range bothModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			reg := obs.NewRegistry()
			rt := newModeRuntime(t, 3, mode, WithObs(reg))
			if err := rt.Kill(rt.Place(2)); err != nil {
				t.Fatalf("Kill: %v", err)
			}
			err := rt.Finish(func(ctx *Ctx) {
				ctx.AsyncAt(rt.Place(2), func(c *Ctx) {
					t.Error("task body ran at a dead place")
				})
			})
			if !IsDeadPlace(err) {
				t.Fatalf("Finish err = %v, want DeadPlaceError", err)
			}
			if got := rt.Stats().RefusedForks; got != 1 {
				t.Fatalf("RefusedForks = %d, want 1", got)
			}
			if v := reg.Counter("apgas.ledger.refused_forks").Value(); v != 1 {
				t.Fatalf("apgas.ledger.refused_forks = %d, want 1", v)
			}
			found := false
			for _, ev := range reg.TraceEvents() {
				if ev.Name == "apgas.ledger.refused_fork" {
					found = true
				}
			}
			if !found {
				t.Fatal("no apgas.ledger.refused_fork trace event")
			}
		})
	}
}

// TestRefusedLocalFork exercises the refusal of a home spawn (the sharded
// fast path's target): a finish homed at a place that dies refuses later
// home spawns. The death releases the outer finish as soon as the ledger
// terminates the orphan, which can be before the orphan's goroutine
// reaches the refused spawn, so the counter is read only after the outer
// task has returned.
func TestRefusedLocalFork(t *testing.T) {
	for _, mode := range bothModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rt := newModeRuntime(t, 3, mode)
			returned := make(chan struct{})
			err := rt.Finish(func(ctx *Ctx) {
				ctx.AsyncAt(rt.Place(1), func(c *Ctx) {
					defer close(returned)
					// A finish homed at place 1.
					ferr := c.FinishFrom(func(inner *Ctx) {
						if kerr := rt.Kill(rt.Place(1)); kerr != nil {
							t.Errorf("Kill: %v", kerr)
						}
						inner.AsyncAt(rt.Place(1), func(*Ctx) {})
					})
					if !IsDeadPlace(ferr) {
						t.Errorf("inner finish err = %v, want DeadPlaceError", ferr)
					}
				})
			})
			if !IsDeadPlace(err) {
				t.Fatalf("outer finish err = %v, want DeadPlaceError (task at killed place)", err)
			}
			<-returned
			if rt.Stats().RefusedForks == 0 {
				t.Fatal("refused local fork was not counted")
			}
		})
	}
}

// TestFinishModeStress is the -race stress test of the satellite: many
// overlapping finishes homed at many places, nested local and remote
// spawns past the batch cap, with places dying concurrently mid-flight.
// The assertions are (a) every finish returns (no lost release / hang),
// and (b) failures surface only as DeadPlaceError.
func TestFinishModeStress(t *testing.T) {
	for _, mode := range bothModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			const places = 8
			rt := newModeRuntime(t, places, mode)
			var wg sync.WaitGroup
			// Concurrent killers take down two places while the finishes
			// are in flight.
			for _, victim := range []int{3, 6} {
				victim := victim
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = rt.Kill(rt.Place(victim))
				}()
			}
			// Overlapping finishes homed at every place.
			for home := 0; home < places; home++ {
				home := home
				wg.Add(1)
				go func() {
					defer wg.Done()
					err := rt.Finish(func(ctx *Ctx) {
						ctx.AsyncAt(rt.Place(home), func(c *Ctx) {
							err := c.FinishFrom(func(inner *Ctx) {
								for k := 0; k < forkBatchCap+9; k++ {
									target := rt.Place((home + k) % places)
									inner.AsyncAt(target, func(g *Ctx) {
										// One more local hop at the target.
										g.AsyncAt(g.Here, func(*Ctx) {})
									})
								}
							})
							if err != nil && !IsDeadPlace(err) {
								t.Errorf("inner finish (home %d): unexpected error %v", home, err)
							}
						})
					})
					if err != nil && !IsDeadPlace(err) {
						t.Errorf("outer finish (home %d): unexpected error %v", home, err)
					}
				}()
			}
			wg.Wait()
			// The runtime must still be functional for survivors.
			if err := rt.Finish(func(ctx *Ctx) {
				for _, p := range rt.World() {
					ctx.AsyncAt(p, func(*Ctx) {})
				}
			}); err != nil {
				t.Fatalf("post-stress finish on survivors: %v", err)
			}
		})
	}
}

// TestShardedElasticPlaces checks shards grow for elastically added places
// and a finish homed at a new place works.
func TestShardedElasticPlaces(t *testing.T) {
	rt := newModeRuntime(t, 2, FinishSharded)
	added, err := rt.AddPlaces(2)
	if err != nil {
		t.Fatalf("AddPlaces: %v", err)
	}
	err = rt.Finish(func(ctx *Ctx) {
		ctx.AsyncAt(added[1], func(c *Ctx) {
			if ferr := c.FinishFrom(func(inner *Ctx) {
				inner.AsyncAt(rt.Place(0), func(*Ctx) {})
				inner.AsyncAt(added[0], func(*Ctx) {})
				inner.AsyncAt(c.Here, func(*Ctx) {})
			}); ferr != nil {
				t.Errorf("finish homed at added place: %v", ferr)
			}
		})
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestShardedNetAccounting checks home-based hop charging: a finish whose
// activities all stay at its home place must generate no bookkeeping
// messages at all, while the central ledger charges every fork and join to
// place zero.
func TestShardedNetAccounting(t *testing.T) {
	run := func(mode FinishMode) int64 {
		rt, err := New(WithPlaces(4), WithResilient(true), WithFinishMode(mode))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer rt.Shutdown()
		before := rt.Stats()
		err = rt.Finish(func(ctx *Ctx) {
			ctx.AsyncAt(rt.Place(3), func(c *Ctx) {
				if ferr := c.FinishFrom(func(inner *Ctx) {
					for i := 0; i < 16; i++ {
						inner.AsyncAt(c.Here, func(*Ctx) {})
					}
				}); ferr != nil {
					t.Errorf("inner finish: %v", ferr)
				}
			})
		})
		if err != nil {
			t.Fatalf("Finish (%v): %v", mode, err)
		}
		return rt.Stats().Sub(before).Messages
	}
	central := run(FinishCentral)
	sharded := run(FinishSharded)
	if sharded >= central {
		t.Fatalf("sharded messages = %d, want fewer than central's %d (home-charged bookkeeping)", sharded, central)
	}
}

func TestFinishModeString(t *testing.T) {
	for _, mode := range bothModes {
		rt := newModeRuntime(t, 1, mode)
		if rt.FinishMode() != mode {
			t.Fatalf("FinishMode() = %v, want %v", rt.FinishMode(), mode)
		}
	}
	_ = fmt.Sprintf("%v %v", FinishCentral, FinishSharded)
}
