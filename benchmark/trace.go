package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
)

// Span kinds recorded at the transport seam: one per Send class, plus
// Exec (a kernel dispatched into a worker process).
const (
	spanExec  = transport.NumClasses
	spanKinds = transport.NumClasses + 1
)

func spanName(kind int) string {
	if kind == spanExec {
		return "exec"
	}
	return "send." + transport.Class(kind).String()
}

// span is one call through the transport seam, ns since procStart.
type span struct {
	kind       int
	start, end int64
}

// maxSpans bounds the spans kept in memory (24 MB); calls past it are
// still counted and timed in the totals, only their span is dropped.
const maxSpans = 1 << 20

// tracedTransport decorates the real backend at the transport.Transport
// and transport.Executor seams: every Send and Exec is forwarded
// unchanged and recorded as a span. Traced runs install it; end-to-end
// runs hand the runtime the bare backend.
type tracedTransport struct {
	inner transport.Transport
	exec  transport.Executor // nil when inner has no data plane

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracedTransport(inner transport.Transport) *tracedTransport {
	t := &tracedTransport{inner: inner, spans: make([]span, 0, 1<<16)}
	t.exec, _ = inner.(transport.Executor)
	return t
}

func (t *tracedTransport) record(kind int, start int64) {
	end := sinceStart()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{kind, start, end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracedTransport) Name() string { return t.inner.Name() }
func (t *tracedTransport) Start(places int, h transport.Handler) error {
	return t.inner.Start(places, h)
}
func (t *tracedTransport) Kill(place int) error { return t.inner.Kill(place) }
func (t *tracedTransport) Grow(n int) error     { return t.inner.Grow(n) }
func (t *tracedTransport) Close() error         { return t.inner.Close() }

func (t *tracedTransport) Send(from, to int, class transport.Class, size int, payload []byte) (time.Duration, error) {
	if from == to {
		return t.inner.Send(from, to, class, size, payload)
	}
	start := sinceStart()
	d, err := t.inner.Send(from, to, class, size, payload)
	t.record(int(class), start)
	return d, err
}

// Exec implements transport.Executor. A nil task is the runtime's
// capability probe and is answered by the real backend.
func (t *tracedTransport) Exec(task *kernel.Task) (*kernel.Result, error) {
	if t.exec == nil {
		return nil, transport.ErrNoDataPlane
	}
	if task == nil {
		return t.exec.Exec(nil)
	}
	start := sinceStart()
	res, err := t.exec.Exec(task)
	t.record(spanExec, start)
	return res, err
}

// spanStats is what the transport spans inside successful steps add up to.
type spanStats struct {
	sends     int64
	sendNS    int64
	execs     int64
	execNS    int64
	execP50NS int64
}

// within aggregates the spans that started inside one of the given
// phases. The executor runs one phase at a time, so a span's parent is
// the phase whose interval contains its start.
func (t *tracedTransport) within(phases []phase, keep func(phase) bool) spanStats {
	var st spanStats
	var execs []int64
	t.eachChild(phases, func(p phase, sp span) {
		if !keep(p) {
			return
		}
		d := sp.end - sp.start
		if sp.kind == spanExec {
			st.execs++
			st.execNS += d
			execs = append(execs, d)
		} else {
			st.sends++
			st.sendNS += d
		}
	})
	if len(execs) > 0 {
		sort.Slice(execs, func(i, j int) bool { return execs[i] < execs[j] })
		st.execP50NS = execs[len(execs)/2]
	}
	return st
}

// eachChild calls fn for every span with the phase that contains its
// start; spans between phases (executor bookkeeping) are skipped.
func (t *tracedTransport) eachChild(phases []phase, fn func(phase, span)) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for _, sp := range spans {
		i := sort.Search(len(phases), func(i int) bool { return phases[i].end > sp.start })
		if i < len(phases) && phases[i].start <= sp.start {
			fn(phases[i], sp)
		}
	}
}

// covered returns how much of [lo, hi) the given spans cover (their
// union: spans of concurrent tasks overlap).
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total, edge int64 = 0, lo
	for _, sp := range spans {
		s, e := sp.start, sp.end
		if s < edge {
			s = edge
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			edge = e
		}
	}
	return total
}

// maxTraceEvents bounds the Chrome trace file; fine-grained workloads
// produce a million transport spans and the viewer needs only the first
// few hundred iterations to show the pattern.
const maxTraceEvents = 200000

// writeChromeTrace writes run > iter > step|ckpt|restore > send.*|exec
// as Chrome trace-event JSON (load in chrome://tracing or Perfetto).
// Phases sit on tid 1, the iteration and run spans that contain them on
// tid 0, transport spans on tid 2+kind; self time of a phase is its
// duration minus what its children cover, reported as args.self_us.
func writeChromeTrace(path string, runStart, runEnd int64, phases []phase, tt *tracedTransport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	n := 0
	emit := func(name string, tid int, start, end int64, args string) {
		if n > 0 {
			w.WriteString(",\n")
		}
		n++
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{%s}}`,
			name, tid, us(start), us(end-start), args)
	}
	w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	emit("run", 0, runStart, runEnd, "")

	children := make(map[int64][]span) // keyed by parent phase start
	if tt != nil {
		tt.eachChild(phases, func(p phase, sp span) {
			children[p.start] = append(children[p.start], sp)
		})
	}
	// An iter span runs from the first phase after the previous completed
	// step to the end of the next successful step, so a failed step, its
	// restore and the re-executed step share one iteration span.
	iterStart := int64(-1)
	for _, p := range phases {
		if p.start < runStart {
			continue
		}
		if iterStart < 0 {
			iterStart = p.start
		}
		kids := children[p.start]
		self := (p.end - p.start) - covered(kids, p.start, p.end)
		emit(phaseNames[p.kind], 1, p.start, p.end,
			fmt.Sprintf(`"iter":%d,"ok":%t,"self_us":%.3f`, p.iter, p.ok, us(self)))
		for _, sp := range kids {
			if n < maxTraceEvents {
				emit(spanName(sp.kind), 2+sp.kind, sp.start, sp.end, "")
			}
		}
		if p.kind == phStep && p.ok {
			emit("iter", 0, iterStart, p.end, fmt.Sprintf(`"iter":%d`, p.iter))
			iterStart = -1
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
