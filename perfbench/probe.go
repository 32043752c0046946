package main

// Probes sit on the boundary between the benchmark and the system under
// test: a wrapper around Test.Entry (always on, it sees each execution
// start), and, in the traced pass only, wrappers around the scheduler, the
// monitors and the coordinator's HTTP handler, plus an in-memory span log.
// Nothing here reaches inside the engine.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/internal/core"
)

// epoch anchors every timestamp the probes take; now() is monotonic.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// probe counts execution starts and remembers the first start after arm.
type probe struct {
	starts     atomic.Int64
	firstEntry atomic.Int64 // now() of the first start since arm; 0 = none yet
}

// arm marks the start of a call; firstSince reports the time from t0 to the
// call's first execution start.
func (p *probe) arm() { p.firstEntry.Store(0) }

func (p *probe) firstSince(t0 int64) float64 {
	f := p.firstEntry.Load()
	if f == 0 {
		return 0
	}
	return float64(f-t0) / 1e9
}

// wrapTest returns t with its Entry observed by p (and, on an agent, by
// the agent's lease tracker), and its monitors wrapped when mons is set.
func (p *probe) wrapTest(t gostorm.Test, ag *agentProbe, mons *monitorProbe) gostorm.Test {
	entry := t.Entry
	t.Entry = func(ctx *core.Context) {
		p.starts.Add(1)
		if p.firstEntry.Load() == 0 {
			p.firstEntry.CompareAndSwap(0, now())
		}
		if ag != nil && ag.leaseFirst.Load() == 0 {
			ag.leaseFirst.CompareAndSwap(0, now())
		}
		entry(ctx)
	}
	if mons != nil {
		wrapped := make([]func() core.Monitor, len(t.Monitors))
		for i, mk := range t.Monitors {
			wrapped[i] = func() core.Monitor { return mons.wrap(mk()) }
		}
		t.Monitors = wrapped
	}
	return t
}

// span is one timed interval of the traced pass. Parent is the index of
// the enclosing span, -1 for the root.
type span struct {
	Name     string           `json:"name"`
	Parent   int              `json:"parent"`
	Start    int64            `json:"start_ns"`
	End      int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// tracer keeps the spans in memory until the run writes them out. A nil
// tracer records nothing, which is how the untraced pass runs.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (tr *tracer) begin(name string, parent int) int {
	if tr == nil {
		return -1
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Start: now()})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int, counters map[string]int64) {
	if tr == nil {
		return
	}
	t := now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].End = t
	tr.spans[id].Counters = counters
}

func (tr *tracer) add(s span) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, s)
}

// timedSched forwards to the random scheduler and times the calls the
// engine makes per execution (Prepare) and per step (NextMachine). Counters
// are plain fields: one instance belongs to one exploration worker, and the
// totals are read only after the call that owned the worker has returned.
type timedSched struct {
	inner                    core.Scheduler
	prepares, prepareNs      int64
	nexts, nextTimed, nextNs int64
	bools, ints, faults      int64
}

func (s *timedSched) Name() string { return s.inner.Name() }

func (s *timedSched) Prepare(seed int64, maxSteps int) bool {
	t := now()
	ok := s.inner.Prepare(seed, maxSteps)
	s.prepareNs += now() - t
	s.prepares++
	return ok
}

// NextMachine times one call in nextSample: reading the clock around every
// step would double the cost being measured.
func (s *timedSched) NextMachine(enabled []core.MachineID, current core.MachineID) core.MachineID {
	s.nexts++
	if s.nexts%nextSample != 0 {
		return s.inner.NextMachine(enabled, current)
	}
	t := now()
	m := s.inner.NextMachine(enabled, current)
	s.nextNs += now() - t
	s.nextTimed++
	return m
}

const nextSample = 16

func (s *timedSched) NextBool() bool    { s.bools++; return s.inner.NextBool() }
func (s *timedSched) NextInt(n int) int { s.ints++; return s.inner.NextInt(n) }

// NextFault answers a fault choice the way the engine would for the inner
// scheduler: through its own FaultScheduler, or uniformly via NextInt.
func (s *timedSched) NextFault(c core.FaultChoice) int {
	s.faults++
	if fs, ok := s.inner.(core.FaultScheduler); ok {
		return fs.NextFault(c)
	}
	return s.inner.NextInt(c.N)
}

func (s *timedSched) SetLengthHint(steps int) {
	if h, ok := s.inner.(core.LengthHinted); ok {
		h.SetLengthHint(steps)
	}
}

func (s *timedSched) AttachCorpus(c *core.Corpus) {
	if fs, ok := s.inner.(core.FeedbackScheduler); ok {
		fs.AttachCorpus(c)
	}
}

// schedProbe collects the timedSched instances the engine builds.
type schedProbe struct {
	name string
	mu   sync.Mutex
	live []*timedSched
}

var timedRandom struct {
	once sync.Once
	sp   *schedProbe
	err  error
}

// timedScheduler registers, once per process, timedSched around the random
// scheduler under a name private to the benchmark.
func timedScheduler() (*schedProbe, error) {
	timedRandom.once.Do(func() {
		sp := &schedProbe{name: "perfbench-timed-random"}
		timedRandom.sp = sp
		timedRandom.err = gostorm.RegisterScheduler(sp.name, gostorm.SchedulerSpec{
			New: func(int) core.Scheduler {
				s := &timedSched{inner: core.NewRandomScheduler()}
				sp.mu.Lock()
				sp.live = append(sp.live, s)
				sp.mu.Unlock()
				return s
			},
		})
	})
	return timedRandom.sp, timedRandom.err
}

// collect folds the instances built since the last collect into counters.
func (sp *schedProbe) collect(into map[string]int64) {
	sp.mu.Lock()
	live := sp.live
	sp.live = nil
	sp.mu.Unlock()
	for _, s := range live {
		into["sched.prepare.calls"] += s.prepares
		into["sched.prepare.ns"] += s.prepareNs
		into["sched.next.calls"] += s.nexts
		into["sched.next.timed"] += s.nextTimed
		into["sched.next.ns"] += s.nextNs
		into["sched.decisions"] += s.nexts + s.bools + s.ints + s.faults
	}
}

// timedMonitor forwards to a monitor and times its Init and Handle calls.
type timedMonitor struct {
	inner     core.Monitor
	calls, ns int64
}

func (m *timedMonitor) Name() string { return m.inner.Name() }

func (m *timedMonitor) Init(mc *core.MonitorContext) {
	t := now()
	m.inner.Init(mc)
	m.ns += now() - t
	m.calls++
}

func (m *timedMonitor) Handle(mc *core.MonitorContext, ev core.Event) {
	t := now()
	m.inner.Handle(mc, ev)
	m.ns += now() - t
	m.calls++
}

// monitorProbe collects the monitor wrappers built for each execution.
type monitorProbe struct {
	mu   sync.Mutex
	live []*timedMonitor
}

func (mp *monitorProbe) wrap(m core.Monitor) core.Monitor {
	tm := &timedMonitor{inner: m}
	mp.mu.Lock()
	mp.live = append(mp.live, tm)
	mp.mu.Unlock()
	return tm
}

func (mp *monitorProbe) collect(into map[string]int64) {
	mp.mu.Lock()
	live := mp.live
	mp.live = nil
	mp.mu.Unlock()
	for _, m := range live {
		into["monitor.calls"] += m.calls
		into["monitor.ns"] += m.ns
	}
}

// agentProbe tracks one fleet agent: the first execution start since its
// last report, and the time it spent between that start and the report.
type agentProbe struct {
	leaseFirst atomic.Int64
	busyNs     atomic.Int64
}

// endpointStats aggregates one control-plane endpoint's requests.
type endpointStats struct {
	serverMs, reqBytes, respBytes []float64
}

// handlerProbe wraps the coordinator's handler: it times each request on
// the server, counts bytes both ways, records a span per request and
// charges agents' lease time to their busy totals when they report.
type handlerProbe struct {
	inner  http.Handler
	tr     *tracer
	parent int
	agents map[string]*agentProbe
	stats  *distStats
}

// distStats accumulates the control plane's numbers across a pass's plans.
type distStats struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
	errors    int64
	serverNs  int64
}

type countingWriter struct {
	http.ResponseWriter
	n      int
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

func (h *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	endpoint := strings.TrimPrefix(r.URL.Path, "/v1/")
	if endpoint == "report" {
		var req struct {
			Agent string `json:"agent"`
		}
		if json.Unmarshal(body, &req) == nil {
			if a := h.agents[req.Agent]; a != nil {
				if f := a.leaseFirst.Swap(0); f != 0 {
					a.busyNs.Add(start - f)
				}
			}
		}
	}
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	h.inner.ServeHTTP(cw, r)
	end := now()
	h.tr.add(span{Name: "dist." + endpoint, Parent: h.parent, Start: start, End: end})
	ds := h.stats
	ds.mu.Lock()
	defer ds.mu.Unlock()
	es := ds.endpoints[endpoint]
	if es == nil {
		es = &endpointStats{}
		ds.endpoints[endpoint] = es
	}
	es.serverMs = append(es.serverMs, float64(end-start)/1e6)
	es.reqBytes = append(es.reqBytes, float64(len(body)))
	es.respBytes = append(es.respBytes, float64(cw.n))
	ds.serverNs += end - start
	if cw.status >= 400 {
		ds.errors++
	}
}
