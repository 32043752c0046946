package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/dist"
)

// Every workload is a closed loop of calls from one caller. Call i of a
// run at seed s uses engine seed s+i, so a run's work is fixed by (s,
// calls) and no call is cut short by a clock.
const (
	// soak: clean §2 replication system, one worker; every execution runs
	// to its step bound, the shape liveness checking needs.
	soakScenario = "replsys-fixed"
	soakBudget   = 32
	soakSteps    = 8000

	// hunt: the Table 2 MigratingTable bug, first bug wins on nproc
	// workers, under the budget a user would hand an open-ended hunt.
	huntScenario = "InsertBehindMigrator"
	huntBudget   = 1_000_000

	// fleet: clean crash-plane WAL plans served by an in-process
	// coordinator to agents of one worker each, default lease size.
	fleetScenario  = "wal-fixed"
	fleetLeaseSize = 256
	fleetLeases    = 36
	fleetBudget    = fleetLeases * fleetLeaseSize
	planTimeout    = 60 * time.Second
)

// workload is one benchmark workload: callsPerSecond sizes a run's fixed
// work so that it lasts about --seconds on a 2-vCPU host.
type workload struct {
	name           string
	callsPerSecond float64
	run            func(e *env, o *outcome, seed int64, calls int) error
}

var workloads = []workload{
	{"soak", 8, runSoak},
	{"hunt", 21, runHunt},
	{"fleet", 5.5, runFleet},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (soak, hunt, fleet)", name)
}

// parallelism is the number of exploring goroutines (hunt workers, fleet
// agents): two, but never more than the host's CPUs.
func parallelism() int { return min(2, runtime.NumCPU()) }

// env is what a pass hands the workload: the scheduler name to explore
// with and, in the traced pass, the probes and span log.
type env struct {
	sched  string
	traced bool
	tr     *tracer
	root   int
	sp     *schedProbe
	mp     *monitorProbe
	ds     *distStats
	p      probe

	mu     sync.Mutex // guards agent-side records in outcome
	agents []*agentProbe
}

// outcome is everything a pass measured.
type outcome struct {
	attempted, failed int
	failures          []string

	setupS   []float64 // call → first execution start
	verdictS []float64 // call → verdict (+Inf for a failed hunt)
	callS    float64   // Σ call wall
	execs    int64     // canonical executions (Result.Executions)
	steps    int64
	starts   int64 // Entry starts seen inside calls

	ttbExecs, choices, traceBytes, replayS, buildS []float64

	counters map[string]int64 // traced pass: folded per-step counters
	fp       hash.Hash64
}

func newOutcome() *outcome {
	return &outcome{counters: map[string]int64{}, fp: fnv.New64a()}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// build times Scenario.Test() and wraps the result in the pass's probes.
func (e *env) build(sc gostorm.Scenario, parent int, ag *agentProbe, o *outcome) gostorm.Test {
	id := e.tr.begin("build", parent)
	t0 := now()
	t := sc.Test()
	d := float64(now()-t0) / 1e9
	e.tr.end(id, nil)
	e.mu.Lock()
	o.buildS = append(o.buildS, d)
	e.mu.Unlock()
	return e.p.wrapTest(t, ag, e.mp)
}

// collect folds the probes' per-step counters into the span and outcome.
func (e *env) collect(o *outcome, startsBefore int64) map[string]int64 {
	starts := e.p.starts.Load() - startsBefore
	o.starts += starts
	if !e.traced {
		return nil
	}
	c := map[string]int64{"entry.starts": starts}
	e.sp.collect(c)
	e.mp.collect(c)
	for k, v := range c {
		o.counters[k] += v
	}
	return c
}

// explore makes one timed Explore call.
func (e *env) explore(o *outcome, t gostorm.Test, opts []gostorm.Option) (gostorm.Result, error) {
	id := e.tr.begin("explore", e.root)
	before := e.p.starts.Load()
	e.p.arm()
	t0 := now()
	res, err := gostorm.Explore(t, opts...)
	t1 := now()
	e.tr.end(id, e.collect(o, before))
	o.attempted++
	o.callS += float64(t1-t0) / 1e9
	o.setupS = append(o.setupS, e.p.firstSince(t0))
	o.verdictS = append(o.verdictS, float64(t1-t0)/1e9)
	o.execs += int64(res.Executions)
	o.steps += res.TotalSteps
	return res, err
}

func runSoak(e *env, o *outcome, seed int64, calls int) error {
	sc, err := gostorm.ScenarioByName(soakScenario)
	if err != nil {
		return err
	}
	for i := 0; i < calls; i++ {
		t := e.build(sc, e.root, nil, o)
		res, err := e.explore(o, t, append(sc.Options(),
			gostorm.WithScheduler(e.sched), gostorm.WithSeed(seed+int64(i)), gostorm.WithWorkers(1),
			gostorm.WithIterations(soakBudget), gostorm.WithMaxSteps(soakSteps)))
		fmt.Fprintf(o.fp, "soak %d: err=%v bug=%v execs=%d steps=%d\n", seed+int64(i), err, res.BugFound, res.Executions, res.TotalSteps)
		switch {
		case err != nil:
			o.fail("soak call %d: %v", i, err)
		case res.BugFound:
			o.fail("soak call %d: clean scenario reported %v", i, res.Report)
		case res.Executions != soakBudget || res.TotalSteps != soakBudget*soakSteps:
			o.fail("soak call %d: %d executions, %d steps; want %d, %d", i, res.Executions, res.TotalSteps, soakBudget, soakBudget*soakSteps)
		}
	}
	return nil
}

func runHunt(e *env, o *outcome, seed int64, calls int) error {
	sc, err := gostorm.ScenarioByName(huntScenario)
	if err != nil {
		return err
	}
	for i := 0; i < calls; i++ {
		t := e.build(sc, e.root, nil, o)
		res, err := e.explore(o, t, append(sc.Options(),
			gostorm.WithScheduler(e.sched), gostorm.WithSeed(seed+int64(i)),
			gostorm.WithWorkers(parallelism()), gostorm.WithIterations(huntBudget)))
		if err != nil || !res.BugFound {
			o.verdictS[len(o.verdictS)-1] = math.Inf(1)
			fmt.Fprintf(o.fp, "hunt %d: err=%v bug=false execs=%d\n", seed+int64(i), err, res.Executions)
			o.fail("hunt call %d: no bug found (err %v, %d executions)", i, err, res.Executions)
			continue
		}
		rep := res.Report
		fmt.Fprintf(o.fp, "hunt %d: execs=%d steps=%d choices=%d decisions=%x\n",
			seed+int64(i), res.Executions, res.TotalSteps, res.Choices, decisionHash(rep.Trace))
		o.ttbExecs = append(o.ttbExecs, float64(res.Executions))
		o.choices = append(o.choices, float64(res.Choices))
		if err := checkWinner(e, o, sc, rep); err != nil {
			o.verdictS[len(o.verdictS)-1] = math.Inf(1)
			o.fail("hunt call %d: %v", i, err)
		}
	}
	return nil
}

// checkWinner round-trips the winning trace through Encode/DecodeTrace and
// replays the decoded trace on a fresh test; it must reproduce the bug.
func checkWinner(e *env, o *outcome, sc gostorm.Scenario, rep *gostorm.BugReport) error {
	enc, err := rep.Trace.Encode()
	if err != nil {
		return fmt.Errorf("encoding winning trace: %w", err)
	}
	o.traceBytes = append(o.traceBytes, float64(len(enc)))
	dec, err := gostorm.DecodeTrace(enc)
	if err != nil {
		return fmt.Errorf("decoding winning trace: %w", err)
	}
	if again, err := dec.Encode(); err != nil || !bytes.Equal(again, enc) {
		return fmt.Errorf("winning trace does not round-trip byte for byte (err %v)", err)
	}
	t := sc.Test()
	id := e.tr.begin("replay", e.root)
	t0 := now()
	got, err := gostorm.Replay(t, dec, sc.Options()...)
	o.replayS = append(o.replayS, float64(now()-t0)/1e9)
	e.tr.end(id, nil)
	switch {
	case err != nil:
		return fmt.Errorf("replaying winning trace: %w", err)
	case got == nil:
		return fmt.Errorf("replay of winning trace found no bug")
	case got.Kind != rep.Kind || got.Message != rep.Message:
		return fmt.Errorf("replay reproduced %v %q, want %v %q", got.Kind, got.Message, rep.Kind, rep.Message)
	}
	return nil
}

// decisionHash hashes a trace's decisions only: the scheduler name in the
// trace differs between the untraced and the traced pass.
func decisionHash(tr *gostorm.Trace) uint64 {
	h := fnv.New64a()
	b, err := json.Marshal(tr.Decisions)
	if err != nil {
		return 0
	}
	h.Write(b)
	return h.Sum64()
}

func runFleet(e *env, o *outcome, seed int64, calls int) error {
	sc, err := gostorm.ScenarioByName(fleetScenario)
	if err != nil {
		return err
	}
	cfg, err := gostorm.Resolve(sc.Test(), sc.Options()...)
	if err != nil {
		return err
	}
	for i := 0; i < calls; i++ {
		if err := e.plan(o, sc, seed+int64(i), cfg.MaxSteps); err != nil {
			o.fail("fleet plan %d: %v", i, err)
		}
	}
	return nil
}

// plan runs one fleet plan: a fresh coordinator on a loopback server and
// parallelism() agents of one worker each, timed from the coordinator's
// start to its completion.
func (e *env) plan(o *outcome, sc gostorm.Scenario, seed int64, maxSteps int) error {
	id := e.tr.begin("plan", e.root)
	before := e.p.starts.Load()
	e.p.arm()
	t0 := now()
	o.attempted++
	co, err := dist.New(dist.Config{
		Scenario:  sc.Name,
		Options:   core.Options{Scheduler: e.sched, Seed: seed, Iterations: fleetBudget, MaxSteps: maxSteps},
		LeaseSize: fleetLeaseSize,
	})
	if err != nil {
		e.tr.end(id, nil)
		return err
	}
	n := parallelism()
	probes := map[string]*agentProbe{}
	for a := 0; a < n; a++ {
		probes[fmt.Sprintf("agent-%d", a)] = &agentProbe{}
	}
	handler := co.Handler()
	if e.traced {
		handler = &handlerProbe{inner: handler, tr: e.tr, parent: id, agents: probes, stats: e.ds}
	}
	srv := httptest.NewServer(handler)
	ctx, cancel := context.WithCancel(context.Background())
	errs := make([]error, n)
	var wg sync.WaitGroup
	for a := 0; a < n; a++ {
		name := fmt.Sprintf("agent-%d", a)
		ag, err := dist.NewAgent(dist.AgentConfig{
			Coordinator: srv.URL,
			Name:        name,
			Workers:     1,
			BuildTest: func(scenario string) (core.Test, error) {
				if scenario != sc.Name {
					return core.Test{}, fmt.Errorf("plan names scenario %q, want %q", scenario, sc.Name)
				}
				var ag *agentProbe
				if e.traced {
					ag = probes[name]
				}
				return e.build(sc, id, ag, o), nil
			},
		})
		if err != nil {
			errs[a] = err
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[a] = ag.Run(ctx)
		}()
	}
	timeout := time.NewTimer(planTimeout)
	var t1 int64
	select {
	case <-co.Done():
		t1 = now()
	case <-timeout.C:
	}
	timeout.Stop()
	cancel()
	wg.Wait()
	srv.Close()
	e.tr.end(id, e.collect(o, before))
	e.mu.Lock()
	for _, p := range probes {
		e.agents = append(e.agents, p)
	}
	e.mu.Unlock()

	res := co.Result()
	fmt.Fprintf(o.fp, "fleet %d: bug=%v execs=%d steps=%d mismatches=%d\n", seed, res.BugFound, res.Executions, res.TotalSteps, res.Mismatches)
	if t1 == 0 {
		o.verdictS = append(o.verdictS, math.Inf(1))
		return fmt.Errorf("plan did not finish within %v", planTimeout)
	}
	o.callS += float64(t1-t0) / 1e9
	o.setupS = append(o.setupS, e.p.firstSince(t0))
	o.verdictS = append(o.verdictS, float64(t1-t0)/1e9)
	o.execs += res.Executions
	o.steps += res.TotalSteps
	for a, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Errorf("agent-%d: %w", a, err)
		}
	}
	switch {
	case res.BugFound:
		return fmt.Errorf("clean scenario reported %s", res.Message)
	case res.Executions != fleetBudget:
		return fmt.Errorf("resolved %d positions, want %d", res.Executions, fleetBudget)
	case res.Mismatches != 0:
		return fmt.Errorf("determinism violation: %s", res.FirstMismatch)
	}
	return nil
}
