package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/internal/core"
)

// endToEndUnits and perLayerUnits name every metric a run prints, with its
// unit; the self-test holds them to BENCHMARK.json.
var endToEndUnits = map[string]string{
	"setup_s": "s", "execs_per_s": "1/s", "ttb_s_p50": "s", "ttb_s_p90": "s", "peak_rss_mb": "MB",
}

var perLayerUnits = map[string]string{
	"catalog.build_s":                "s",
	"core.explore.first_exec_s":      "s",
	"core.explore.executions":        "count",
	"core.explore.steps":             "count",
	"core.explore.ttb_execs_p50":     "count",
	"core.explore.ttb_execs_p90":     "count",
	"core.explore.wasted_ratio":      "ratio",
	"core.sched.decisions_per_exec":  "count",
	"core.sched.next_ns":             "ns",
	"core.sched.prepare_ns":          "ns",
	"core.step.floor_ns":             "ns",
	"core.exec.floor_ns":             "ns",
	"core.replay.s_p50":              "s",
	"core.trace.choices_p50":         "count",
	"core.trace.bytes_p50":           "bytes",
	"core.alloc.objects_per_exec":    "count",
	"core.alloc.bytes_per_exec":      "bytes",
	"harness.step_ns":                "ns",
	"harness.monitor.calls_per_exec": "count",
	"harness.monitor.ns_per_call":    "ns",
	"dist.join.count":                "count",
	"dist.lease.count":               "count",
	"dist.report.count":              "count",
	"dist.status.count":              "count",
	"dist.join.server_ms_p50":        "ms",
	"dist.lease.server_ms_p50":       "ms",
	"dist.report.server_ms_p50":      "ms",
	"dist.status.server_ms_p50":      "ms",
	"dist.lease.resp_bytes_p50":      "bytes",
	"dist.report.req_bytes_p50":      "bytes",
	"dist.errors":                    "count",
	"dist.control_share":             "ratio",
	"dist.agent.busy_share":          "ratio",
	"cpu_share.core":                 "ratio",
	"cpu_share.harness":              "ratio",
	"cpu_share.dist":                 "ratio",
	"cpu_share.go_sched":             "ratio",
	"cpu_share.go_gc":                "ratio",
	"cpu_share.rand":                 "ratio",
	"cpu_share.other":                "ratio",
	"trace.overhead_share":           "ratio",
}

// perLayer computes the traced run's metrics. Timings come from the
// untraced pass o1 where it has them; probe counters from the traced pass.
// A metric of a layer the workload does not reach reads 0.
func perLayer(name string, o1, o2 *outcome, e2 *env, fl floors, shares map[string]float64, ms0, ms1 *runtime.MemStats) map[string]metric {
	v := map[string]float64{}
	c := o2.counters
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["catalog.build_s"] = median(o1.buildS)
	v["core.explore.first_exec_s"] = median(o1.setupS)
	v["core.explore.executions"] = float64(o1.execs)
	v["core.explore.steps"] = float64(o1.steps)
	v["core.explore.ttb_execs_p50"] = quantile(o1.ttbExecs, 0.5)
	v["core.explore.ttb_execs_p90"] = quantile(o1.ttbExecs, 0.9)
	// Starts beyond the canonical executions and each call's confirmation
	// replay are work thrown away past the winner.
	wasted := o1.starts - o1.execs - int64(len(o1.ttbExecs))
	v["core.explore.wasted_ratio"] = div(float64(max(wasted, 0)), float64(o1.starts))
	v["core.sched.decisions_per_exec"] = div(float64(c["sched.decisions"]), float64(c["sched.prepare.calls"]))
	v["core.sched.next_ns"] = div(float64(c["sched.next.ns"]), float64(c["sched.next.timed"]))
	v["core.sched.prepare_ns"] = div(float64(c["sched.prepare.ns"]), float64(c["sched.prepare.calls"]))
	v["core.step.floor_ns"] = fl.stepNs
	v["core.exec.floor_ns"] = fl.execNs
	v["core.replay.s_p50"] = median(o1.replayS)
	v["core.trace.choices_p50"] = median(o1.choices)
	v["core.trace.bytes_p50"] = median(o1.traceBytes)
	execStarts := float64(o1.starts + int64(len(o1.replayS)))
	v["core.alloc.objects_per_exec"] = div(float64(ms1.Mallocs-ms0.Mallocs), execStarts)
	v["core.alloc.bytes_per_exec"] = div(float64(ms1.TotalAlloc-ms0.TotalAlloc), execStarts)
	if name != "fleet" {
		// NextMachine runs once per step, so its calls count every step
		// started, wasted ones included; the untraced wall covers them.
		nsPerStep := div(o1.callS*1e9*float64(workersFor(name)), float64(c["sched.next.calls"]))
		v["harness.step_ns"] = nsPerStep - fl.stepNs
	}
	v["harness.monitor.calls_per_exec"] = div(float64(c["monitor.calls"]), float64(c["entry.starts"]))
	v["harness.monitor.ns_per_call"] = div(float64(c["monitor.ns"]), float64(c["monitor.calls"]))

	ds := e2.ds
	for _, ep := range []string{"join", "lease", "report", "status"} {
		if es := ds.endpoints[ep]; es != nil {
			v["dist."+ep+".count"] = float64(len(es.serverMs))
			v["dist."+ep+".server_ms_p50"] = median(es.serverMs)
		}
	}
	if es := ds.endpoints["lease"]; es != nil {
		v["dist.lease.resp_bytes_p50"] = median(es.respBytes)
	}
	if es := ds.endpoints["report"]; es != nil {
		v["dist.report.req_bytes_p50"] = median(es.reqBytes)
	}
	v["dist.errors"] = float64(ds.errors)
	if name == "fleet" {
		agentNs := o2.callS * 1e9 * float64(parallelism())
		var busy int64
		for _, a := range e2.agents {
			busy += a.busyNs.Load()
		}
		v["dist.control_share"] = div(float64(ds.serverNs), agentNs)
		v["dist.agent.busy_share"] = div(float64(busy), agentNs)
	}
	for k, s := range shares {
		v["cpu_share."+k] = s
	}
	v["trace.overhead_share"] = div(o2.callS, o1.callS) - 1

	out := make(map[string]metric, len(perLayerUnits))
	for k, unit := range perLayerUnits {
		out[k] = metric{v[k], unit}
	}
	return out
}

// workersFor is the number of goroutines exploring at once in a workload.
func workersFor(name string) int {
	if name == "soak" {
		return 1
	}
	return parallelism()
}

// floors are the engine's costs with no model code behind them.
type floors struct{ stepNs, execNs float64 }

// ball bounces between the two machines of the step floor.
type ball struct{ from core.MachineID }

func (ball) Name() string { return "ball" }

func bouncer() *core.FuncMachine {
	return &core.FuncMachine{OnEvent: func(ctx *core.Context, ev core.Event) {
		ctx.Send(ev.(ball).from, ball{from: ctx.ID()})
	}}
}

// measureFloors runs the two benchmark-owned null harnesses on one worker:
// a two-machine ping-pong that runs to the soak step bound (ns per step),
// and a test whose Entry returns at once (ns per execution). Each is the
// median of five rounds.
func measureFloors(scale int) (floors, error) {
	pingPong := gostorm.Test{Name: "perfbench-pingpong", Entry: func(ctx *core.Context) {
		a := ctx.CreateMachine(bouncer(), "a")
		b := ctx.CreateMachine(bouncer(), "b")
		ctx.Send(a, ball{from: b})
	}}
	empty := gostorm.Test{Name: "perfbench-empty", Entry: func(*core.Context) {}}
	round := func(t gostorm.Test, iters int) (float64, gostorm.Result, error) {
		t0 := time.Now()
		res, err := gostorm.Explore(t, gostorm.WithSeed(1), gostorm.WithWorkers(1),
			gostorm.WithIterations(iters), gostorm.WithMaxSteps(soakSteps))
		d := float64(time.Since(t0))
		if err == nil && (res.BugFound || res.Executions != iters) {
			err = fmt.Errorf("%s: %d of %d executions, bug %v", t.Name, res.Executions, iters, res.BugFound)
		}
		return d, res, err
	}
	var steps, execs []float64
	for i := 0; i < 5; i++ {
		d, res, err := round(pingPong, min(20*scale, 200))
		if err != nil {
			return floors{}, err
		}
		steps = append(steps, d/float64(res.TotalSteps))
		if d, res, err = round(empty, min(2000*scale, 20000)); err != nil {
			return floors{}, err
		}
		execs = append(execs, d/float64(res.Executions))
	}
	return floors{stepNs: median(steps), execNs: median(execs)}, nil
}

// startProfile starts a CPU profile into path; the returned stop flushes
// and closes it.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// cpuShares folds a CPU profile's flat time by the package prefix of each
// function, using the toolchain's pprof.
func cpuShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return foldTop(bytes.NewReader(outb))
}

// foldTop parses `pprof -top` rows ("flat flat% sum% cum cum% name").
func foldTop(r io.Reader) (map[string]float64, error) {
	shares := map[string]float64{"core": 0, "harness": 0, "dist": 0, "go_sched": 0, "go_gc": 0, "rand": 0, "other": 0}
	total := 0.0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		shares[layerOf(strings.Join(f[5:], " "))] += d.Seconds()
		total += d.Seconds()
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("profile has no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

const modulePath = "github.com/gostorm/gostorm/"

// layerOf names the layer a profiled function belongs to.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, modulePath+"internal/core."), strings.HasPrefix(fn, "github.com/gostorm/gostorm."):
		return "core"
	case strings.HasPrefix(fn, modulePath+"internal/dist."), strings.HasPrefix(fn, "net/"), strings.HasPrefix(fn, "net."),
		strings.HasPrefix(fn, "encoding/json."), strings.HasPrefix(fn, "internal/poll."), strings.HasPrefix(fn, "syscall."):
		return "dist"
	case strings.HasPrefix(fn, modulePath+"internal/"):
		return "harness"
	case strings.HasPrefix(fn, "math/rand."):
		return "rand"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/"):
		name := fn[strings.LastIndex(fn, ".")+1:]
		for _, k := range gcWords {
			if strings.Contains(fn, k) {
				return "go_gc"
			}
		}
		for _, k := range schedWords {
			if strings.Contains(strings.ToLower(name), k) {
				return "go_sched"
			}
		}
	}
	return "other"
}

// gcWords mark runtime functions that allocate or collect; schedWords mark
// goroutine scheduling, parking and waking. Other runtime functions (map
// access, copies, hashing) count as other.
var (
	gcWords = []string{"gc", "GC", "mark", "Mark", "sweep", "scav", "scan", "malloc", "memclr", "heap",
		"mspan", "mcache", "mcentral", "pageAlloc", "greyobject", "findObject", "wbBuf", "Barrier",
		"newobject", "makeslice", "growslice", "makemap", "nextFree", "typePointers", "profilealloc"}
	schedWords = []string{"sched", "park", "ready", "chan", "futex", "sema", "lock", "runq", "findrunnable",
		"stopm", "startm", "wakep", "netpoll", "mcall", "gogo", "gosched", "execute", "spinning", "notesleep",
		"notewakeup", "osyield", "usleep", "casgstatus", "select", "handoff", "goexit", "newproc", "procyield",
		"systemstack", "checktimers", "acquirep", "releasep", "morestack", "newstack", "signal", "sigtramp",
		"nanotime", "guintptr", "muintptr", "acquirem", "releasem", "timehistogram", "sudog"}
)

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// hostRecord describes the machine a run measured.
func hostRecord() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(val)
				break
			}
		}
	}
	kernel := "unknown"
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var sb strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			sb.WriteByte(byte(c))
		}
		kernel = sb.String()
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel)
}

func printResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
