// Command perfbench is the repository's benchmark. One run executes one
// workload (soak, hunt or fleet) with a fixed amount of work derived from
// --seed and --seconds, checks every result, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// probe but the Entry wrapper. With --trace 1 the run repeats the same
// work twice, first untraced (under a CPU profile, with allocation
// counters) and then with every probe on, and prints the per-layer
// metrics; the two passes must agree on every deterministic count.
//
// Run it through run.sh, which builds it from the checkout. See README.md
// for why each workload exists and what each metric should move.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	fingerprint uint64 // determinism fingerprint of the (untraced) work
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: soak, hunt or fleet")
		seed     = flag.Int64("seed", 1, "seed the run's inputs derive from")
		seconds  = flag.Float64("seconds", 10, "nominal run length; sizes the fixed work")
		traced   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		outdir   = flag.String("outdir", ".bench_build", "directory for spans and CPU profiles")
		selftest = flag.Bool("selftest", false, "run every workload at a tiny size and check the output")
	)
	flag.Parse()
	if *selftest {
		if err := selfTest(*outdir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench selftest:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench selftest: ok")
		return
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v, seconds %v, trace %d)\n", *name, err, *seconds, *traced)
		os.Exit(2)
	}
	res, err := runWorkload(os.Stdout, w, *seed, callsFor(w, *seconds), *traced == 1, *outdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func callsFor(w workload, seconds float64) int {
	return max(1, int(math.Round(w.callsPerSecond*seconds)))
}

// runWorkload runs w once, untraced or traced, writes a human-readable
// report to out and returns the result line.
func runWorkload(out *os.File, w workload, seed int64, calls int, traced bool, outdir string) (result, error) {
	fmt.Fprintln(out, hostRecord())
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return result{}, err
	}
	if !traced {
		e := &env{sched: "random"}
		o := newOutcome()
		if err := w.run(e, o, seed, calls); err != nil {
			return result{}, err
		}
		report(out, w.name, "untraced", o)
		return result{
			Correct:   o.failed == 0,
			Attempted: o.attempted,
			Failed:    o.failed,
			Metrics:   endToEnd(o, peakRSSMB()),

			fingerprint: o.fp.Sum64(),
		}, nil
	}

	// Pass 1: untraced work under a CPU profile and allocation counters.
	e1 := &env{sched: "random"}
	o1 := newOutcome()
	prof := filepath.Join(outdir, fmt.Sprintf("cpu-%s-%d.pprof", w.name, seed))
	var ms0, ms1 runtime.MemStats
	stop, err := startProfile(prof)
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&ms0)
	runErr := w.run(e1, o1, seed, calls)
	runtime.ReadMemStats(&ms1)
	if err := stop(); err != nil {
		return result{}, err
	}
	if runErr != nil {
		return result{}, runErr
	}
	report(out, w.name, "untraced", o1)

	// Null-harness floors, then pass 2: the same work with every probe on.
	floors, err := measureFloors(max(1, calls/8))
	if err != nil {
		return result{}, fmt.Errorf("null-harness floors: %w", err)
	}
	sp, err := timedScheduler()
	if err != nil {
		return result{}, err
	}
	e2 := &env{sched: sp.name, traced: true, tr: &tracer{}, sp: sp, mp: &monitorProbe{}, ds: &distStats{endpoints: map[string]*endpointStats{}}}
	o2 := newOutcome()
	e2.root = e2.tr.begin(w.name, -1)
	if err := w.run(e2, o2, seed, calls); err != nil {
		return result{}, err
	}
	e2.tr.end(e2.root, nil)
	report(out, w.name, "traced", o2)

	correct := o1.failed == 0 && o2.failed == 0
	if o1.fp.Sum64() != o2.fp.Sum64() {
		fmt.Fprintf(out, "DETERMINISM: traced pass fingerprint %016x differs from untraced %016x\n", o2.fp.Sum64(), o1.fp.Sum64())
		correct = false
	}
	shares, err := cpuShares(prof)
	if err != nil {
		fmt.Fprintln(out, "CPU profile:", err)
		correct = false
	}
	spans := filepath.Join(outdir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
	if err := writeSpans(spans, e2.tr.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans: %d written to %s; CPU profile: %s\n", len(e2.tr.spans), spans, prof)
	m := perLayer(w.name, o1, o2, e2, floors, shares, &ms0, &ms1)
	return result{
		Correct:   correct,
		Attempted: o1.attempted + o2.attempted,
		Failed:    o1.failed + o2.failed,
		Metrics:   m,

		fingerprint: o1.fp.Sum64(),
	}, nil
}

// endToEnd computes the user-visible metrics of an untraced pass.
func endToEnd(o *outcome, rssMB float64) map[string]metric {
	perSec := 0.0
	if o.callS > 0 {
		perSec = float64(o.execs) / o.callS
	}
	return map[string]metric{
		"setup_s":     {median(o.setupS), "s"},
		"execs_per_s": {perSec, "1/s"},
		"ttb_s_p50":   {finite(quantile(o.verdictS, 0.5)), "s"},
		"ttb_s_p90":   {finite(quantile(o.verdictS, 0.9)), "s"},
		"peak_rss_mb": {rssMB, "MB"},
	}
}

// report prints what a pass did, with the sample count behind each timing
// and the pass's determinism fingerprint.
func report(out *os.File, name, pass string, o *outcome) {
	fmt.Fprintf(out, "%s %s: %d call(s), %d failed; %d executions, %d steps, %d entry starts, %.3fs in calls\n",
		name, pass, o.attempted, o.failed, o.execs, o.steps, o.starts, o.callS)
	fmt.Fprintf(out, "  setup_s median of %d calls; ttb_s p50/p90 over %d calls (%d beyond p90)\n",
		len(o.setupS), len(o.verdictS), len(o.verdictS)-rankIndex(len(o.verdictS), 0.9)-1)
	fmt.Fprintf(out, "  fingerprint %016x\n", o.fp.Sum64())
	for _, f := range o.failures {
		fmt.Fprintln(out, "  FAILED:", f)
	}
}

// rankIndex is the nearest-rank index of quantile q among n sorted values.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// quantile returns the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// finite maps the +Inf of a failed hunt to a value JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat32
	}
	return v
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
