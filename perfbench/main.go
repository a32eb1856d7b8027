// Command perfbench is the repository's benchmark: it drives the public
// entry points of the engine in-process (service.Manager, spacecache, mc,
// netsim, and statespace → checker → markov in the traced run) with one
// closed-loop client, checks every output, and prints one JSON result line.
//
//	perfbench --workload report-large --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (setup_s,
// wall_s, cpu_s, job_p50_ms, peak_heap_mb). With --trace 1 the run times
// each layer from outside, with spans recorded around the calls into it,
// and the result carries the per-layer metrics. NOTES.md explains the
// workloads, the metrics and what each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"weakstab/internal/obs"
)

// workload is one benchmark input set: uniform jobs of one instance and
// one mode.
type workload struct {
	name string
	// jobSeconds is the nominal duration of one job on a 2-vCPU box. With
	// --seconds it fixes the number of timed jobs, so a run measures the
	// same amount of work on every commit.
	jobSeconds float64
	// setups is how many times a run sets the workload up; setup_s is the
	// median.
	setups int
	// collect forces a GC before every timed job, outside the timed
	// phase, so each job starts from a collected heap as it would in a
	// fresh process. A workload that models a long-lived daemon leaves it
	// off and pays its collections inside the jobs.
	collect bool
	// setup builds the instance and the layers' state and runs the
	// untimed warm-up job, whose verified output becomes the reference.
	setup func(ctx context.Context, e *env) (session, error)
}

// session is a workload after set-up.
type session interface {
	// job runs timed job i with tracing off.
	job(ctx context.Context, i int) error
	// traced runs job i with a span around every layer call.
	traced(ctx context.Context, i int, tr *tracer) error
	// finish runs the end-of-run checks: the repeat of a job, which must
	// reproduce its outputs and work counts exactly.
	finish(ctx context.Context) error
	// counts is the work done so far, which repeats exactly at a seed.
	counts() string
	close()
}

// env is what a set-up receives.
type env struct {
	seed    int64
	workdir string  // scratch space for disk caches, removed at exit
	tr      *tracer // non-nil in the traced run
	setupNo int
}

var workloads = []workload{
	{name: "report-large", jobSeconds: 3.0, setups: 3, collect: true, setup: setupReportLarge},
	{name: "serve-mc-warm", jobSeconds: 0.065, setups: 5, setup: setupServe},
	{name: "netsim-lossy", jobSeconds: 0.5, setups: 5, collect: true, setup: setupNetsim},
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Int("seconds", 15, "nominal length of the run's jobs, timed and left out")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workdir holds what a run writes: its disk caches, removed when it
// exits, and the traced run's span file. run.sh builds the benchmark there
// too and runs it from the checkout root.
const workdir = ".bench_build"

// run runs workload w with jobs lasting nominally `seconds` seconds in all.
func run(w *workload, seed int64, seconds int, traced bool) (*result, error) {
	// The untraced run keeps obs off whatever the environment says.
	obs.SetDefault(nil)
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	jobs := max(4, int(math.Round(float64(seconds)/w.jobSeconds)))
	ctx := context.Background()
	if traced {
		return runTraced(ctx, w, seed, jobs, dir)
	}
	return runPlain(ctx, w, seed, jobs, dir)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// runPlain is the untraced run: set up w.setups times, keep the last
// session, and run `jobs` jobs back to back. The timed phase is those
// jobs with the quarter most disturbed by the host left out: it keeps
// the jobs during which the hypervisor stole the smallest share of the
// CPUs, the earlier job first on a tie. Every job is checked and counts
// in the work counts whether or not it is kept, so the work a run does is
// fixed by its seed.
//
// The peak heap is taken over every job, and where each job models a
// fresh process (w.collect) over the set-ups' warm-up jobs too: a job's
// peak heap in use depends on where its GC cycles fall, and more jobs
// make the run's highest one repeat.
func runPlain(ctx context.Context, w *workload, seed int64, jobs int, dir string) (*result, error) {
	var setupS []float64
	var s session
	var peak uint64
	for k := 0; k < w.setups; k++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		heap := startHeapWatch()
		start := time.Now()
		var err error
		s, err = w.setup(ctx, &env{seed: seed, workdir: dir, setupNo: k})
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if p := heap.stop(); w.collect {
			peak = max(peak, p)
		}
	}
	defer s.close()

	runtime.GC() // the set-ups' garbage is not the jobs' heap
	type sample struct {
		wall, cpu time.Duration
		stolen    float64 // share of the machine's CPU time stolen during the job
		peak      uint64
	}
	samples := make([]sample, jobs)
	failed := 0
	for i := range samples {
		if w.collect {
			runtime.GC()
		}
		heap := startHeapWatch()
		st, t, c := hostSteal(), time.Now(), cpuTime()
		err := s.job(ctx, i)
		d := time.Since(t)
		samples[i] = sample{wall: d, cpu: cpuTime() - c, peak: heap.stop(),
			stolen: float64(hostSteal()-st) / float64(d) / float64(runtime.NumCPU())}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s job %d: %v\n", w.name, i, err)
		}
	}
	keep := make([]int, jobs)
	for i := range keep {
		keep[i] = i
	}
	sort.SliceStable(keep, func(a, b int) bool { return samples[keep[a]].stolen < samples[keep[b]].stolen })
	keep = keep[:jobs-jobs/4]
	var wall, cpu time.Duration
	var lat, stolenAll, stolenKept []float64
	for _, i := range keep {
		wall += samples[i].wall
		cpu += samples[i].cpu
		lat = append(lat, float64(samples[i].wall)/float64(time.Millisecond))
		stolenKept = append(stolenKept, samples[i].stolen)
	}
	for _, x := range samples {
		peak = max(peak, x.peak)
		stolenAll = append(stolenAll, x.stolen)
	}

	// The attempts: every job and the repeat check.
	attempted := jobs + 1
	if err := s.finish(ctx); err != nil {
		failed++
		fmt.Fprintf(os.Stderr, "%s repeat check: %v\n", w.name, err)
	}
	fmt.Printf("%s seed=%d: %d of %d jobs timed, %d set-ups (median %.3f s), job p50 %.2f ms%s, fail_frac %.4f\n",
		w.name, seed, len(keep), jobs, w.setups, median(setupS), median(lat), tailNote(lat), float64(failed)/float64(attempted))
	fmt.Printf("%s host steal: %.1f%% of CPU time over all jobs, %.1f%% over the timed ones\n",
		w.name, 100*mean(stolenAll), 100*mean(stolenKept))
	fmt.Printf("%s counts: %s\n", w.name, s.counts())
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":      {median(setupS), "s"},
			"wall_s":       {wall.Seconds(), "s"},
			"cpu_s":        {cpu.Seconds(), "s"},
			"job_p50_ms":   {median(lat), "ms"},
			"peak_heap_mb": {float64(peak) / (1 << 20), "MB"},
		},
	}, nil
}

// tailNote prints the p90 only where at least ten samples lie beyond it.
func tailNote(lat []float64) string {
	if len(lat) < 100 {
		return fmt.Sprintf(" (n=%d; p90 needs >= 100 jobs)", len(lat))
	}
	return fmt.Sprintf(", p90 %.2f ms (n=%d)", quantile(lat, 0.9), len(lat))
}

// runTraced is the traced run: one set-up, then `jobs` pairs of an
// untraced and a traced job, so the tracing overhead is measured on
// neighbouring jobs. Obs is on only while a traced job runs.
func runTraced(ctx context.Context, w *workload, seed int64, jobs int, dir string) (*result, error) {
	tr := newTracer()
	tr.setDefault(true)
	s, err := w.setup(ctx, &env{seed: seed, workdir: dir, tr: tr})
	tr.setDefault(false)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer s.close()

	var plain []float64
	failed := 0
	for i := 0; i < jobs; i++ {
		runtime.GC()
		t := time.Now()
		if err := s.job(ctx, i); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s job %d: %v\n", w.name, i, err)
		}
		plain = append(plain, msSince(t))

		runtime.GC()
		tr.setDefault(true)
		err := s.traced(ctx, i, tr)
		tr.setDefault(false)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s traced job %d: %v\n", w.name, i, err)
		}
	}
	// The attempts: every job, the repeat check and the coverage check.
	attempted := 2*jobs + 2
	if err := s.finish(ctx); err != nil {
		failed++
		fmt.Fprintf(os.Stderr, "%s repeat check: %v\n", w.name, err)
	}
	if err := tr.checkCoverage(); err != nil {
		failed++
		fmt.Fprintf(os.Stderr, "%s trace: %v\n", w.name, err)
	}
	m := tr.layerMetrics()
	traced, untraced := m["trace.job_ms"].Value, median(plain)
	m["trace.overhead_ms"] = metric{traced - untraced, "ms"}
	tr.printTable(os.Stdout, w.name)
	fmt.Printf("%s tracing overhead: traced job p50 %.3f ms - untraced job p50 %.3f ms = %+.3f ms (%+.1f%%)\n",
		w.name, traced, untraced, traced-untraced, 100*(traced-untraced)/untraced)
	fmt.Printf("%s counts: %s\n", w.name, s.counts())
	if err := tr.write(filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))); err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
