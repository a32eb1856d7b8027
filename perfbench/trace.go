package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"weakstab/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one job share its job index; a
// root span has parent -1.
type span struct {
	Name   string  `json:"name"`
	Job    int     `json:"job"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_ms"` // since the tracer's origin
	End    float64 `json:"end_ms"`
	Alloc  uint64  `json:"alloc_bytes"` // heap bytes allocated during the span
}

func (s span) ms() float64 { return s.End - s.Start }

// layer is the span name's prefix up to the first dot; a root span is
// the job itself, whose uncovered time is core's.
func (s span) layer() string {
	if s.Parent < 0 {
		return "core"
	}
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// Root span names: a job, and in serve-mc-warm the direct replay of a
// job's layer calls that splits mc's time.
const (
	rootJob    = "job"
	rootReplay = "replay"
)

// tracer keeps spans in memory and the obs registry the traced run reads
// work counts from. Layer calls are sequential on the client goroutine,
// so spans need no lock; hooks that fire on other goroutines hand their
// timestamps over through the job's completion.
type tracer struct {
	origin time.Time
	spans  []span
	obs    *obs.Observer
	// vals holds per-job values that are not span durations (counts,
	// rates, ratios), keyed by metric name.
	vals map[string][]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), obs: obs.New(), vals: map[string][]float64{}}
}

// setDefault turns the process-wide observer on (for a traced job) or
// off (for everything else).
func (t *tracer) setDefault(on bool) {
	if on {
		obs.SetDefault(t.obs)
	} else {
		obs.SetDefault(nil)
	}
}

func (t *tracer) now() float64 { return msSince(t.origin) }

// open starts a span and returns its id.
func (t *tracer) open(job, parent int, name string) int {
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: t.now(), Alloc: allocBytes()})
	return len(t.spans) - 1
}

// close ends span id.
func (t *tracer) close(id int) {
	s := &t.spans[id]
	s.End = t.now()
	s.Alloc = allocBytes() - s.Alloc
}

// do runs fn inside a span and returns the span's id.
func (t *tracer) do(job, parent int, name string, fn func()) int {
	id := t.open(job, parent, name)
	fn()
	t.close(id)
	return id
}

// add records a span whose bounds were observed by a hook.
func (t *tracer) add(job, parent int, name string, start, end float64) {
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: start, End: max(start, end)})
}

// record keeps one per-job value of a metric.
func (t *tracer) record(name string, v float64) { t.vals[name] = append(t.vals[name], v) }

// counters snapshots the obs registry; the difference of two snapshots
// is the work done between them.
func (t *tracer) counters() map[string]int64 { return t.obs.Registry().Snapshot() }

func delta(before, after map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}

// children returns the ids of span id's children in start order.
func (t *tracer) children(id int) []int {
	var out []int
	for i, s := range t.spans {
		if s.Parent == id {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return t.spans[out[a]].Start < t.spans[out[b]].Start })
	return out
}

// self is span id's duration minus the part of it its children cover.
func (t *tracer) self(id int) float64 {
	covered, reach := 0.0, t.spans[id].Start
	for _, c := range t.children(id) {
		s := t.spans[c]
		lo, hi := max(s.Start, reach), min(s.End, t.spans[id].End)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return t.spans[id].ms() - covered
}

// rootOf returns the root span id of span id.
func (t *tracer) rootOf(id int) int {
	for t.spans[id].Parent >= 0 {
		id = t.spans[id].Parent
	}
	return id
}

// roots returns the ids of the root spans named name.
func (t *tracer) roots(name string) []int {
	var out []int
	for i, s := range t.spans {
		if s.Parent < 0 && s.Name == name {
			out = append(out, i)
		}
	}
	return out
}

// checkCoverage checks that every child lies inside its parent, that
// siblings do not overlap, and that the self times of each job's spans
// add up to the job's time.
func (t *tracer) checkCoverage() error {
	const eps = 1e-6 // ms
	for i, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %s of job %d ends before it starts", s.Name, s.Job)
		}
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if s.Start < p.Start-eps || s.End > p.End+eps {
				return fmt.Errorf("span %s of job %d lies outside its parent %s", s.Name, s.Job, p.Name)
			}
		}
		kids := t.children(i)
		for k := 1; k < len(kids); k++ {
			if t.spans[kids[k]].Start < t.spans[kids[k-1]].End-eps {
				return fmt.Errorf("spans %s and %s of job %d overlap", t.spans[kids[k-1]].Name, t.spans[kids[k]].Name, s.Job)
			}
		}
	}
	sums := map[int]float64{}
	for i := range t.spans {
		sums[t.rootOf(i)] += t.self(i)
	}
	for r, sum := range sums {
		if d := sum - t.spans[r].ms(); d > 1e-3 || d < -1e-3 {
			return fmt.Errorf("job %d: self times add up to %.4f ms, job took %.4f ms", t.spans[r].Job, sum, t.spans[r].ms())
		}
	}
	return nil
}

// perJob sums f over the spans of every root named root, one value per
// root.
func (t *tracer) perJob(root string, f func(id int, s span) float64) []float64 {
	var out []float64
	for _, r := range t.roots(root) {
		v := 0.0
		for i, s := range t.spans {
			if t.rootOf(i) == r {
				v += f(i, s)
			}
		}
		out = append(out, v)
	}
	return out
}

// spanMS is the per-job median time of the spans named name under roots
// named root (0 when no such span ran).
func (t *tracer) spanMS(root, name string) float64 {
	return median(t.perJob(root, func(_ int, s span) float64 {
		if s.Name == name {
			return s.ms()
		}
		return 0
	}))
}

// selfMS is the per-job self time of the spans under roots named root
// that match.
func (t *tracer) selfMS(root string, match func(span) bool) []float64 {
	return t.perJob(root, func(i int, s span) float64 {
		if !match(s) {
			return 0
		}
		return t.self(i)
	})
}

// layerSelf is the per-job self time of layer under roots named root.
func (t *tracer) layerSelf(root, layer string) []float64 {
	return t.selfMS(root, func(s span) bool { return s.layer() == layer })
}

// jobMS is the per-job time of the roots named root.
func (t *tracer) jobMS(root string) []float64 {
	return t.perJob(root, func(_ int, s span) float64 {
		if s.Parent < 0 {
			return s.ms()
		}
		return 0
	})
}

// layerAllocMB is the per-job median of the heap bytes the layer's
// spans allocated, in MB.
func (t *tracer) layerAllocMB(layer string) float64 {
	return median(t.perJob(rootJob, func(_ int, s span) float64 {
		if s.Parent >= 0 && s.layer() == layer {
			return float64(s.Alloc) / (1 << 20)
		}
		return 0
	}))
}

// layerMetrics assembles every per-layer metric. Times are per-job
// medians; a layer the workload leaves idle reads 0.
func (t *tracer) layerMetrics() map[string]metric {
	m := map[string]metric{}
	ms := func(name string, v float64) { m[name] = metric{v, "ms"} }
	val := func(name, unit string) { m[name] = metric{median(t.vals[name]), unit} }

	ms("statespace.build_ms", t.spanMS(rootJob, "statespace.build"))
	val("statespace.states_per_s", "1/s")
	val("statespace.edges", "count")
	m["statespace.alloc_mb"] = metric{t.layerAllocMB("statespace"), "MB"}

	for _, c := range []string{"closure", "possible", "certain", "lasso", "radius"} {
		ms("checker."+c+"_ms", t.spanMS(rootJob, "checker."+c))
	}
	m["checker.alloc_mb"] = metric{t.layerAllocMB("checker"), "MB"}

	ms("markov.chain_ms", t.spanMS(rootJob, "markov.chain"))
	ms("markov.probone_ms", t.spanMS(rootJob, "markov.probone"))
	ms("markov.solve_ms", t.spanMS(rootJob, "markov.solve"))
	val("markov.gs_blocks", "count")
	val("markov.gs_sweeps", "count")
	m["markov.alloc_mb"] = metric{t.layerAllocMB("markov"), "MB"}

	ms("core.self_ms", median(t.layerSelf(rootJob, "core")))

	ms("service.submit_ms", t.spanMS(rootJob, "service.submit"))
	ms("service.queue_wait_ms", t.spanMS(rootJob, "service.queue_wait"))
	ms("service.self_ms", median(t.selfMS(rootJob, func(s span) bool { return s.Name == "service.job" })))
	val("service.lru_hit_ratio", "ratio")

	ms("spacecache.load_ms", t.spanMS(rootJob, "spacecache.load"))
	val("spacecache.store_ms", "ms")
	val("spacecache.hit_ratio", "ratio")

	ms("mc.new_ms", t.spanMS(rootReplay, "mc.new"))
	ms("mc.run_ms", t.spanMS(rootReplay, "mc.run"))
	val("mc.steps_per_s", "1/s")
	val("mc.steps", "count")
	val("mc.hit_ratio", "ratio")

	val("netsim.topology_ms", "ms")
	ms("netsim.trial_ms", t.spanMS(rootJob, "netsim.trial"))
	val("netsim.proc_rounds_per_s", "1/s")
	val("netsim.proc_rounds", "count")
	val("netsim.msgs_sent", "count")
	val("netsim.delivery_ratio", "ratio")

	ms("trace.job_ms", median(t.jobMS(rootJob)))
	return m
}

// printTable writes the per-workload table of mean self time per layer,
// which adds up to the mean job time.
func (t *tracer) printTable(w io.Writer, workload string) {
	for _, root := range []string{rootJob, rootReplay} {
		n := len(t.roots(root))
		if n == 0 {
			continue
		}
		total := mean(t.jobMS(root))
		fmt.Fprintf(w, "%s trace, %q spans of %d traced jobs: mean self time per job by layer\n", workload, root, n)
		fmt.Fprintf(w, "  %-12s %12s %8s\n", "layer", "self ms", "share")
		sum := 0.0
		for _, l := range []string{"statespace", "checker", "markov", "service", "spacecache", "mc", "netsim", "core"} {
			v := mean(t.layerSelf(root, l))
			if v == 0 {
				continue
			}
			sum += v
			fmt.Fprintf(w, "  %-12s %12.3f %7.1f%%\n", l, v, 100*v/total)
		}
		fmt.Fprintf(w, "  %-12s %12.3f %7.1f%%  (job time %.3f ms)\n", "sum", sum, 100*sum/total, total)
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
