package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"weakstab/internal/cli"
	"weakstab/internal/markov"
	"weakstab/internal/mc"
	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/service"
	"weakstab/internal/sim"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

// jobSeed derives job i's input seed from the workload seed; i = -1 is
// the warm-up job.
func jobSeed(seed int64, i int) int64 { return sim.TrialSeed(seed, i+1) }

// serveCase is the space serve-mc-warm samples: the same tokenring(10,4)
// central space report-large classifies, so every estimate can be checked
// against that workload's exact mean.
var serveCase = largeCase

// serveSession submits mc-mode jobs to one Manager whose disk cache holds
// the space. Every job carries its own seed, so it misses the result LRU
// and hits the disk cache.
type serveSession struct {
	seed  int64
	cache *spacecache.Cache
	m     *service.Manager
	a     protocol.Algorithm
	pol   scheduler.Policy
	// inode identifies the cache entry set-up stored; a job that missed
	// the cache would explore again and replace the file.
	inode uint64

	// Pooled over the timed jobs: hits, and the sums of hitting times and
	// of their squares.
	hits        float64
	sumT, sumTT float64
	jobs        int
	walkerSteps int64
	firstDoc    []byte
	tm          *service.Manager // the traced run's Manager, with hooks
	hook        *serveHook
	plainSteps  map[int]int64 // walker steps of the traced run's plain jobs, by index
}

// serveHook records, on the Manager's worker goroutine, when a traced
// job starts executing and when its explore (cache load) and mc phases
// end. The service builds a job's instance twice through Deps.Build: in
// Submit, for the job key, and first thing in Execute. The job's
// completion orders these writes before the client reads them.
type serveHook struct {
	tr        *tracer
	builds    atomic.Int32
	exec      float64
	explored  float64
	estimated float64
}

func (h *serveHook) reset() {
	h.builds.Store(0)
	h.exec, h.explored, h.estimated = 0, 0, 0
}

func (h *serveHook) build(r service.Request) (protocol.Algorithm, scheduler.Policy, error) {
	if h.builds.Add(1) == 2 {
		h.exec = h.tr.now()
	}
	return buildInstance(r)
}

func (h *serveHook) event(name string, payload any) {
	if p, ok := payload.(obs.PhaseEvent); ok && name == "phase" {
		switch p.Name {
		case "explore":
			h.explored = h.tr.now()
		case "mc":
			h.estimated = h.tr.now()
		}
	}
}

// buildInstance builds a request's instance the way the service does.
func buildInstance(r service.Request) (protocol.Algorithm, scheduler.Policy, error) {
	a, err := cli.Spec{Algorithm: r.Alg, N: r.N, Topology: r.Topology, K: r.K, Seed: r.Seed}.Build()
	if err != nil {
		return nil, nil, err
	}
	pol, err := cli.BuildPolicy(r.Policy)
	return a, pol, err
}

func (s *serveSession) request(i int) service.Request {
	r := serveCase.req
	r.Mode = service.ModeMC
	r.Seed = jobSeed(s.seed, i)
	return r
}

// setupServe explores the space cold, stores it in a fresh disk cache,
// starts the Manager and runs the warm-up job, which maps and validates
// the cache entry once.
func setupServe(ctx context.Context, e *env) (session, error) {
	s := &serveSession{seed: e.seed, plainSteps: map[int]int64{}}
	var err error
	if s.a, s.pol, err = buildInstance(serveCase.req); err != nil {
		return nil, err
	}
	dir := filepath.Join(e.workdir, fmt.Sprintf("cache-%d", e.setupNo))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if s.cache, err = spacecache.Open(dir); err != nil {
		return nil, err
	}
	sp, err := statespace.BuildContext(ctx, s.a, s.pol, statespace.Options{})
	if err != nil {
		return nil, err
	}
	t := time.Now()
	err = s.cache.StoreSpace(sp)
	if e.tr != nil {
		e.tr.record("spacecache.store_ms", msSince(t))
	}
	if err != nil {
		return nil, err
	}
	if s.inode, err = onlyInode(dir); err != nil {
		return nil, err
	}
	s.m = service.NewManager(service.Config{Deps: service.Deps{Cache: s.cache}})
	if e.tr != nil {
		s.hook = &serveHook{tr: e.tr}
		e.tr.obs.AddHook(s.hook.event)
		s.tm = service.NewManager(service.Config{Deps: service.Deps{Cache: s.cache, Obs: e.tr.obs, Build: s.hook.build}})
	}
	if _, err := s.submit(s.m, -1); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return s, nil
}

// onlyInode returns the inode of the single file in dir.
func onlyInode(dir string) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	if len(ents) != 1 {
		return 0, fmt.Errorf("cache directory holds %d entries, want the one stored space", len(ents))
	}
	fi, err := ents[0].Info()
	if err != nil {
		return 0, err
	}
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return 0, fmt.Errorf("no inode for %s", ents[0].Name())
	}
	return st.Ino, nil
}

// submit runs job i on m and checks its estimate.
func (s *serveSession) submit(m *service.Manager, i int) (*service.Response, error) {
	j, deduped, err := m.Submit(s.request(i))
	if err != nil {
		return nil, err
	}
	resp, err := j.Result()
	if err != nil {
		return nil, err
	}
	if _, source, _, _ := j.Status(); deduped || source != "run" {
		return nil, fmt.Errorf("answered from the result LRU (source %q)", source)
	}
	return resp, s.check(resp)
}

// check verifies one estimate: every walker is accounted for, and the
// mean lies within 5 standard errors of the exact mean. The pooled mean
// of all jobs is held to 4 standard errors in finish.
func (s *serveSession) check(resp *service.Response) error {
	r := resp.MC
	if r == nil || resp.MCResult == nil {
		return fmt.Errorf("no estimate in the result")
	}
	if r.Trials != mc.DefaultTrials || r.Hits+r.Divergent+r.Censored != r.Trials {
		return fmt.Errorf("hits %d + divergent %d + censored %d != trials %d (want %d)", r.Hits, r.Divergent, r.Censored, r.Trials, mc.DefaultTrials)
	}
	se := r.Std / math.Sqrt(float64(r.Hits))
	if d := math.Abs(r.Mean - serveCase.mean); !(d <= 5*se) {
		return fmt.Errorf("mean %v is %.2f standard errors from the exact %v", r.Mean, d/se, serveCase.mean)
	}
	return nil
}

func (s *serveSession) job(ctx context.Context, i int) error {
	resp, err := s.submit(s.m, i)
	if err != nil {
		return err
	}
	r := resp.MC
	h := float64(r.Hits)
	s.hits += h
	s.sumT += h * r.Mean
	s.sumTT += (h-1)*r.Std*r.Std + h*r.Mean*r.Mean
	s.jobs++
	s.walkerSteps += resp.MCResult.WalkerSteps
	if i == 0 {
		var doc bytes.Buffer
		if err := resp.WriteJSON(&doc); err != nil {
			return err
		}
		s.firstDoc = doc.Bytes()
	}
	if s.tm != nil {
		s.plainSteps[i] = resp.MCResult.WalkerSteps
	}
	return nil
}

// traced submits job i to the traced Manager — which shares the disk
// cache but not the result LRU with the plain one, so the same seed runs
// again — and then replays its layer calls directly (cache load, mc.New,
// RunContext) to split mc's time into table building and walking.
func (s *serveSession) traced(ctx context.Context, i int, tr *tracer) error {
	h := s.hook
	h.reset()
	before := tr.counters()
	root := tr.open(i, -1, rootJob)
	svc := tr.open(i, root, "service.job")
	var (
		j       *service.Job
		deduped bool
		err     error
	)
	sub := tr.do(i, svc, "service.submit", func() { j, deduped, err = s.tm.Submit(s.request(i)) })
	if err != nil {
		tr.close(svc)
		tr.close(root)
		return err
	}
	resp, err := j.Result()
	tr.close(svc)
	// The hook spans are only as good as the hooks: the job must have
	// built its instance twice and passed the explore and mc phases in
	// order, after Submit began. The worker may start executing before
	// Submit has returned, hence the max below.
	if n := h.builds.Load(); err == nil && (n != 2 || h.exec < tr.spans[sub].Start ||
		h.explored == 0 || h.estimated == 0 || h.exec > h.explored || h.explored > h.estimated) {
		err = fmt.Errorf("service hooks out of order: %d builds, exec %.3f, explored %.3f, estimated %.3f ms",
			n, h.exec, h.explored, h.estimated)
	}
	submitted := tr.spans[sub].End
	start := max(h.exec, submitted)
	tr.add(i, svc, "service.queue_wait", submitted, start)
	tr.add(i, svc, "spacecache.load", start, h.explored)
	tr.add(i, svc, "mc.estimate", max(start, h.explored), h.estimated)
	if err == nil {
		if _, source, _, _ := j.Status(); deduped || source != "run" {
			err = fmt.Errorf("answered from the result LRU (source %q)", source)
		}
	}
	if err == nil {
		err = s.check(resp)
	}
	tr.close(root)
	if err != nil {
		return err
	}
	after := tr.counters()
	steps := delta(before, after, "mc.steps")
	tr.record("mc.steps", steps)
	tr.record("mc.hit_ratio", float64(resp.MC.Hits)/float64(resp.MC.Trials))
	tr.record("service.lru_hit_ratio", ratio(delta(before, after, "service.lru.hit"), delta(before, after, "service.lru.miss")))

	// The replay: the same calls executeMC makes, each in its own span,
	// from a collected heap like the service job.
	runtime.GC()
	rep := tr.open(i, -1, rootReplay)
	var (
		sp  *statespace.Space
		hit bool
		est *mc.Estimator
		res *mc.Result
	)
	tr.do(i, rep, "spacecache.load", func() { sp, hit = s.cache.LoadSpace(s.a, s.pol, statespace.Options{}) })
	if !hit {
		tr.close(rep)
		return fmt.Errorf("replay missed the disk cache")
	}
	defer sp.Close()
	tr.do(i, rep, "mc.new", func() { est, err = mc.New(sp, markov.TargetFromSpace(sp)) })
	if err == nil {
		run := tr.do(i, rep, "mc.run", func() { res, err = est.RunContext(ctx, mc.Options{Seed: resp.Request.Seed}) })
		tr.record("mc.steps_per_s", steps/(tr.spans[run].ms()/1e3))
	}
	tr.close(rep)
	if err != nil {
		return err
	}
	final := tr.counters()
	tr.record("spacecache.hit_ratio", ratio(delta(before, final, "cache.hits"), delta(before, final, "cache.misses")))

	want := resp.MCResult
	if float64(want.WalkerSteps) != steps || res.WalkerSteps != want.WalkerSteps || res.Hits != want.Hits || res.Summary != want.Summary {
		return fmt.Errorf("replay walked %d steps with %d hits (mean %v), the service job %d with %d (mean %v), obs counted %.0f",
			res.WalkerSteps, res.Hits, res.Summary.Mean, want.WalkerSteps, want.Hits, want.Summary.Mean, steps)
	}
	if p, ok := s.plainSteps[i]; ok && p != want.WalkerSteps {
		return fmt.Errorf("traced job walked %d steps, the untraced job with its seed %d", want.WalkerSteps, p)
	}
	return nil
}

func ratio(yes, no float64) float64 {
	if yes+no == 0 {
		return 0
	}
	return yes / (yes + no)
}

// finish repeats job 0 on a fresh Manager over the same cache, which must
// reproduce its result document byte for byte; checks the pooled mean;
// and checks that no job replaced the cache entry, so every job hit it.
func (s *serveSession) finish(ctx context.Context) error {
	m := service.NewManager(service.Config{Deps: service.Deps{Cache: s.cache}})
	defer m.Shutdown(ctx)
	resp, err := m.Do(ctx, s.request(0))
	if err != nil {
		return err
	}
	var doc bytes.Buffer
	if err := resp.WriteJSON(&doc); err != nil {
		return err
	}
	if !bytes.Equal(doc.Bytes(), s.firstDoc) {
		return fmt.Errorf("repeating job 0 gave a different result document")
	}
	mean := s.sumT / s.hits
	se := math.Sqrt((s.sumTT/s.hits - mean*mean) / s.hits)
	if d := math.Abs(mean - serveCase.mean); !(d <= 4*se) {
		return fmt.Errorf("pooled mean %v of %d jobs is %.2f standard errors from the exact %v", mean, s.jobs, d/se, serveCase.mean)
	}
	if ino, err := onlyInode(s.cache.Dir()); err != nil || ino != s.inode {
		return fmt.Errorf("the cache entry was replaced (inode %d, was %d; %v): a job missed the disk cache", ino, s.inode, err)
	}
	return nil
}

func (s *serveSession) counts() string {
	return fmt.Sprintf("jobs=%d walker_steps=%d hits=%.0f", s.jobs, s.walkerSteps, s.hits)
}

func (s *serveSession) close() {
	ctx := context.Background()
	s.m.Shutdown(ctx)
	if s.tm != nil {
		s.tm.Shutdown(ctx)
	}
	os.RemoveAll(s.cache.Dir())
}
