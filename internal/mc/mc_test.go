package mc

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// chain is a hand-built CSR transition system for synthetic test chains.
type chain struct {
	off     []int64
	succ    []int32
	prob    []float64
	workers int
}

func (c *chain) NumStates() int                                   { return len(c.off) - 1 }
func (c *chain) PoolWorkers() int                                 { return c.workers }
func (c *chain) CSR() (off []int64, succ []int32, prob []float64) { return c.off, c.succ, c.prob }
func (c *chain) Acquire() error                                   { return nil }
func (c *chain) Release() error                                   { return nil }

// buildChain assembles a chain from per-state rows of (successor, prob)
// pairs. A nil row is an absorbing state.
func buildChain(rows [][]struct {
	to int32
	p  float64
}) *chain {
	c := &chain{off: make([]int64, 1, len(rows)+1)}
	for _, row := range rows {
		for _, tr := range row {
			c.succ = append(c.succ, tr.to)
			c.prob = append(c.prob, tr.p)
		}
		c.off = append(c.off, int64(len(c.succ)))
	}
	return c
}

type tr = struct {
	to int32
	p  float64
}

// geometric is the fair-coin chain: state 0 self-loops with probability
// 1/2 or moves to absorbing state 1. E[hitting time from 0] = 2.
func geometric() *chain {
	return buildChain([][]tr{
		{{0, 0.5}, {1, 0.5}},
		nil,
	})
}

func intp(v int) *int { return &v }

func TestGeometricMean(t *testing.T) {
	e, err := New(geometric(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(context.Background(), Options{Trials: 20000, Seed: 7, From: intp(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 20000 || res.Hits != 20000 || res.Divergent != 0 || res.Censored != 0 {
		t.Fatalf("trials=%d hits=%d divergent=%d censored=%d, want all 20000 hits",
			res.Trials, res.Hits, res.Divergent, res.Censored)
	}
	// Geometric(1/2): mean 2, std sqrt(2). 4 standard errors of slack.
	se := math.Sqrt2 / math.Sqrt(20000)
	if math.Abs(res.Summary.Mean-2) > 4*se {
		t.Fatalf("mean = %g, want 2 ± %g", res.Summary.Mean, 4*se)
	}
	if res.Summary.Min != 1 {
		t.Fatalf("min hitting time = %g, want 1", res.Summary.Min)
	}
	if res.FailureRate() != 0 {
		t.Fatalf("failure rate = %g, want 0", res.FailureRate())
	}
}

func TestUniformStartSkipsTargets(t *testing.T) {
	// States 0,1 both step straight to target 2; uniform start must never
	// pick state 2, so every walk takes exactly one step.
	c := buildChain([][]tr{
		{{2, 1}},
		{{2, 1}},
		nil,
	})
	e, err := New(c, []bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(context.Background(), Options{Trials: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 500 || res.Summary.Min != 1 || res.Summary.Max != 1 {
		t.Fatalf("hits=%d min=%g max=%g, want 500 walks of exactly 1 step",
			res.Hits, res.Summary.Min, res.Summary.Max)
	}
}

func TestDivergentAndCensored(t *testing.T) {
	// State 0 flips between hitting target 2, falling into absorbing trap
	// 1, and a self-loop that eventually resolves or censors.
	c := buildChain([][]tr{
		{{1, 0.5}, {2, 0.5}},
		nil, // absorbing non-target: divergent
		nil, // target
	})
	e, err := New(c, []bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(context.Background(), Options{Trials: 4000, Seed: 3, From: intp(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits+res.Divergent != res.Trials || res.Censored != 0 {
		t.Fatalf("hits=%d divergent=%d censored=%d of %d", res.Hits, res.Divergent, res.Censored, res.Trials)
	}
	if res.Divergent < 1800 || res.Divergent > 2200 {
		t.Fatalf("divergent = %d, want ≈2000 of 4000", res.Divergent)
	}
	if got := res.FailureRate(); math.Abs(got-float64(res.Divergent)/4000) > 1e-15 {
		t.Fatalf("failure rate = %g", got)
	}

	// An unreachable target censors every walker at the step budget.
	cyc := buildChain([][]tr{
		{{1, 1}},
		{{0, 1}},
		nil,
	})
	e2, err := New(cyc, []bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.RunContext(context.Background(), Options{Trials: 100, Seed: 1, MaxSteps: 64, From: intp(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Censored != 100 || res2.Hits != 0 || res2.Divergent != 0 {
		t.Fatalf("censored=%d hits=%d divergent=%d, want all 100 censored",
			res2.Censored, res2.Hits, res2.Divergent)
	}
	if res2.MaxSteps != 64 {
		t.Fatalf("MaxSteps = %d, want 64", res2.MaxSteps)
	}
	if res2.FailureRate() != 1 {
		t.Fatalf("failure rate = %g, want 1", res2.FailureRate())
	}
}

// TestWorkerBitIdentity pins the core determinism contract: every field
// of the Result is bit-identical across worker counts and batch sizes.
func TestWorkerBitIdentity(t *testing.T) {
	e, err := New(geometric(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.RunContext(context.Background(), Options{Trials: 5000, Seed: 42, Workers: 1, Batch: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{Trials: 5000, Seed: 42, Workers: 3, Batch: 128},
		{Trials: 5000, Seed: 42, Workers: 8, Batch: 128},
		{Trials: 5000, Seed: 42, Workers: 7, Batch: 17},
		{Trials: 5000, Seed: 42, Workers: 16, Batch: 5000},
	} {
		got, err := e.RunContext(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("result differs at workers=%d batch=%d:\nbase %+v\ngot  %+v",
				opt.Workers, opt.Batch, base, got)
		}
	}
	// A different seed must actually change the sample.
	other, err := e.RunContext(context.Background(), Options{Trials: 5000, Seed: 43, Workers: 1, Batch: 128})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(base.Steps, other.Steps) {
		t.Fatal("seeds 42 and 43 produced identical samples")
	}
}

// TestEarlyStopDeterministic: a deterministic one-step chain has zero
// variance, so the CI collapses immediately and the run stops after the
// first batch — at the same point for every worker count.
func TestEarlyStopDeterministic(t *testing.T) {
	c := buildChain([][]tr{
		{{1, 1}},
		nil,
	})
	e, err := New(c, []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	var prev *Result
	for _, workers := range []int{1, 4, 9} {
		res, err := e.RunContext(context.Background(), Options{Trials: 100000, Seed: 5, Workers: workers, Batch: 250, TargetCI: 0.5, From: intp(0)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trials != 250 {
			t.Fatalf("workers=%d: stopped at %d trials, want exactly one 250-walker batch", workers, res.Trials)
		}
		if res.Requested != 100000 {
			t.Fatalf("Requested = %d, want 100000", res.Requested)
		}
		if res.CIHalfWidth() > 0.5 {
			t.Fatalf("stopped with CI %g > target 0.5", res.CIHalfWidth())
		}
		if prev != nil && !reflect.DeepEqual(prev, res) {
			t.Fatalf("early-stopped result differs across worker counts")
		}
		prev = res
	}
}

func TestEarlyStopNoisy(t *testing.T) {
	e, err := New(geometric(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.RunContext(context.Background(), Options{Trials: 200000, Seed: 11, From: intp(0)})
	if err != nil {
		t.Fatal(err)
	}
	target := 4 * full.CIHalfWidth() // reachable well before 200k trials
	var prev *Result
	for _, workers := range []int{1, 6} {
		res, err := e.RunContext(context.Background(), Options{Trials: 200000, Seed: 11, Workers: workers, Batch: 1000, TargetCI: target, From: intp(0)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trials >= full.Trials {
			t.Fatalf("early stop never triggered: %d trials", res.Trials)
		}
		if res.Trials%1000 != 0 {
			t.Fatalf("stopped mid-batch at %d trials", res.Trials)
		}
		if res.CIHalfWidth() > target {
			t.Fatalf("stopped with CI %g > target %g", res.CIHalfWidth(), target)
		}
		if prev != nil && !reflect.DeepEqual(prev, res) {
			t.Fatal("early-stopped result differs across worker counts")
		}
		prev = res
	}
}

func TestECDF(t *testing.T) {
	e, err := New(geometric(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(context.Background(), Options{Trials: 10000, Seed: 2, From: intp(0)})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ECDF(0); got != 0 {
		t.Fatalf("ECDF(0) = %g, want 0", got)
	}
	// P(T <= 1) = 1/2 for Geometric(1/2).
	if got := res.ECDF(1); math.Abs(got-0.5) > 0.02 {
		t.Fatalf("ECDF(1) = %g, want ≈0.5", got)
	}
	if got := res.ECDF(math.Inf(1)); got != 1 {
		t.Fatalf("ECDF(inf) = %g, want 1 (no censoring in this chain)", got)
	}
}

func TestRunContextCancel(t *testing.T) {
	e, err := New(geometric(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = e.RunContext(ctx, Options{Trials: 100000, Seed: 1})
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("error = %v, want cancellation", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(geometric(), []bool{false}); err == nil {
		t.Fatal("target length mismatch accepted")
	}
	bad := buildChain([][]tr{{{0, 0.5}, {1, 0.3}}, nil})
	if _, err := New(bad, []bool{false, true}); err == nil {
		t.Fatal("sub-stochastic row accepted")
	}
	neg := buildChain([][]tr{{{0, -0.5}, {1, 1.5}}, nil})
	if _, err := New(neg, []bool{false, true}); err == nil {
		t.Fatal("negative probability accepted")
	}
}

func TestRunValidation(t *testing.T) {
	e, err := New(geometric(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunContext(context.Background(), Options{From: intp(5)}); err == nil {
		t.Fatal("out-of-range start state accepted")
	}
	if _, err := e.RunContext(context.Background(), Options{From: intp(-1)}); err == nil {
		t.Fatal("negative start state accepted")
	}
	all, err := New(geometric(), []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := all.RunContext(context.Background(), Options{}); err == nil {
		t.Fatal("all-target uniform start accepted")
	}
	// An explicit start state inside the target set is fine: T = 0.
	res, err := all.RunContext(context.Background(), Options{Trials: 10, From: intp(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 10 || res.Summary.Max != 0 {
		t.Fatalf("hits=%d max=%g, want 10 immediate hits", res.Hits, res.Summary.Max)
	}
}

// TestLongRowSampling exercises the binary-search branch (> 16
// successors) and checks the empirical law matches the row.
func TestLongRowSampling(t *testing.T) {
	const fanout = 40
	rows := make([][]tr, fanout+1)
	row := make([]tr, fanout)
	for i := 0; i < fanout; i++ {
		row[i] = tr{to: int32(i + 1), p: 1.0 / fanout}
	}
	rows[0] = row
	target := make([]bool, fanout+1)
	for i := 1; i <= fanout; i++ {
		target[i] = true
	}
	e, err := New(buildChain(rows), target)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(context.Background(), Options{Trials: fanout * 1000, Seed: 9, From: intp(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != fanout*1000 || res.Summary.Max != 1 {
		t.Fatalf("hits=%d max=%g, want all one-step hits", res.Hits, res.Summary.Max)
	}
}
