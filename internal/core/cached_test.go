package core

import (
	"context"
	"sync/atomic"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

// countingAlg counts Legitimate evaluations — the one callback only
// exploration makes (analyses read the precomputed LegitSet; the
// fair-lasso search does re-query guards to recover activation subsets,
// but never legitimacy). A warm cached run must make zero. It embeds
// protocol.Deterministic so the wrapped instance keeps its deterministic
// fast paths and the lasso search, making the report comparable
// field-for-field with the unwrapped cold run's.
type countingAlg struct {
	protocol.Deterministic
	calls atomic.Int64
}

func (c *countingAlg) Legitimate(cfg protocol.Configuration) bool {
	c.calls.Add(1)
	return c.Deterministic.Legitimate(cfg)
}

// analyzeCached explores through the disk cache at dir — load-or-build,
// the full space when seeds is nil and the seeds' forward closure
// otherwise — with the zero-copy mmap load path on or off, and classifies
// the result: the explore-then-AnalyzeSpaceContext path every job runs.
func analyzeCached(t *testing.T, dir string, mmap bool, a protocol.Algorithm, pol scheduler.Policy, seeds []protocol.Configuration, opt statespace.Options) *Report {
	t.Helper()
	cache, err := spacecache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetMmap(mmap)
	ctx := context.Background()
	var sp *statespace.Space
	if seeds == nil {
		sp, _, err = cache.BuildSpaceContext(ctx, a, pol, opt)
	} else {
		sp, _, err = cache.BuildSubSpaceFromConfigsContext(ctx, a, pol, seeds, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	rep, err := AnalyzeSpaceContext(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// assertWarmParity runs the cold analysis of inner through a fresh cache,
// then a warm one on the mmap path and one on the decode path: each warm
// run must perform zero exploration and render a bit-identical report —
// hierarchy verdicts, expected hitting times, radii and all.
func assertWarmParity(t *testing.T, inner protocol.Deterministic, pol scheduler.Policy, seeds []protocol.Configuration, opt statespace.Options) *Report {
	t.Helper()
	dir := t.TempDir()
	cold := analyzeCached(t, dir, true, inner, pol, seeds, opt)
	for _, mmap := range []bool{true, false} {
		warm := &countingAlg{Deterministic: inner}
		rep := analyzeCached(t, dir, mmap, warm, pol, seeds, opt)
		if warm.calls.Load() != 0 {
			t.Fatalf("%s (mmap=%v): warm run made %d exploration calls, want 0 (cache missed)", pol.Name(), mmap, warm.calls.Load())
		}
		if *rep != *cold {
			t.Fatalf("%s (mmap=%v): warm report differs from cold:\ncold: %+v\nwarm: %+v", pol.Name(), mmap, *cold, *rep)
		}
		if rep.String() != cold.String() {
			t.Fatalf("%s (mmap=%v): rendered reports differ", pol.Name(), mmap)
		}
	}
	return cold
}

// TestAnalyzeCachedParity pins the cache's end-to-end contract on the
// decision procedure over the full space, under every policy.
func TestAnalyzeCachedParity(t *testing.T) {
	inner, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []scheduler.Policy{
		scheduler.CentralPolicy{}, scheduler.DistributedPolicy{}, scheduler.SynchronousPolicy{},
	} {
		assertWarmParity(t, inner, pol, nil, statespace.Options{})
	}
}

// TestAnalyzeFromCachedParity is the same contract on the frontier path.
func TestAnalyzeFromCachedParity(t *testing.T) {
	inner, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []protocol.Configuration{{1, 0, 2, 1, 0, 3}, {0, 0, 0, 0, 0, 0}}
	assertWarmParity(t, inner, scheduler.CentralPolicy{}, seeds, statespace.Options{})
}

// TestAnalyzeCachedLargeInstance is the acceptance-scale check: a repeated
// run on a ≥10^5-state instance (tokenring N=11 with modulus 3: 3^11 =
// 177147 configurations) skips exploration entirely and produces a
// bit-identical report.
func TestAnalyzeCachedLargeInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance; skipped with -short")
	}
	inner, err := tokenring.NewWithModulus(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	cold := assertWarmParity(t, inner, scheduler.CentralPolicy{}, nil, statespace.Options{MaxStates: 1 << 21})
	if cold.States < 100_000 {
		t.Fatalf("instance has %d states, want ≥ 10^5 for the acceptance-scale check", cold.States)
	}
}
