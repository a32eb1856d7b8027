package mc

import (
	"context"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/markov"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

// BenchmarkMCWalk measures raw sampling throughput on a real explored
// space (tokenring n=8 under the central daemon, 16.8M configurations
// restricted by exploration). The metric that matters is walker-steps/s
// — the tentpole targets >= 1e8 steps/s per box.
func BenchmarkMCWalk(b *testing.B) {
	a, err := tokenring.New(8)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := statespace.BuildContext(context.Background(), a, scheduler.CentralPolicy{}, statespace.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(sp, markov.TargetFromSpace(sp))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		res, err := e.RunContext(context.Background(), Options{Trials: 100_000, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.WalkerSteps
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(steps)/sec, "walker-steps/s")
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// BenchmarkMCWalkSingleWorker isolates per-core throughput.
func BenchmarkMCWalkSingleWorker(b *testing.B) {
	a, err := tokenring.New(8)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := statespace.BuildContext(context.Background(), a, scheduler.CentralPolicy{}, statespace.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(sp, markov.TargetFromSpace(sp))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		res, err := e.RunContext(context.Background(), Options{Trials: 100_000, Seed: int64(i), Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.WalkerSteps
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(steps)/sec, "walker-steps/s")
	}
}
