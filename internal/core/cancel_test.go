package core

// Cancellation tests for the analysis entry points: a canceled context
// propagates into their exploration and solver stages.

import (
	"context"
	"errors"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/checker"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

func TestAnalyzeWithContextPreCanceled(t *testing.T) {
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeWithContext(ctx, ring, scheduler.CentralPolicy{}, statespace.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled AnalyzeWithContext: err = %v, want a wrapped context.Canceled", err)
	}
}

// TestSweepKFaultsContextPreCanceled pins the k-fault sweep the way
// service.Execute runs it (through the cache adapter, here over no cache).
func TestSweepKFaultsContextPreCanceled(t *testing.T) {
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := checker.SweepKFaultsContext(ctx, checker.CacheSources((*spacecache.Cache)(nil)), ring, scheduler.CentralPolicy{}, 2, statespace.Options{}, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled SweepKFaultsContext: err = %v, want a wrapped context.Canceled", err)
	}
}
