package core

import (
	"context"
	"fmt"

	"weakstab/internal/markov"
	"weakstab/internal/mc"
	"weakstab/internal/obs"
	"weakstab/internal/statespace"
)

// EstimateSpaceContext estimates the stabilization-time distribution of an
// already-explored transition system under its policy's randomized
// scheduler by Monte Carlo simulation on its CSR (internal/mc), targeting
// its legitimate set — the estimator for the regime where the exact
// hitting-time solve no longer fits. A zero-copy mapped system is pinned
// for the duration (mc.New/RunContext acquire it), so a concurrent Close
// cannot unmap the CSR mid-walk. ctx is checked at batch granularity.
func EstimateSpaceContext(ctx context.Context, ts *statespace.Space, mcOpt mc.Options) (*mc.Result, error) {
	done := obs.Or(mcOpt.Obs).Phase("mc")
	defer done()
	e, err := mc.New(ts, markov.TargetFromSpace(ts))
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", ts.Alg.Name(), err)
	}
	res, err := e.RunContext(ctx, mcOpt)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", ts.Alg.Name(), err)
	}
	return res, nil
}
