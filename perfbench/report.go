package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"

	"weakstab/internal/checker"
	"weakstab/internal/cli"
	"weakstab/internal/core"
	"weakstab/internal/markov"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/service"
	"weakstab/internal/statespace"
)

// reportCase is one report-mode instance and what the paper says of it.
type reportCase struct {
	req    service.Request
	states int
	// mean is the exact expected stabilization time over the
	// illegitimate states, from the Markov solve.
	mean float64
}

// tokenring(10,4) under the central daemon: 1.05M states, 7.86M edges.
var largeCase = reportCase{
	req:    service.Request{Alg: "tokenring", N: 10, K: 4, Policy: "central"},
	states: 1 << 20,
	mean:   27.63748659738709,
}

func setupReportLarge(ctx context.Context, e *env) (session, error) {
	return setupReport(ctx, largeCase)
}

// reportSession runs report jobs of one instance, each on a fresh
// single-worker Manager without a disk cache: one stabcheck run.
type reportSession struct {
	c   reportCase
	a   protocol.Algorithm
	pol scheduler.Policy
	ref []byte       // the warm-up job's result document
	rep *core.Report // and its in-process report
	// Work counts of the first traced job, which every later one repeats.
	edges, gsSweeps float64
}

func setupReport(ctx context.Context, c reportCase) (session, error) {
	a, err := cli.Spec{Algorithm: c.req.Alg, N: c.req.N, K: c.req.K}.Build()
	if err != nil {
		return nil, err
	}
	pol, err := cli.BuildPolicy(c.req.Policy)
	if err != nil {
		return nil, err
	}
	resp, doc, err := runReport(ctx, c.req)
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	if err := c.check(resp.Report); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return &reportSession{c: c, a: a, pol: pol, ref: doc, rep: resp.CoreReport}, nil
}

// runReport runs one report job on a fresh Manager and returns its
// result document.
func runReport(ctx context.Context, req service.Request) (*service.Response, []byte, error) {
	m := service.NewManager(service.Config{})
	defer m.Shutdown(ctx)
	resp, err := m.Do(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	var doc bytes.Buffer
	if err := resp.WriteJSON(&doc); err != nil {
		return nil, nil, err
	}
	return resp, doc.Bytes(), nil
}

// check verifies the classification the paper gives the instance:
// weak- and probabilistically self-stabilizing, not self-stabilizing,
// with a strongly fair diverging lasso (Theorem 6).
func (c reportCase) check(r *service.ReportJSON) error {
	switch {
	case r == nil:
		return fmt.Errorf("no report in the result")
	case r.States != c.states:
		return fmt.Errorf("%d states, want %d", r.States, c.states)
	case !r.Closure || !r.PossibleConvergence || r.CertainConvergence || !r.ProbabilisticConvergence || !r.FairLassoFound:
		return fmt.Errorf("verdicts closure=%t possible=%t certain=%t prob-one=%t fair-lasso=%t, want true true false true true",
			r.Closure, r.PossibleConvergence, r.CertainConvergence, r.ProbabilisticConvergence, r.FairLassoFound)
	case !r.WeakStabilizing || r.SelfStabilizing || !r.ProbabilisticallySelfStabilizing:
		return fmt.Errorf("classes weak=%t self=%t probabilistic=%t, want true false true",
			r.WeakStabilizing, r.SelfStabilizing, r.ProbabilisticallySelfStabilizing)
	case r.Classification != core.ClassProbabilistic.String():
		return fmt.Errorf("classified %q", r.Classification)
	case r.ExpectedSteps == nil || math.Abs(r.ExpectedSteps.Mean-c.mean) > 1e-9*c.mean:
		return fmt.Errorf("expected steps %+v, want mean %v", r.ExpectedSteps, c.mean)
	}
	return nil
}

func (s *reportSession) job(ctx context.Context, i int) error {
	_, doc, err := runReport(ctx, s.c.req)
	if err != nil {
		return err
	}
	if !bytes.Equal(doc, s.ref) {
		return fmt.Errorf("result document differs from the warm-up job's")
	}
	return nil
}

// traced runs the job's layer calls directly, in the order
// core.AnalyzeSpaceContext makes them, and checks that they reproduce the
// warm-up job's verdicts and expected-step summary.
func (s *reportSession) traced(ctx context.Context, i int, tr *tracer) error {
	before := tr.counters()
	root := tr.open(i, -1, rootJob)
	var (
		sp  *statespace.Space
		err error
	)
	build := tr.do(i, root, "statespace.build", func() { sp, err = statespace.BuildContext(ctx, s.a, s.pol, statespace.Options{}) })
	if err != nil {
		tr.close(root)
		return err
	}
	defer sp.Close()
	cs := checker.FromSpace(sp)
	var (
		closure           checker.ClosureResult
		possible, certain checker.ConvergenceResult
		lasso             checker.FairLasso
	)
	tr.do(i, root, "checker.closure", func() { closure = cs.CheckClosure() })
	tr.do(i, root, "checker.possible", func() { possible = cs.CheckPossibleConvergence() })
	tr.do(i, root, "checker.certain", func() { certain = cs.CheckCertainConvergence() })
	tr.do(i, root, "checker.lasso", func() { lasso = cs.FindStronglyFairLasso() })

	var chain *markov.Chain
	tr.do(i, root, "markov.chain", func() { chain, err = markov.FromSpace(sp) })
	if err != nil {
		tr.close(root)
		return err
	}
	target := markov.TargetFromSpace(sp)
	var probOne []bool
	tr.do(i, root, "markov.probone", func() { probOne = chain.ReachesWithProbOne(target) })
	allOne := true
	for _, ok := range probOne {
		allOne = allOne && ok
	}
	var radius float64
	tr.do(i, root, "checker.radius", func() { radius = cs.MaxShortestConvergencePath() })
	var summary markov.Summary
	if allOne {
		var h []float64
		tr.do(i, root, "markov.solve", func() { h, err = chain.HittingTimesContext(ctx, target) })
		if err != nil {
			tr.close(root)
			return err
		}
		summary = markov.Summarize(h, target)
	}
	got := core.Report{
		Algorithm:                s.a.Name(),
		Policy:                   s.pol.Name(),
		States:                   sp.NumStates(),
		Closure:                  closure.Holds,
		PossibleConvergence:      possible.Holds,
		CertainConvergence:       certain.Holds,
		ProbabilisticConvergence: allOne,
		FairLassoFound:           lasso.Found,
		ExpectedSteps:            summary,
		ConvergenceRadius:        radius,
		TotalConfigs:             sp.TotalConfigs(),
	}
	tr.close(root)

	after := tr.counters()
	edges, sweeps := float64(sp.Edges()), delta(before, after, "solver.gs_sweeps")
	tr.record("statespace.edges", edges)
	tr.record("statespace.states_per_s", float64(sp.NumStates())/(tr.spans[build].ms()/1e3))
	tr.record("markov.gs_blocks", delta(before, after, "solver.blocks.gs"))
	tr.record("markov.gs_sweeps", sweeps)

	if got != *s.rep {
		return fmt.Errorf("traced layer calls gave %+v, the service job %+v", got, *s.rep)
	}
	if s.edges == 0 {
		s.edges, s.gsSweeps = edges, sweeps
	} else if edges != s.edges || sweeps != s.gsSweeps {
		return fmt.Errorf("work counts edges=%v gs_sweeps=%v differ from the first traced job's %v, %v", edges, sweeps, s.edges, s.gsSweeps)
	}
	return nil
}

// finish has nothing left to repeat: every job is a repeat of the
// warm-up job, checked byte for byte.
func (s *reportSession) finish(context.Context) error { return nil }

func (s *reportSession) counts() string {
	out := fmt.Sprintf("states=%d doc_sha256=%x", s.c.states, sha256.Sum256(s.ref))
	if s.edges > 0 {
		out += fmt.Sprintf(" edges=%.0f gs_sweeps=%.0f", s.edges, s.gsSweeps)
	}
	return out
}

func (s *reportSession) close() {}
