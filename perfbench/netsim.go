package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"weakstab/internal/cli"
	"weakstab/internal/netsim"
	"weakstab/internal/protocol"
)

// The netsim-lossy network: one to three rounds of latency per message
// and 1% i.i.d. loss.
const lossyNet = "latency:uniform:1:3,loss:0.01"

// netsimSession runs Dijkstra's K-state ring of 1024 processes over the
// lossy network, one trial per job, from a random configuration derived
// from the job's seed.
type netsimSession struct {
	seed   int64
	a      protocol.Algorithm
	topo   *netsim.Topology
	faults []netsim.Fault

	trials                  int
	rounds, sent, delivered int64
	results                 map[int]netsim.Result // the timed jobs', by index
}

func setupNetsim(ctx context.Context, e *env) (session, error) {
	s := &netsimSession{seed: e.seed, results: map[int]netsim.Result{}}
	var err error
	if s.a, err = (cli.Spec{Algorithm: "dijkstra", N: 1024}).Build(); err != nil {
		return nil, err
	}
	if s.faults, err = cli.ParseFaults(lossyNet); err != nil {
		return nil, err
	}
	t := time.Now()
	s.topo, err = netsim.NewTopology(s.a)
	if e.tr != nil {
		e.tr.record("netsim.topology_ms", msSince(t))
	}
	if err != nil {
		return nil, err
	}
	if _, err := s.trial(ctx, -1); err != nil {
		return nil, fmt.Errorf("warm-up trial: %w", err)
	}
	return s, nil
}

// trial runs job i's trial and checks that it converged.
func (s *netsimSession) trial(ctx context.Context, i int) (netsim.Result, error) {
	seed := jobSeed(s.seed, i)
	init := protocol.RandomConfiguration(s.a, rand.New(rand.NewSource(seed)))
	res, err := netsim.RunOnContext(ctx, s.topo, s.a, init, netsim.Options{Seed: seed, Faults: s.faults})
	return res, s.check(res, err)
}

func (s *netsimSession) check(res netsim.Result, err error) error {
	switch {
	case err != nil:
		return err
	case !res.Converged || !s.a.Legitimate(res.Final):
		return fmt.Errorf("did not converge within %d rounds", res.Rounds)
	}
	return nil
}

func (s *netsimSession) job(ctx context.Context, i int) error {
	res, err := s.trial(ctx, i)
	if err != nil {
		return err
	}
	s.results[i] = res
	s.trials++
	s.rounds += int64(res.Rounds)
	s.sent += res.Sent
	s.delivered += res.Delivered
	return nil
}

func (s *netsimSession) traced(ctx context.Context, i int, tr *tracer) error {
	before := tr.counters()
	root := tr.open(i, -1, rootJob)
	seed := jobSeed(s.seed, i)
	init := protocol.RandomConfiguration(s.a, rand.New(rand.NewSource(seed)))
	var (
		res netsim.Result
		err error
	)
	run := tr.do(i, root, "netsim.trial", func() {
		res, err = netsim.RunOnContext(ctx, s.topo, s.a, init, netsim.Options{Seed: seed, Faults: s.faults})
	})
	err = s.check(res, err)
	tr.close(root)
	if err != nil {
		return err
	}
	after := tr.counters()
	procRounds := delta(before, after, "netsim.proc_rounds")
	tr.record("netsim.proc_rounds", procRounds)
	tr.record("netsim.proc_rounds_per_s", procRounds/(tr.spans[run].ms()/1e3))
	tr.record("netsim.msgs_sent", delta(before, after, "netsim.sent"))
	tr.record("netsim.delivery_ratio", delta(before, after, "netsim.delivered")/delta(before, after, "netsim.sent"))
	if p, ok := s.results[i]; ok && (p.Rounds != res.Rounds || p.Sent != res.Sent || p.Delivered != res.Delivered) {
		return fmt.Errorf("traced trial ran %d rounds, sent %d, delivered %d; untraced %d, %d, %d",
			res.Rounds, res.Sent, res.Delivered, p.Rounds, p.Sent, p.Delivered)
	}
	return nil
}

// finish repeats trial 0, which must reproduce its work counts exactly.
func (s *netsimSession) finish(ctx context.Context) error {
	res, err := s.trial(ctx, 0)
	if err != nil {
		return err
	}
	if p := s.results[0]; p.Rounds != res.Rounds || p.Sent != res.Sent || p.Delivered != res.Delivered {
		return fmt.Errorf("repeating trial 0 ran %d rounds, sent %d, delivered %d; first %d, %d, %d",
			res.Rounds, res.Sent, res.Delivered, p.Rounds, p.Sent, p.Delivered)
	}
	return nil
}

func (s *netsimSession) counts() string {
	return fmt.Sprintf("trials=%d rounds=%d proc_rounds=%d sent=%d delivered=%d",
		s.trials, s.rounds, s.rounds*int64(s.topo.N()), s.sent, s.delivered)
}

func (s *netsimSession) close() {}
