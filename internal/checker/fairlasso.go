package checker

import (
	"sort"

	"weakstab/internal/statespace"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// FairLasso is a witness refuting self-stabilization under the strongly
// fair scheduler: a closed walk through illegitimate configurations that
// activates every process it ever enables, so that repeating it forever is
// a strongly fair execution never reaching L.
type FairLasso struct {
	Found bool
	// Cycle holds the walk's configurations; step i goes from Cycle[i] to
	// Cycle[i+1], and the walk closes from the last back to the first.
	Cycle []protocol.Configuration
	// Records are the per-step enabled/chosen sets of the walk.
	Records []scheduler.StepRecord
}

// FindStronglyFairLasso searches the illegitimate subgraph for a strongly
// fair non-converging lasso. It decomposes the subgraph into strongly
// connected components and, for each component containing a cycle, builds a
// closed walk covering every internal edge; if that walk activates every
// process it enables, it is returned as a witness.
//
// The check is sufficient but not necessary: a component may still contain
// a fair sub-cycle that the all-edges walk misses. For the paper's
// instances (Theorem 6's two-token rings, Figure 3's chain) the walk is
// found. Only deterministic algorithms are supported (the activation subset
// of an edge must be recoverable).
func (sp *Space) FindStronglyFairLasso() FairLasso {
	det, ok := sp.Alg.(protocol.Deterministic)
	if !ok {
		return FairLasso{}
	}
	comp := sp.sccs()
	legit := sp.Legit
	// Group states per component; iterate components in ascending id
	// order so witnesses are deterministic across runs.
	members := map[int32][]int32{}
	var order []int32
	for s, c := range comp {
		if !legit[s] {
			if members[c] == nil {
				order = append(order, c)
			}
			members[c] = append(members[c], int32(s))
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, c := range order {
		states := members[c]
		if !sp.componentHasCycle(states, comp) {
			continue
		}
		if lasso := sp.tryComponentWalk(det, states, comp); lasso.Found {
			return lasso
		}
	}
	return FairLasso{}
}

// sccs returns the component id of every state in the illegitimate subgraph
// (legitimate states get -1), through the shared statespace Tarjan. On a
// frontier-explored space the condensation runs over the reachable subgraph
// only — BuildFromContext closes the successor relation before sealing, so
// Tarjan sees every edge of the region it condenses.
func (sp *Space) sccs() []int32 {
	legit := sp.Legit
	include := make([]bool, sp.NumStates())
	for s := range include {
		include[s] = !legit[s]
	}
	off, succ, _ := sp.CSR()
	comp, _ := statespace.SCC(sp.NumStates(), off, succ, include)
	return comp
}

// componentHasCycle reports whether the component contains a cycle: more
// than one state, or a single state with a self-loop.
func (sp *Space) componentHasCycle(states []int32, comp []int32) bool {
	if len(states) > 1 {
		return true
	}
	s := states[0]
	for _, t := range sp.Succ(int(s)) {
		if t == s {
			return true
		}
	}
	return false
}

// tryComponentWalk builds a closed walk covering every internal edge of the
// component and checks strong fairness of the induced records.
func (sp *Space) tryComponentWalk(det protocol.Deterministic, states []int32, comp []int32) FairLasso {
	inComp := map[int32]bool{}
	for _, s := range states {
		inComp[s] = true
	}
	cid := comp[states[0]]
	// Collect internal edges.
	type edge struct{ from, to int32 }
	var edges []edge
	for _, s := range states {
		for _, t := range sp.Succ(int(s)) {
			if comp[t] == cid && inComp[t] {
				edges = append(edges, edge{from: s, to: t})
			}
		}
	}
	if len(edges) == 0 {
		return FairLasso{}
	}
	// Build the walk: start anywhere, repeatedly path to the next uncovered
	// edge's source, traverse it, finally path back to the start.
	start := edges[0].from
	cur := start
	var walk []int32
	walk = append(walk, cur)
	for _, e := range edges {
		for _, step := range sp.pathWithin(cur, e.from, inComp) {
			walk = append(walk, step)
		}
		walk = append(walk, e.to)
		cur = e.to
	}
	for _, step := range sp.pathWithin(cur, start, inComp) {
		walk = append(walk, step)
	}
	// Induce step records: for each consecutive pair, find an activation
	// subset producing it.
	var records []scheduler.StepRecord
	var cycle []protocol.Configuration
	for i := 0; i+1 < len(walk); i++ {
		s, t := walk[i], walk[i+1]
		cfg := sp.Config(int(s))
		enabled := protocol.EnabledProcesses(sp.Alg, cfg)
		chosen := sp.findSubset(det, cfg, enabled, t)
		if chosen == nil {
			return FairLasso{}
		}
		records = append(records, scheduler.StepRecord{Enabled: enabled, Chosen: chosen})
		cycle = append(cycle, cfg)
	}
	if !scheduler.StronglyFairCycle(records) {
		return FairLasso{}
	}
	return FairLasso{Found: true, Cycle: cycle, Records: records}
}

// pathWithin returns the interior+destination states of a shortest path
// from src to dst staying inside the component (empty if src == dst).
func (sp *Space) pathWithin(src, dst int32, inComp map[int32]bool) []int32 {
	if src == dst {
		return nil
	}
	parent := map[int32]int32{src: -1}
	queue := []int32{src}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for _, t := range sp.Succ(int(s)) {
			if !inComp[t] {
				continue
			}
			if _, seen := parent[t]; seen {
				continue
			}
			parent[t] = s
			if t == dst {
				var rev []int32
				for cur := t; cur != src; cur = parent[cur] {
					rev = append(rev, cur)
				}
				out := make([]int32, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					out = append(out, rev[i])
				}
				return out
			}
			queue = append(queue, t)
		}
	}
	return nil
}

// findSubset returns an activation subset of enabled that steps cfg to the
// state index want, or nil.
func (sp *Space) findSubset(det protocol.Deterministic, cfg protocol.Configuration, enabled []int, want int32) []int {
	for _, sub := range sp.Pol.Subsets(enabled) {
		next := protocol.Step(det, cfg, sub, nil)
		if got, ok := sp.StateOf(next); ok && got == want {
			return sub
		}
	}
	return nil
}
