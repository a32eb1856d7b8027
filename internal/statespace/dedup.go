package statespace

// Dedup assigns dense local ids to sparse global configuration indexes —
// the visited set of every frontier exploration (BuildFromContext's reachable
// subspaces, the checker's fault-ball enumeration). Small index ranges get
// a dense int32 array (one probe, no hashing); large ranges get a sharded
// hash table whose memory is proportional to the number of *discovered*
// states, not the range — which is the whole point of frontier
// exploration, whose subspaces routinely live inside index ranges far too
// large to allocate a visited array for.
//
// Concurrency contract: Lookup is safe from any number of goroutines while
// no Add is running (shards are plain maps; the frontier engine alternates
// a parallel read-only expansion phase with a serial insertion phase).
// Add itself must be serialized by the caller — id assignment order is
// what makes frontier exploration deterministic.

// dedupShards is the shard count of the sparse table. Sharding bounds the
// per-map rehash cost as the discovered set grows and keeps the table
// ready for concurrent per-shard insertion if a future engine wants it.
const dedupShards = 256

// DenseDedupLimit is the index-range size up to which Dedup uses the dense
// visited array (4 bytes per configuration of the range) instead of the
// sharded table.
const DenseDedupLimit = 1 << 22

// Dedup maps global configuration indexes to the dense local ids
// [0, Len()), in insertion order. The zero value is not usable; call
// NewDedup (growable) or NewSortedDedup (sealed, binary-searched).
type Dedup struct {
	dense   []int32 // global -> local id, -1 when absent (small ranges)
	shards  []map[int64]int32
	sorted  bool    // sealed: globals strictly ascending, Lookup binary-searches
	globals []int64 // local id -> global index, insertion order
}

// NewDedup returns an empty table for global indexes in [0, total).
func NewDedup(total int64) *Dedup {
	d := &Dedup{}
	if total <= DenseDedupLimit {
		d.dense = make([]int32, total)
		for i := range d.dense {
			d.dense[i] = -1
		}
		return d
	}
	d.shards = make([]map[int64]int32, dedupShards)
	for i := range d.shards {
		d.shards[i] = make(map[int64]int32)
	}
	return d
}

// shardOf spreads global indexes over the shards by Fibonacci hashing (the
// indexes themselves are highly structured — mixed-radix neighbors differ
// by one weight — so the raw low bits would collide pathologically).
func shardOf(g int64) int {
	return int((uint64(g) * 0x9e3779b97f4a7c15) >> 56)
}

// Lookup returns the local id of g, or -1 when g has not been added.
func (d *Dedup) Lookup(g int64) int32 {
	if d.sorted {
		lo, hi := 0, len(d.globals)
		for lo < hi {
			mid := (lo + hi) / 2
			if d.globals[mid] < g {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(d.globals) && d.globals[lo] == g {
			return int32(lo)
		}
		return -1
	}
	if d.dense != nil {
		return d.dense[g]
	}
	if id, ok := d.shards[shardOf(g)][g]; ok {
		return id
	}
	return -1
}

// Add inserts g if absent and returns its local id (existing or newly
// assigned). Ids are assigned in insertion order. Add must not be called
// on a sealed (NewSortedDedup) table.
func (d *Dedup) Add(g int64) int32 {
	if d.sorted {
		panic("statespace: Add on a sealed dedup table")
	}
	if d.dense != nil {
		if id := d.dense[g]; id >= 0 {
			return id
		}
		id := int32(len(d.globals))
		d.dense[g] = id
		d.globals = append(d.globals, g)
		return id
	}
	shard := d.shards[shardOf(g)]
	if id, ok := shard[g]; ok {
		return id
	}
	id := int32(len(d.globals))
	shard[g] = id
	d.globals = append(d.globals, g)
	return id
}

// NewDedupFromGlobals rebuilds a growable table over [0, total) whose id
// order is exactly the given global list (id i -> globals[i]) — for
// callers that re-adopt a sealed set they will keep growing, such as the
// checker's resumed fault ball. The list must be duplicate-free.
func NewDedupFromGlobals(total int64, globals []int64) *Dedup {
	d := NewDedup(total)
	for _, g := range globals {
		d.Add(g)
	}
	return d
}

// NewSortedDedup returns a sealed table whose id order is the given
// strictly-ascending global list: Lookup binary-searches the list itself —
// no dense array over the range, no hash table, no per-entry insertion
// cost. Canonical subspaces (sealed snapshots, deserialized caches) are
// exactly this shape: their ids are ascending-global by construction and
// their state set never grows. The list is adopted, not copied; Add and
// Renumber panic.
func NewSortedDedup(globals []int64) *Dedup {
	return &Dedup{sorted: true, globals: globals}
}

// Len returns the number of distinct globals added.
func (d *Dedup) Len() int { return len(d.globals) }

// Globals returns the added global indexes in id order. The slice aliases
// the table; callers must not modify it.
func (d *Dedup) Globals() []int64 { return d.globals }

// Renumber reassigns local ids so that id order equals the given
// permutation: order[newID] is the old id whose global now gets newID.
// Used by the frontier engine to canonicalize discovery-order ids into
// ascending-global order after exploration.
func (d *Dedup) Renumber(order []int32) {
	if d.sorted {
		panic("statespace: Renumber on a sealed dedup table")
	}
	remapped := make([]int64, len(order))
	for newID, old := range order {
		g := d.globals[old]
		remapped[newID] = g
		if d.dense != nil {
			d.dense[g] = int32(newID)
		} else {
			d.shards[shardOf(g)][g] = int32(newID)
		}
	}
	d.globals = remapped
}
