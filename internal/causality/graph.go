// Package causality builds the multi-layer, multi-process causality graph
// over traced operations and derives from it everything the crash emulator
// needs: the happens-before partial order, consistent cuts (order ideals),
// and the persists-before relation of the paper's Algorithm 2.
//
// Concurrency: Graph and PersistOrder are fully precomputed by Build and
// NewPersistOrder respectively and never mutated afterwards, so all their
// query methods (HB, Ideals, DownwardClosed, SyncFeasible, PersistsBefore,
// DependsOn, ...) are safe to call from multiple goroutines concurrently.
// The parallel exploration engine relies on this: shard workers share one
// Graph and one PersistOrder without locking.
package causality

import (
	"fmt"
	"math/bits"

	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// Graph is the happens-before DAG over a trace. Nodes are ops (indexed by
// position in Ops); the relation is the transitive closure of
//
//   - program order within each process,
//   - caller → callee edges across layers,
//   - send → receive edges for matched communications.
type Graph struct {
	// Ops holds every node. Indices into this slice are the node IDs used
	// throughout the package.
	Ops []*trace.Op

	byID map[int]int // trace op ID -> node index
	succ [][]int     // direct edges
	hb   []Bitset    // hb[i].Get(j) ⇔ i strictly happens-before j
}

// Build constructs the causality graph over ops. The ops must carry
// consistent Parent/MsgID links; unknown parents are ignored.
func Build(ops []*trace.Op) *Graph {
	g := &Graph{
		Ops:  ops,
		byID: make(map[int]int, len(ops)),
		succ: make([][]int, len(ops)),
	}
	for i, o := range ops {
		g.byID[o.ID] = i
	}

	addEdge := func(from, to int) {
		if from == to {
			return
		}
		g.succ[from] = append(g.succ[from], to)
	}

	// Program order within each process.
	lastByProc := map[string]int{}
	for i, o := range ops {
		if prev, ok := lastByProc[o.Proc]; ok {
			addEdge(prev, i)
		}
		lastByProc[o.Proc] = i
	}

	// Caller-callee edges.
	for i, o := range ops {
		if o.Parent >= 0 {
			if pi, ok := g.byID[o.Parent]; ok {
				addEdge(pi, i)
			}
		}
	}

	// Communication edges: send → recv.
	sends := map[int]int{}
	recvs := map[int]int{}
	for i, o := range ops {
		if !o.IsComm() {
			continue
		}
		if o.IsSend {
			sends[o.MsgID] = i
		} else {
			recvs[o.MsgID] = i
		}
	}
	for msg, si := range sends {
		if ri, ok := recvs[msg]; ok {
			addEdge(si, ri)
		}
	}

	g.closure()
	return g
}

// closure computes the transitive closure with a reverse-topological DP.
// The graph is a DAG by construction (all edge sources were recorded before
// their targets except possibly comm edges, so we verify with Kahn).
func (g *Graph) closure() {
	n := len(g.Ops)
	g.hb = make([]Bitset, n)
	for i := range g.hb {
		g.hb[i] = NewBitset(n)
	}
	// Topological order via Kahn's algorithm.
	indeg := make([]int, n)
	for _, outs := range g.succ {
		for _, t := range outs {
			indeg[t]++
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, t := range g.succ[v] {
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	if len(order) != n {
		panic(fmt.Sprintf("causality: trace graph has a cycle (%d of %d ordered)", len(order), n))
	}
	// Propagate reachability from sinks backwards.
	for k := len(order) - 1; k >= 0; k-- {
		v := order[k]
		for _, t := range g.succ[v] {
			g.hb[v].Set(t)
			g.hb[v].Union(g.hb[t])
		}
	}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.Ops) }

// HB reports whether node i strictly happens-before node j.
func (g *Graph) HB(i, j int) bool { return g.hb[i].Get(j) }

// IndexOf returns the node index of the op with the given trace ID.
func (g *Graph) IndexOf(opID int) (int, bool) {
	i, ok := g.byID[opID]
	return i, ok
}

// Succ returns the direct successors of node i (unsorted).
func (g *Graph) Succ(i int) []int { return g.succ[i] }

// Predecessors returns every node that strictly happens-before i, restricted
// to the given candidate subset (nil means all nodes).
func (g *Graph) Predecessors(i int, subset []int) []int {
	var out []int
	if subset == nil {
		for j := range g.Ops {
			if g.HB(j, i) {
				out = append(out, j)
			}
		}
		return out
	}
	for _, j := range subset {
		if g.HB(j, i) {
			out = append(out, j)
		}
	}
	return out
}

// DownwardClosed reports whether the set s (bitset over nodes restricted to
// universe) is closed under happens-before predecessors within universe:
// for every member j and every universe node i with i→j, i is a member.
func (g *Graph) DownwardClosed(s Bitset, universe []int) bool {
	for _, j := range universe {
		if !s.Get(j) {
			continue
		}
		for _, i := range universe {
			if g.HB(i, j) && !s.Get(i) {
				return false
			}
		}
	}
	return true
}

// DownwardClosure returns the smallest downward-closed superset of s within
// universe.
func (g *Graph) DownwardClosure(s Bitset, universe []int) Bitset {
	out := s.Clone()
	for _, j := range universe {
		if !out.Get(j) {
			continue
		}
		for _, i := range universe {
			if g.HB(i, j) {
				out.Set(i)
			}
		}
	}
	return out
}

// Ideals enumerates every consistent cut (order ideal) of the sub-poset
// induced by universe, invoking visit with a bitset over graph nodes whose
// set bits all belong to universe. Enumeration stops early when visit
// returns false or when limit ideals have been produced (limit <= 0 means
// unlimited). It returns the number of ideals visited.
//
// The enumeration processes universe nodes in index order (a topological
// order, since edges always point forward in recording order) and branches
// on membership; a node may join only if all its universe predecessors have
// joined, which yields each ideal exactly once.
func (g *Graph) Ideals(universe []int, limit int, visit func(Bitset) bool) int {
	// preds[k] = indices (into universe) of predecessors of universe[k].
	preds := make([][]int, len(universe))
	for k, j := range universe {
		for k2, i := range universe {
			if k2 >= k {
				break
			}
			if g.HB(i, j) {
				preds[k] = append(preds[k], k2)
			}
		}
	}
	cur := NewBitset(len(g.Ops))
	inSet := make([]bool, len(universe))
	count := 0
	stopped := false

	var rec func(k int)
	rec = func(k int) {
		if stopped {
			return
		}
		if k == len(universe) {
			count++
			if !visit(cur.Clone()) || (limit > 0 && count >= limit) {
				stopped = true
			}
			return
		}
		// Branch 1: exclude universe[k].
		inSet[k] = false
		rec(k + 1)
		if stopped {
			return
		}
		// Branch 2: include universe[k] if all predecessors are in.
		ok := true
		for _, p := range preds[k] {
			if !inSet[p] {
				ok = false
				break
			}
		}
		if ok {
			inSet[k] = true
			cur.Set(universe[k])
			rec(k + 1)
			cur.Clear(universe[k])
			inSet[k] = false
		}
	}
	rec(0)
	return count
}

// PersistConfig describes the persistence machinery of each lowermost-layer
// process: the journaling mode of user-level servers' local file systems
// and which processes are block devices (barrier semantics).
type PersistConfig struct {
	// Journal maps a local-FS proc name to its journaling mode. Procs not
	// present default to JournalData.
	Journal map[string]vfs.JournalMode
	// Block marks procs whose lowermost ops are block commands.
	Block map[string]bool
}

// ModeOf returns the journaling mode of proc.
func (c PersistConfig) ModeOf(proc string) vfs.JournalMode {
	if c.Journal == nil {
		return vfs.JournalData
	}
	m, ok := c.Journal[proc]
	if !ok {
		return vfs.JournalData
	}
	return m
}

// IsBlock reports whether proc is a block device.
func (c PersistConfig) IsBlock(proc string) bool {
	return c.Block != nil && c.Block[proc]
}

// PersistOrder precomputes the persists-before relation (Algorithm 2) over
// a universe of lowermost-layer nodes.
type PersistOrder struct {
	g        *Graph
	universe []int
	// pb[a].Get(b) ⇔ universe[a] persists-before universe[b]
	pb []Bitset
	// posOf maps graph node index -> position in universe (-1 if absent).
	posOf map[int]int
	// coveredBy[s] lists the graph nodes whose persistence a completed
	// sync node s guarantees (same file or device, executed before s).
	coveredBy map[int][]int
}

// NewPersistOrder computes persists-before over the given lowermost nodes.
func NewPersistOrder(g *Graph, universe []int, cfg PersistConfig) *PersistOrder {
	po := &PersistOrder{
		g:        g,
		universe: universe,
		pb:       make([]Bitset, len(universe)),
		posOf:    make(map[int]int, len(universe)),
	}
	for k, i := range universe {
		po.posOf[i] = k
		po.pb[k] = NewBitset(len(universe))
	}
	// Collect sync nodes per proc for the commit rule.
	syncs := []int{}
	for _, i := range universe {
		if g.Ops[i].Sync {
			syncs = append(syncs, i)
		}
	}
	for a, i := range universe {
		for b, j := range universe {
			if a == b {
				continue
			}
			if po.computePersistsBefore(i, j, cfg, syncs) {
				po.pb[a].Set(b)
			}
		}
	}
	// Sync coverage: once a sync completes, the operations it covers are
	// durable — no later crash can lose them.
	po.coveredBy = map[int][]int{}
	for _, s := range syncs {
		os := g.Ops[s]
		for _, i := range universe {
			if i == s {
				continue
			}
			oi := g.Ops[i]
			if oi.Proc != os.Proc || !g.HB(i, s) {
				continue
			}
			if cfg.IsBlock(oi.Proc) || (os.FileID != "" && os.FileID == oi.FileID) {
				po.coveredBy[s] = append(po.coveredBy[s], i)
			}
		}
	}
	return po
}

// SyncFeasible reports whether a crash state (front, keep) respects commit
// durability: every op covered by a sync that completed within the front
// must be in keep. States violating this cannot occur on real storage.
func (po *PersistOrder) SyncFeasible(front, keep Bitset) bool {
	for s, covered := range po.coveredBy {
		if !front.Get(s) {
			continue
		}
		for _, o := range covered {
			if front.Get(o) && !keep.Get(o) {
				return false
			}
		}
	}
	return true
}

// computePersistsBefore implements Algorithm 2 for a single pair.
func (po *PersistOrder) computePersistsBefore(i, j int, cfg PersistConfig, syncs []int) bool {
	g := po.g
	oi, oj := g.Ops[i], g.Ops[j]

	// The commit rule applies everywhere: a sync covering op i that happened
	// between i and j forces i to persist first. For file systems the sync
	// must cover i's file; for block devices any barrier on i's device
	// suffices.
	for _, s := range syncs {
		os := g.Ops[s]
		if os.Proc != oi.Proc {
			continue
		}
		covers := false
		if cfg.IsBlock(oi.Proc) {
			covers = true // device-wide barrier
		} else if os.FileID != "" && os.FileID == oi.FileID {
			covers = true
		}
		if covers && (s == i || g.HB(i, s)) && g.HB(s, j) {
			return true
		}
	}

	if oi.Proc != oj.Proc {
		// Different servers: only the commit rule above orders them.
		return false
	}

	if cfg.IsBlock(oi.Proc) {
		// Same block device: ordering only through barriers (handled above).
		return false
	}

	// Same local file system: journaling mode decides.
	if !g.HB(i, j) {
		return false
	}
	switch cfg.ModeOf(oi.Proc) {
	case vfs.JournalData:
		return true
	case vfs.JournalOrdered:
		// Metadata is ordered; data persists before subsequent metadata.
		return oj.Meta
	case vfs.JournalWriteback:
		return oi.Meta && oj.Meta
	default:
		return true
	}
}

// PersistsBefore reports whether graph node i persists-before graph node j.
// Both must be members of the universe.
func (po *PersistOrder) PersistsBefore(i, j int) bool {
	a, ok1 := po.posOf[i]
	b, ok2 := po.posOf[j]
	if !ok1 || !ok2 {
		return false
	}
	return po.pb[a].Get(b)
}

// DependsOn returns the closure of Algorithm 1's depends_on: the set of
// universe nodes (as graph indices) that cannot persist if victim does not,
// i.e. victim plus every op reachable through persists-before.
func (po *PersistOrder) DependsOn(victim int, within Bitset) Bitset {
	out := NewBitset(len(po.g.Ops))
	v, ok := po.posOf[victim]
	if !ok {
		return out
	}
	out.Set(victim)
	// Worklist closure over the persists-before relation. Each universe
	// position is queued at most once, so the queue never outgrows the
	// universe; the rows of pb are walked word by word in place.
	seen := NewBitset(len(po.universe))
	seen.Set(v)
	work := make([]int, 1, len(po.universe))
	work[0] = v
	for head := 0; head < len(work); head++ {
		for wi, w := range po.pb[work[head]] {
			for ; w != 0; w &= w - 1 {
				b := wi*64 + bits.TrailingZeros64(w)
				nodeB := po.universe[b]
				if within != nil && !within.Get(nodeB) {
					continue
				}
				if !seen.Get(b) {
					seen.Set(b)
					out.Set(nodeB)
					work = append(work, b)
				}
			}
		}
	}
	return out
}

// Universe returns the node universe of the persist order.
func (po *PersistOrder) Universe() []int { return po.universe }
