// Visit planning: the per-server signatures of a crash state's kept ops and
// the greedy TSP tour over them that the optimized mode (and a shard run in
// optimized mode) visits states along.
package paracrash

import (
	"fmt"
	"sort"
	"strings"

	"paracrash/internal/tsp"
)

// stateKey is the cache/dedup key of a crash state.
func stateKey(cs CrashState) string {
	return cs.Front.Key() + "|" + cs.Keep.Key()
}

// serverProcs returns ServerOps plus the sorted proc names — the
// deterministic per-server iteration order shared by the visit planner and
// the reconstructor.
func (e *Emulator) serverProcs() ([]string, map[string][]int) {
	serverOps := e.ServerOps()
	procs := make([]string, 0, len(serverOps))
	for p := range serverOps {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	return procs, serverOps
}

// stateSigs computes the per-state, per-server signatures of the kept
// subsequence (the distance basis of the incremental reconstruction).
func stateSigs(states []CrashState, procs []string, serverOps map[string][]int) [][]string {
	sigs := make([][]string, len(states))
	for i, cs := range states {
		sigs[i] = make([]string, len(procs))
		for pi, p := range procs {
			var b strings.Builder
			for _, n := range serverOps[p] {
				if cs.Keep.Get(n) {
					fmt.Fprintf(&b, "%d,", n)
				}
			}
			sigs[i][pi] = b.String()
		}
	}
	return sigs
}

// exploreOrder returns the greedy TSP tour over servers-changed distance.
func exploreOrder(n, nprocs int, sigs [][]string) []int {
	dist := func(i, j int) int {
		d := 0
		for pi := 0; pi < nprocs; pi++ {
			if sigs[i][pi] != sigs[j][pi] {
				d++
			}
		}
		return d
	}
	return tsp.GreedyOrder(n, dist)
}
