//go:build !race

package exps

import (
	"testing"

	"paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// TestWholePipelineAllocs bounds the allocations of one whole job, from the
// traced run to the report, on a cell where the library-layer replay
// (HDF5 object decoding) and the persist-order closure dominate. The race
// detector's instrumentation allocates on its own, so the guard is built
// without it.
func TestWholePipelineAllocs(t *testing.T) {
	const ceiling = 60000
	prog, err := ProgramByName("H5-resize")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := RunOne("lustre", prog, paracrash.DefaultOptions(), workloads.DefaultH5Params(), ConfigFor("lustre")); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("H5-resize/lustre: %.0f allocations per run", allocs)
	if allocs > ceiling {
		t.Fatalf("H5-resize/lustre makes %.0f allocations per run, ceiling %d", allocs, ceiling)
	}
}
