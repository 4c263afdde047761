package paracrash_test

import (
	"context"
	"regexp"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// durRE matches the wall-clock field of Report.Format, the only part of a
// report that legitimately differs between runs.
var durRE = regexp.MustCompile(`\| [0-9.]+s`)

// runCell runs one named (program, file system) cell: standalone when
// workers is 1, otherwise as a workers-way shard partition judged on
// cluster clones and merged (exps.RunOneShardedContext) — the execution
// shape of a paracrashd fleet with that many workers.
func runCell(ctx context.Context, fsName, progName string, opts paracrash.Options, workers int) (*paracrash.Report, error) {
	prog, err := exps.ProgramByName(progName)
	if err != nil {
		return nil, err
	}
	if workers == 1 {
		return exps.RunOneContext(ctx, fsName, prog, opts, workloads.DefaultH5Params(), exps.ConfigFor(fsName))
	}
	return exps.RunOneShardedContext(ctx, fsName, prog, opts, workloads.DefaultH5Params(), exps.ConfigFor(fsName), workers)
}

// runFingerprinted runs one (program, file system) cell (see runCell) and
// returns both the structural fingerprint and the rendered report with
// timings masked.
func runFingerprinted(t *testing.T, fsName, progName string, mode paracrash.Mode, workers int) (string, string) {
	t.Helper()
	opts := paracrash.DefaultOptions()
	opts.Mode = mode
	rep, err := runCell(context.Background(), fsName, progName, opts, workers)
	if err != nil {
		t.Fatalf("%s on %s, workers=%d: %v", progName, fsName, workers, err)
	}
	return exps.ReportFingerprint(rep), durRE.ReplaceAllString(rep.Format(), "| <dur>")
}

// TestParallelMatchesSerial is the sharded execution shape's contract: for
// every backend and a representative workload mix, a 4-shard partition
// judged on cluster clones and merged must produce a report identical to
// the standalone run's — same crash states, same bugs with the same dedup
// keys, same statistics, same rendered text modulo wall-clock time.
func TestParallelMatchesSerial(t *testing.T) {
	type cell struct {
		prog string
		mode paracrash.Mode
	}
	cells := []cell{
		{"ARVR", paracrash.ModeBrute},
		{"ARVR", paracrash.ModePruning},
		{"ARVR", paracrash.ModeOptimized},
		{"WAL", paracrash.ModePruning},
		{"H5-create", paracrash.ModePruning},
	}
	for _, fsName := range exps.FSNames() {
		for _, c := range cells {
			name := fsName + "/" + c.prog + "/" + c.mode.String()
			t.Run(name, func(t *testing.T) {
				serialFP, serialTxt := runFingerprinted(t, fsName, c.prog, c.mode, 1)
				parFP, parTxt := runFingerprinted(t, fsName, c.prog, c.mode, 4)
				if serialFP != parFP {
					t.Errorf("fingerprint mismatch:\n--- serial ---\n%s--- workers=4 ---\n%s", serialFP, parFP)
				}
				if serialTxt != parTxt {
					t.Errorf("Format mismatch:\n--- serial ---\n%s--- workers=4 ---\n%s", serialTxt, parTxt)
				}
			})
		}
	}
}

// TestParallelWorkerCounts varies the shard count on one cell: any N must
// reproduce the standalone report, including N far above the state count
// (empty shards).
func TestParallelWorkerCounts(t *testing.T) {
	serialFP, _ := runFingerprinted(t, "beegfs", "ARVR", paracrash.ModeBrute, 1)
	for _, w := range []int{2, 3, 8, 64} {
		fp, _ := runFingerprinted(t, "beegfs", "ARVR", paracrash.ModeBrute, w)
		if fp != serialFP {
			t.Errorf("workers=%d: fingerprint differs from serial", w)
		}
	}
}
