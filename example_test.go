package paracrash_test

import (
	"context"
	"fmt"

	"paracrash"
	core "paracrash/internal/paracrash"
)

// Example runs the paper's ARVR program against BeeGFS and prints the
// discovered crash-consistency bugs — the Figure 2 scenario.
func Example() {
	rec := paracrash.NewRecorder()
	fs, err := paracrash.NewFileSystem("beegfs", paracrash.DefaultConfig(), rec)
	if err != nil {
		panic(err)
	}
	report, err := paracrash.Run(fs, nil, paracrash.ARVR(), paracrash.DefaultOptions())
	if err != nil {
		panic(err)
	}
	for _, b := range report.Bugs {
		fmt.Printf("%s: %s -> %s\n", b.Kind, b.OpA, b.OpB)
	}
	// Output:
	// reordering: append(chunk)@storage#1 -> rename(dentry)@meta#0
	// reordering: rename(dentry)@meta#0 -> unlink(chunk)@storage#0
}

// Example_crossLayer attaches the HDF5 library adapter so inconsistencies
// are attributed to the responsible layer.
func Example_crossLayer() {
	rec := paracrash.NewRecorder()
	fs, err := paracrash.NewFileSystem("lustre", paracrash.ConfigFor("lustre"), rec)
	if err != nil {
		panic(err)
	}
	w := paracrash.H5Delete(paracrash.DefaultH5Params())
	report, err := paracrash.Run(fs, w.Library(), w, paracrash.DefaultOptions())
	if err != nil {
		panic(err)
	}
	for _, b := range report.Bugs {
		fmt.Printf("[%s] %s: %s -> %s\n", b.Layer, b.Kind, b.OpA, b.OpB)
	}
	// Output:
	// [hdf5] atomicity: scsi_write(h5:snod:/g1)@server#0 -> scsi_write(h5:heap:/g1)@server#1
}

// Example_parallelExploration splits crash-state checking into four
// shards — the unit a paracrashd fleet hands to its worker processes —
// judges each on its own cluster with RunShard, and merges the verdicts
// with MergeShards (both in the engine package). The merge replays the
// serial visiting order, so the sharded report lists exactly the serial
// run's bugs.
func Example_parallelExploration() {
	newFS := func() paracrash.FileSystem {
		fs, err := paracrash.NewFileSystem("beegfs", paracrash.DefaultConfig(), paracrash.NewRecorder())
		if err != nil {
			panic(err)
		}
		return fs
	}
	bugs := func(report *paracrash.Report) string {
		s := fmt.Sprintf("%d inconsistent:", report.Inconsistent)
		for _, b := range report.Bugs {
			s += fmt.Sprintf(" [%s %s -> %s]", b.Kind, b.OpA, b.OpB)
		}
		return s
	}
	ctx, opts := context.Background(), paracrash.DefaultOptions()
	serial, err := paracrash.Run(newFS(), nil, paracrash.ARVR(), opts)
	if err != nil {
		panic(err)
	}
	var shards []*core.ShardReport
	for i := 0; i < 4; i++ {
		sr, err := core.RunShard(ctx, newFS(), nil, paracrash.ARVR(), opts, core.ShardSpec{Index: i, Count: 4})
		if err != nil {
			panic(err)
		}
		shards = append(shards, sr)
	}
	merged, err := core.MergeShards(ctx, newFS(), nil, paracrash.ARVR(), opts, shards)
	if err != nil {
		panic(err)
	}
	fmt.Println(bugs(serial))
	fmt.Println("sharded run identical:", bugs(merged) == bugs(serial))
	// Output:
	// 2 inconsistent: [reordering append(chunk)@storage#1 -> rename(dentry)@meta#0] [reordering rename(dentry)@meta#0 -> unlink(chunk)@storage#0]
	// sharded run identical: true
}

// Example_modelSelection tests the same program and file system against
// each consistency model of the paper's §4.4.2 lattice. Stricter models
// flag more crash states as inconsistent; the paper tests every PFS
// against causal.
func Example_modelSelection() {
	for _, model := range []paracrash.Model{
		paracrash.ModelStrict, paracrash.ModelCommit,
		paracrash.ModelCausal, paracrash.ModelBaseline,
	} {
		rec := paracrash.NewRecorder()
		fs, err := paracrash.NewFileSystem("beegfs", paracrash.DefaultConfig(), rec)
		if err != nil {
			panic(err)
		}
		opts := paracrash.DefaultOptions()
		opts.PFSModel = model
		report, err := paracrash.Run(fs, nil, paracrash.ARVR(), opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d inconsistent states, %d bugs\n",
			model, report.Inconsistent, len(report.Bugs))
	}
	// Output:
	// strict: 4 inconsistent states, 3 bugs
	// commit: 1 inconsistent states, 1 bugs
	// causal: 2 inconsistent states, 2 bugs
	// baseline: 4 inconsistent states, 3 bugs
}

// Example_lustreIsCleanOnPOSIX reproduces the paper's negative result:
// Lustre's accurate barriers leave no POSIX-level crash-consistency bug.
func Example_lustreIsCleanOnPOSIX() {
	rec := paracrash.NewRecorder()
	fs, err := paracrash.NewFileSystem("lustre", paracrash.ConfigFor("lustre"), rec)
	if err != nil {
		panic(err)
	}
	report, err := paracrash.Run(fs, nil, paracrash.ARVR(), paracrash.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("inconsistent states: %d, bugs: %d\n", report.Inconsistent, len(report.Bugs))
	// Output:
	// inconsistent states: 0, bugs: 0
}
