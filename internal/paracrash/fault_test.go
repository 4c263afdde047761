package paracrash_test

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/faultinject"
	"paracrash/internal/paracrash"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// runWithOpts runs the standalone beegfs/ARVR cell and fingerprints the
// report, so faulted and checkpointed runs compare against the plain ones.
func runWithOpts(t *testing.T, ctx context.Context, opts paracrash.Options) (string, error) {
	return runWorkersWithOpts(t, ctx, opts, 1)
}

// runWorkersWithOpts is runWithOpts for a workers-way shard partition
// (standalone when workers is 1; see runCell).
func runWorkersWithOpts(t *testing.T, ctx context.Context, opts paracrash.Options, workers int) (string, error) {
	t.Helper()
	if ctx == nil {
		ctx = context.Background()
	}
	rep, err := runCell(ctx, "beegfs", "ARVR", opts, workers)
	if err != nil {
		return "", err
	}
	return exps.ReportFingerprint(rep), nil
}

// TestFaultTransparency is the harness's headline property: with bounded
// per-point fault quotas (the default MaxPerPoint=1) and the default retry
// policy, injected faults are fully transparent — every mode reproduces the
// unfaulted report byte-for-byte, standalone or as a 4-shard partition
// merged, because fault decisions are schedule-independent and retries
// heal them.
func TestFaultTransparency(t *testing.T) {
	type cell struct {
		mode    paracrash.Mode
		workers int
	}
	cells := []cell{
		{paracrash.ModeBrute, 1},
		{paracrash.ModePruning, 1},
		{paracrash.ModePruning, 4},
		{paracrash.ModeOptimized, 1},
		{paracrash.ModeOptimized, 4},
	}
	var totalInjected int64
	for _, c := range cells {
		t.Run(c.mode.String()+"/workers="+itoa(c.workers), func(t *testing.T) {
			base := paracrash.DefaultOptions()
			base.Mode = c.mode
			baseFP, err := runWorkersWithOpts(t, nil, base, c.workers)
			if err != nil {
				t.Fatal(err)
			}

			faulted := base
			// A fresh plan per run: quotas are per-plan state, and reusing a
			// plan across runs would change the second run's fault weather.
			plan := faultinject.New(faultinject.Config{Seed: 99, Rate: 0.3})
			faulted.Faults = plan
			faultedFP, err := runWorkersWithOpts(t, nil, faulted, c.workers)
			if err != nil {
				t.Fatalf("faulted run errored instead of healing: %v", err)
			}
			totalInjected += plan.Injected()
			if faultedFP != baseFP {
				t.Errorf("faulted report differs from unfaulted baseline:\n--- base ---\n%s--- faulted ---\n%s", baseFP, faultedFP)
			}
		})
	}
	if totalInjected == 0 {
		t.Fatal("no faults were injected across any cell; the transparency test is vacuous")
	}
	t.Logf("healed %d injected faults across %d cells", totalInjected, len(cells))
}

// TestHardFaultsQuarantine models a fault that never heals: an unbounded
// quota on the reconstruction site. The run must complete without error,
// quarantining the poisoned states as Skipped instead of aborting —
// standalone and as a 4-shard partition, whose shards carry the quarantined
// verdicts to the merge.
func TestHardFaultsQuarantine(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run("workers="+itoa(workers), func(t *testing.T) {
			opts := paracrash.DefaultOptions()
			opts.Retry = paracrash.RetryPolicy{MaxAttempts: 2, Backoff: time.Microsecond}
			opts.Faults = faultinject.New(faultinject.Config{
				Seed: 1, Rate: 1, Kinds: []faultinject.Kind{faultinject.KindErr},
				Sites: []string{"pfs/apply"}, MaxPerPoint: 1 << 30,
			})
			rep, err := runCell(context.Background(), "beegfs", "ARVR", opts, workers)
			if err != nil {
				t.Fatalf("hard faults aborted the run: %v", err)
			}
			if len(rep.Skipped) == 0 {
				t.Fatal("hard faults on pfs/apply produced no quarantined states")
			}
			for _, sk := range rep.Skipped {
				if sk.Reason == "" {
					t.Fatalf("quarantined state %v has no reason", sk.Victims)
				}
			}
			t.Logf("run completed with %d quarantined states", len(rep.Skipped))
		})
	}
}

// TestHardFaultsDeterministic: even a fully poisoned run is deterministic —
// standalone and sharded explorations quarantine the same states and
// produce identical reports.
func TestHardFaultsDeterministic(t *testing.T) {
	run := func(workers int) string {
		opts := paracrash.DefaultOptions()
		opts.Retry = paracrash.RetryPolicy{MaxAttempts: 2, Backoff: time.Microsecond}
		opts.Faults = faultinject.New(faultinject.Config{
			Seed: 5, Rate: 1, Kinds: []faultinject.Kind{faultinject.KindErr},
			Sites: []string{"pfs/apply"}, MaxPerPoint: 1 << 30,
		})
		fp, err := runWorkersWithOpts(t, nil, opts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fp
	}
	serial, parallel := run(1), run(4)
	if serial != parallel {
		t.Errorf("poisoned runs diverge:\n--- serial ---\n%s--- workers=4 ---\n%s", serial, parallel)
	}
}

// TestCheckpointResumeIdentical: a second run over a completed journal must
// resume every verdict and still produce the identical report.
func TestCheckpointResumeIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	opts := paracrash.DefaultOptions()
	opts.Checkpoint = paracrash.OpenCheckpoint(path)
	first, err := runWithOpts(t, nil, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts2 := paracrash.DefaultOptions()
	ckpt := paracrash.OpenCheckpoint(path)
	opts2.Checkpoint = ckpt
	second, err := runWithOpts(t, nil, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Errorf("resumed report differs:\n--- first ---\n%s--- resumed ---\n%s", first, second)
	}
	if ckpt.Resumed() == 0 {
		t.Fatal("second run resumed no verdicts from a complete journal")
	}
	if w := ckpt.Warnings(); len(w) != 0 {
		t.Fatalf("unexpected resume warnings: %v", w)
	}
	t.Logf("resumed %d verdicts", ckpt.Resumed())
}

// TestChaosResumeDeterminism is the `make chaos` gate: a run under random
// injected faults is repeatedly killed mid-flight (context deadline) and
// resumed from its checkpoint journal; the eventual report must be
// byte-identical to an uninterrupted, unfaulted run. Covers standalone
// runs and 4-shard partitions, where every shard and the merge resume
// their own journals.
func TestChaosResumeDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run("workers="+itoa(workers), func(t *testing.T) {
			base := paracrash.DefaultOptions()
			baseFP, err := runWorkersWithOpts(t, nil, base, workers)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "ckpt.jsonl")
			deadline := 2 * time.Millisecond
			kills := 0
			var finalFP string
			var resumedTotal int
			for attempt := 0; ; attempt++ {
				if attempt > 60 {
					t.Fatal("chaos run did not converge in 60 kill/resume rounds")
				}
				opts := paracrash.DefaultOptions()
				opts.Checkpoint = paracrash.OpenCheckpoint(path)
				opts.Checkpoint.Every = 1 // journal every verdict so each round makes progress
				// Same seed every round: each fresh plan replays the same
				// fault weather, which retries then heal.
				opts.Faults = faultinject.New(faultinject.Config{Seed: 7, Rate: 0.25})

				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				fp, err := runWorkersWithOpts(t, ctx, opts, workers)
				cancel()
				if err == nil {
					finalFP = fp
					resumedTotal = opts.Checkpoint.Resumed()
					break
				}
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("chaos round %d died with a non-deadline error: %v", attempt, err)
				}
				kills++
				deadline += deadline / 2 // back off so the run eventually finishes
			}
			if finalFP != baseFP {
				t.Errorf("chaos-resumed report differs from clean baseline after %d kills:\n--- base ---\n%s--- chaos ---\n%s",
					kills, baseFP, finalFP)
			}
			t.Logf("survived %d mid-run kills; final run resumed %d journaled verdicts", kills, resumedTotal)
		})
	}
}

// TestCancelMidMergeNoLeak cancels a latency-faulted shard merge — the
// faults stretch the merge window — and asserts it returns promptly with
// every goroutine drained.
func TestCancelMidMergeNoLeak(t *testing.T) {
	prog, err := exps.ProgramByName("ARVR")
	if err != nil {
		t.Fatal(err)
	}
	h5p, conf := workloads.DefaultH5Params(), exps.ConfigFor("beegfs")
	opts := paracrash.DefaultOptions()
	opts.Mode = paracrash.ModeOptimized
	var shards []*paracrash.ShardReport
	for i := 0; i < 4; i++ {
		sr, err := exps.RunOneShardContext(context.Background(), "beegfs", prog, opts, h5p, conf, paracrash.ShardSpec{Index: i, Count: 4})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sr)
	}

	before := runtime.NumGoroutine()
	opts.Faults = faultinject.New(faultinject.Config{
		Seed: 3, Rate: 1, Kinds: []faultinject.Kind{faultinject.KindLatency},
		MaxPerPoint: 1 << 30, Latency: time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := exps.MergeOneShardsContext(ctx, "beegfs", prog, opts, h5p, conf, shards)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the merge get under way
	cancel()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return")
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// faultOnceLibrary wraps a Library so that its fault-th Replay call fails
// with an injected fault. Every preserved selection is replayed once and
// then cached, so the fault hits exactly one selection, and a retry
// replays that selection again.
type faultOnceLibrary struct {
	paracrash.Library
	fault, calls int
}

func (l *faultOnceLibrary) Replay(ops []*trace.Op) (string, error) {
	l.calls++
	if l.calls == l.fault {
		return "", &faultinject.Error{Kind: faultinject.KindErr, Site: "lib/replay", Key: itoa(len(ops))}
	}
	return l.Library.Replay(ops)
}

// TestLibraryReplayFaultTransparency: an injected fault in the library's
// replayer is transparent like any other — the legal-state enumeration
// aborts uncached, the retry re-enumerates, and the report equals the
// unfaulted run's. It faults each replay call of the run in turn, the
// golden replay (call 1) included. A checker that swallows the fault
// instead loses the golden library state, which every library consequence
// is diffed against, or caches a smaller legal set (TestLegalFaultAbortsUncached
// pins that rule on its own).
func TestLibraryReplayFaultTransparency(t *testing.T) {
	for _, fsName := range []string{"beegfs", "lustre"} {
		t.Run(fsName, func(t *testing.T) {
			prog, err := exps.ProgramByName("H5-rename")
			if err != nil {
				t.Fatal(err)
			}
			run := func(fault int) (string, int) {
				w, lib := prog.Make(workloads.DefaultH5Params())
				fs, err := exps.NewFS(fsName, exps.ConfigFor(fsName), trace.NewRecorder())
				if err != nil {
					t.Fatal(err)
				}
				wrapped := &faultOnceLibrary{Library: lib, fault: fault}
				opts := paracrash.DefaultOptions()
				opts.Retry = paracrash.RetryPolicy{Backoff: time.Microsecond}
				rep, err := paracrash.Run(fs, wrapped, w, opts)
				if err != nil {
					t.Fatalf("fault at replay %d: %v", fault, err)
				}
				return exps.ReportFingerprint(rep), wrapped.calls
			}
			base, calls := run(0)
			if calls < 2 {
				t.Fatalf("the run replayed the library only %d times", calls)
			}
			for fault := 1; fault <= calls; fault++ {
				if got, _ := run(fault); got != base {
					t.Fatalf("fault at library replay %d of %d changed the report:\n--- unfaulted ---\n%s--- faulted ---\n%s", fault, calls, base, got)
				}
			}
			t.Logf("%d library replays, each faulted once without changing the report", calls)
		})
	}
}
