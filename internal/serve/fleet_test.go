package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/faultinject"
	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
)

// startFleet builds a coordinator scheduler over a persistent store and n
// worker loops sharing its directory, all tuned for test latencies.
func startFleet(t *testing.T, dir string, shards, workers int) (*Scheduler, *Store, func()) {
	t.Helper()
	st, warns := OpenStore(dir)
	if len(warns) > 0 {
		t.Fatal(warns[0])
	}
	s := NewScheduler(SchedulerConfig{
		MaxConcurrent: 1,
		Fleet:         &FleetConfig{Shards: shards, Poll: 5 * time.Millisecond},
	}, st, nil)
	s.Start()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w, err := NewFleetWorker(FleetWorkerConfig{Dir: dir, ID: fmt.Sprintf("w%d", i), Poll: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	stop := func() {
		cancel()
		wg.Wait()
		_ = s.Drain(context.Background())
	}
	return s, st, stop
}

// standaloneFingerprint runs the same request in-process (serial engine)
// and fingerprints the report — the byte-identity baseline.
func standaloneFingerprint(t *testing.T, req JobRequest) string {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	prog, err := exps.ProgramByName(req.Program)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exps.RunOneContext(context.Background(), req.FS, prog, req.options(), req.h5Params(), exps.ConfigFor(req.FS))
	if err != nil {
		t.Fatal(err)
	}
	return exps.ReportFingerprint(rep)
}

// TestFleetByteIdentity: a 3-worker fleet over every backend produces the
// byte-identical report a standalone serial run produces — the tentpole
// invariant, checked end to end through the coordinator, leases, shard
// checkpoints and the merge.
func TestFleetByteIdentity(t *testing.T) {
	for _, fsName := range exps.FSNames() {
		fsName := fsName
		t.Run(fsName, func(t *testing.T) {
			req := JobRequest{Kind: JobKindExplore, FS: fsName, Program: "CR", Mode: "pruning"}
			want := standaloneFingerprint(t, req)

			s, st, stop := startFleet(t, t.TempDir(), 3, 3)
			defer stop()
			job, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			done := waitState(t, st, job.ID, JobDone)
			if done.Report == nil {
				t.Fatal("fleet job finished without a report")
			}
			if got := exps.ReportFingerprint(done.Report); got != want {
				t.Errorf("fleet report diverged from standalone on %s:\nfleet:      %.120q\nstandalone: %.120q", fsName, got, want)
			}
		})
	}
}

// TestFleetShardFailureFailsJob: a shard that fails for good (not a lease
// loss) must fail the job with the worker's error, not hang the
// coordinator.
func TestFleetShardFailureFailsJob(t *testing.T) {
	dir := t.TempDir()
	st, warns := OpenStore(dir)
	if len(warns) > 0 {
		t.Fatal(warns[0])
	}
	s := NewScheduler(SchedulerConfig{
		MaxConcurrent: 1,
		Fleet:         &FleetConfig{Shards: 2, Poll: 5 * time.Millisecond},
	}, st, nil)
	s.Start()
	defer s.Drain(context.Background())

	job, err := s.Submit(JobRequest{FS: "beegfs", Program: "CR"})
	if err != nil {
		t.Fatal(err)
	}
	// Play a worker that fails shard 0 terminally.
	deadline := time.Now().Add(10 * time.Second)
	for {
		tasks, _ := ListShardTasks(dir)
		if len(tasks) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never wrote shard tasks")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := WriteShardResult(dir, ShardResult{Job: job.ID, Shard: core.ShardSpec{Index: 0, Count: 2}, Worker: "wX", Epoch: 1, Err: "disk on fire"}); err != nil {
		t.Fatal(err)
	}
	j := waitState(t, st, job.ID, JobFailed)
	if j.Error == "" {
		t.Fatalf("failed job carries no error: %+v", j)
	}
}

// TestChaosFleetWorkerDeathLeaseReclaim is the fleet chaos drill: workers
// are repeatedly "killed" mid-shard (context cancelled while configured to
// hold the lease, exactly like a kill -9), the lease expires, a fresh
// worker reclaims the shard at a bumped epoch and resumes the dead
// worker's checkpoint journal — and the merged report is still
// byte-identical to the standalone run.
func TestChaosFleetWorkerDeathLeaseReclaim(t *testing.T) {
	req := JobRequest{Kind: JobKindExplore, FS: "lustre", Program: "CR", Mode: "optimized"}
	want := standaloneFingerprint(t, req)

	dir := t.TempDir()
	st, warns := OpenStore(dir)
	if len(warns) > 0 {
		t.Fatal(warns[0])
	}
	s := NewScheduler(SchedulerConfig{
		MaxConcurrent: 1,
		Fleet:         &FleetConfig{Shards: 3, Poll: 5 * time.Millisecond},
	}, st, nil)
	s.Start()
	defer s.Drain(context.Background())

	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Rounds of short-lived workers with escalating lifetimes: early rounds
	// die mid-shard leaving a held lease and a partial journal; later rounds
	// must wait out the TTL, reclaim at epoch >= 2 and resume the journal.
	// Fault injection makes per-state work uneven, like the engine's own
	// chaos drill.
	const ttl = 50 * time.Millisecond
	var reclaims, resumed int64
	finished := func() bool {
		j, ok := st.Get(job.ID)
		return ok && j.State.Terminal()
	}
	for round := 0; !finished(); round++ {
		if round > 120 {
			t.Fatal("fleet never finished the job under worker churn")
		}
		wrun := obs.NewRun()
		w, err := NewFleetWorker(FleetWorkerConfig{
			Dir:               dir,
			ID:                fmt.Sprintf("chaos-w%d", round),
			LeaseTTL:          ttl,
			Heartbeat:         10 * time.Millisecond,
			Poll:              time.Millisecond,
			HoldLeaseOnCancel: true,
			Faults:            faultinject.New(faultinject.Config{Seed: 7, Rate: 0.25}),
			Obs:               wrun,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(round+1)*3*time.Millisecond)
		_ = w.Run(ctx)
		cancel()
		reclaims += wrun.Counter("fleet/reclaims").Value()
		resumed += wrun.Counter("fleet/resumed-verdicts").Value()
		// Let the dead worker's lease expire before the next one spawns.
		time.Sleep(ttl + 20*time.Millisecond)
	}

	j := waitState(t, st, job.ID, JobDone)
	if j.Report == nil {
		t.Fatalf("chaos job finished without a report: %+v", j)
	}
	if got := exps.ReportFingerprint(j.Report); got != want {
		t.Errorf("report diverged from standalone after worker churn:\nfleet:      %.120q\nstandalone: %.120q", got, want)
	}
	if reclaims == 0 {
		t.Error("no shard was ever reclaimed from an expired lease — the chaos never bit")
	}
	if resumed == 0 {
		t.Error("no reclaimed shard resumed a dead worker's checkpoint journal")
	}
}
