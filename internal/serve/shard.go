// Fleet sharding: how one explore job spreads across worker processes.
//
// The coordinator partitions a job's crash-state space into Count shards
// and writes one task record per shard into the shared results directory.
// Worker processes (cmd/paracrashd -role worker) scan for tasks, claim a
// shard's lease (lease.go), judge the shard with paracrash.RunShard —
// journaling verdicts to a shard-scoped checkpoint so a reclaimed shard
// resumes the dead worker's frontier — and persist a result record. The
// coordinator polls for results and merges them with MergeShards into the
// byte-identical standalone report.
//
// Everything is files in one directory with the store's temp+rename+fsync
// discipline: the fleet needs no RPC fabric beyond a shared file system,
// which is the natural deployment substrate for a PFS testing tool.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/faultinject"
	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
	"paracrash/internal/statefs"
)

// FleetVersion is the schema version of shard task/result records.
const FleetVersion = 1

// ShardTask is one unit of fleet work: a job shard awaiting a worker.
type ShardTask struct {
	Version int            `json:"version"`
	Job     string         `json:"job"`
	Shard   core.ShardSpec `json:"shard"`
	Request JobRequest     `json:"request"`
}

// ShardResult is a worker's completed shard: the shard report, or the error
// that killed it.
type ShardResult struct {
	Version int            `json:"version"`
	Job     string         `json:"job"`
	Shard   core.ShardSpec `json:"shard"`
	// Worker is the ID of the worker that produced the result.
	Worker string `json:"worker"`
	// Epoch is the lease epoch the worker held; >1 means the shard was
	// reclaimed at least once before completing.
	Epoch int `json:"epoch"`
	// Err is set when the shard failed for good (not a lease loss — those
	// leave no result so another worker retries).
	Err    string            `json:"err,omitempty"`
	Report *core.ShardReport `json:"report,omitempty"`
}

// shardTaskPath/shardResultPath name the fleet records for one shard.
func shardTaskPath(dir, job string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("task-%s-shard-%d.json", sanitizeID(job), index))
}
func shardResultPath(dir, job string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("result-%s-shard-%d.json", sanitizeID(job), index))
}

// shardCheckpointPath is the shard's verdict journal — shared between the
// worker that started the shard and any worker that reclaims it.
func shardCheckpointPath(dir, job string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%s-shard-%d.jsonl", sanitizeID(job), index))
}

// WriteShardTask persists one task record.
func WriteShardTask(dir string, t ShardTask) error {
	t.Version = FleetVersion
	return statefs.WriteJSON(siteShardTask, shardTaskPath(dir, t.Job, t.Shard.Index), t)
}

// ListShardTasks returns every task record in the directory, sorted by job
// then shard index (the worker scan order). Unparsable or version-skewed
// records are skipped — one corrupt task must not wedge the fleet.
func ListShardTasks(dir string) ([]ShardTask, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "task-*-shard-*.json"))
	if err != nil {
		return nil, err
	}
	var out []ShardTask
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var t ShardTask
		if err := json.Unmarshal(data, &t); err != nil || t.Version != FleetVersion || t.Job == "" {
			continue
		}
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Job != out[b].Job {
			return out[a].Job < out[b].Job
		}
		return out[a].Shard.Index < out[b].Shard.Index
	})
	return out, nil
}

// WriteShardResult persists one result record.
func WriteShardResult(dir string, r ShardResult) error {
	r.Version = FleetVersion
	return statefs.WriteJSON(siteShardResult, shardResultPath(dir, r.Job, r.Shard.Index), r)
}

// ReadShardResult loads one shard's result; ok=false when none exists yet.
func ReadShardResult(dir, job string, index int) (ShardResult, bool, error) {
	data, err := os.ReadFile(shardResultPath(dir, job, index))
	if err != nil {
		if os.IsNotExist(err) {
			return ShardResult{}, false, nil
		}
		return ShardResult{}, false, err
	}
	var r ShardResult
	if err := json.Unmarshal(data, &r); err != nil {
		return ShardResult{}, false, fmt.Errorf("serve: malformed shard result for %s/%d: %w", job, index, err)
	}
	if r.Version != FleetVersion {
		return ShardResult{}, false, fmt.Errorf("serve: shard result for %s/%d has version %d, want %d", job, index, r.Version, FleetVersion)
	}
	return r, true, nil
}

// RemoveShardFiles deletes every fleet record of one job — tasks, results,
// leases and shard checkpoints — after the merge (or a terminal failure).
func RemoveShardFiles(dir, job string, count int) {
	for i := 0; i < count; i++ {
		os.Remove(shardTaskPath(dir, job, i))
		os.Remove(shardResultPath(dir, job, i))
		os.Remove(shardCheckpointPath(dir, job, i))
		os.Remove(filepath.Join(dir, "lease-"+sanitizeID(leaseTaskForShard(job, i))+".json"))
	}
}

// FleetWorkerConfig configures one worker process.
type FleetWorkerConfig struct {
	// Dir is the shared results directory (the coordinator's store dir).
	Dir string
	// ID identifies this worker in leases and results. Default "worker-<pid>".
	ID string
	// LeaseTTL is how long a claimed shard stays ours without renewal;
	// a worker that dies is reclaimed after at most this long. Default 3s.
	LeaseTTL time.Duration
	// Heartbeat is the renewal cadence. Default LeaseTTL/3.
	Heartbeat time.Duration
	// Poll is the task-scan cadence when idle. Default 500ms.
	Poll time.Duration
	// Retry/Faults mirror the scheduler's engine knobs.
	Retry  core.RetryPolicy
	Faults *faultinject.Plan
	// Obs (nilable) receives the worker's metrics.
	Obs *obs.Run
	// HoldLeaseOnCancel simulates hard worker death for the chaos tests: a
	// cancelled worker exits without releasing its lease, so reclaim must
	// wait out the TTL exactly as after a kill -9.
	HoldLeaseOnCancel bool
}

func (c FleetWorkerConfig) withDefaults() FleetWorkerConfig {
	if c.ID == "" {
		c.ID = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.LeaseTTL / 3
	}
	if c.Poll <= 0 {
		c.Poll = 500 * time.Millisecond
	}
	return c
}

// FleetWorker claims and judges shards until its context is cancelled.
type FleetWorker struct {
	cfg    FleetWorkerConfig
	leases *LeaseDir
}

// NewFleetWorker builds a worker over the shared directory.
func NewFleetWorker(cfg FleetWorkerConfig) (*FleetWorker, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("serve: fleet worker needs a shared directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: fleet dir: %w", err)
	}
	ld, err := NewLeaseDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	return &FleetWorker{cfg: cfg, leases: ld}, nil
}

// ID returns the worker's identity.
func (w *FleetWorker) ID() string { return w.cfg.ID }

// Run is the worker loop: scan for tasks, claim one, judge it, repeat.
// It returns when ctx is cancelled. Shards run one at a time — fleet
// parallelism is across worker processes, and a shard explores serially.
func (w *FleetWorker) Run(ctx context.Context) error {
	tick := time.NewTicker(w.cfg.Poll)
	defer tick.Stop()
	for {
		worked := w.runOne(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if worked {
			continue // drain the backlog before sleeping
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// runOne scans once and processes at most one claimable task, reporting
// whether it did any work.
func (w *FleetWorker) runOne(ctx context.Context) bool {
	tasks, err := ListShardTasks(w.cfg.Dir)
	if err != nil {
		w.cfg.Obs.Counter("fleet/scan-errors").Inc()
		return false
	}
	for _, t := range tasks {
		if ctx.Err() != nil {
			return false
		}
		if _, done, _ := ReadShardResult(w.cfg.Dir, t.Job, t.Shard.Index); done {
			continue
		}
		lease, err := w.leases.Claim(leaseTaskForShard(t.Job, t.Shard.Index), w.cfg.ID, w.cfg.LeaseTTL)
		if err != nil {
			if !errors.Is(err, ErrLeaseHeld) {
				w.cfg.Obs.Counter("fleet/claim-errors").Inc()
			}
			continue
		}
		if lease.Epoch > 1 {
			w.cfg.Obs.Counter("fleet/reclaims").Inc()
		}
		w.cfg.Obs.Counter("fleet/claims").Inc()
		w.runTask(ctx, t, lease)
		return true
	}
	return false
}

// runTask judges one claimed shard under a heartbeat, writes the result and
// releases the lease. A lost lease (another worker reclaimed us after a
// stall) abandons the shard silently — the new owner produces the result.
func (w *FleetWorker) runTask(ctx context.Context, t ShardTask, lease *Lease) {
	// The heartbeat renews until the shard finishes; losing the lease
	// cancels the shard so we stop burning CPU on work we no longer own.
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	lost := make(chan struct{})
	go func() {
		tick := time.NewTicker(w.cfg.Heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				if err := w.leases.Renew(lease, w.cfg.LeaseTTL); err != nil {
					if errors.Is(err, ErrLeaseLost) {
						close(lost)
						return
					}
					w.cfg.Obs.Counter("fleet/renew-errors").Inc()
				}
			}
		}
	}()
	shardCtx, shardCancel := context.WithCancel(ctx)
	defer shardCancel()
	go func() {
		select {
		case <-lost:
			shardCancel()
		case <-hbCtx.Done():
		}
	}()

	report, err := w.executeShard(shardCtx, t)
	hbCancel()

	select {
	case <-lost:
		// Presumed dead and reclaimed: the new owner resumed our journal;
		// writing a result now would be a stale epoch's word against theirs
		// (identical verdicts, but the new owner may still be judging).
		w.cfg.Obs.Counter("fleet/leases-lost").Inc()
		return
	default:
	}
	if ctx.Err() != nil {
		// Worker shutdown mid-shard: leave no result. With HoldLeaseOnCancel
		// the lease times out like a crash; otherwise release it so another
		// worker picks the shard up immediately.
		if !w.cfg.HoldLeaseOnCancel {
			_ = w.leases.Release(lease)
		}
		return
	}
	res := ShardResult{Job: t.Job, Shard: t.Shard, Worker: w.cfg.ID, Epoch: lease.Epoch}
	if err != nil {
		res.Err = err.Error()
		w.cfg.Obs.Counter("fleet/shard-failures").Inc()
	} else {
		res.Report = report
		w.cfg.Obs.Counter("fleet/shards-done").Inc()
	}
	if werr := WriteShardResult(w.cfg.Dir, res); werr != nil {
		w.cfg.Obs.Counter("fleet/result-write-errors").Inc()
		return
	}
	_ = w.leases.Release(lease)
}

// executeShard runs the engine for one shard with panic isolation, resuming
// the shard's checkpoint journal (ours, or a dead predecessor's).
func (w *FleetWorker) executeShard(ctx context.Context, t ShardTask) (report *core.ShardReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			report = nil
			err = fmt.Errorf("serve: shard panicked: %v\n%s", r, debug.Stack())
		}
	}()
	req := t.Request
	prog, perr := exps.ProgramByName(req.Program)
	if perr != nil {
		return nil, perr
	}
	opts := req.options()
	opts.Obs = w.cfg.Obs
	opts.Retry = w.cfg.Retry
	opts.Faults = w.cfg.Faults
	opts.Checkpoint = core.OpenCheckpoint(shardCheckpointPath(w.cfg.Dir, t.Job, t.Shard.Index))
	opts.Checkpoint.Every = 1 // a reclaim must find the frontier, not a stale batch
	rep, rerr := exps.RunOneShardContext(ctx, req.FS, prog, opts, req.h5Params(), exps.ConfigFor(req.FS), t.Shard)
	if rerr != nil {
		return nil, rerr
	}
	if n := opts.Checkpoint.Resumed(); n > 0 {
		w.cfg.Obs.Counter("fleet/resumed-verdicts").Add(int64(n))
	}
	return rep, nil
}

// FleetConfig arms the scheduler's coordinator role: explore jobs are
// partitioned into shards executed by external workers.
type FleetConfig struct {
	// Shards is the default partition width for explore jobs (a job may ask
	// for its own via JobRequest.Shards). Values < 2 mean the job runs
	// standalone in-process.
	Shards int
	// MaxShards caps any job's requested partition width (default 16).
	MaxShards int
	// Poll is the coordinator's result-poll cadence (default 250ms).
	Poll time.Duration
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.MaxShards <= 0 {
		c.MaxShards = 16
	}
	if c.Poll <= 0 {
		c.Poll = 250 * time.Millisecond
	}
	return c
}

// effectiveShards resolves one job's partition width.
func (c FleetConfig) effectiveShards(req JobRequest) int {
	n := c.Shards
	if req.Shards > 0 {
		n = req.Shards
	}
	if n > c.MaxShards {
		n = c.MaxShards
	}
	return n
}

// executeFleet is the coordinator's explore path: write one task per shard,
// wait for worker results, merge. Fuzz jobs and width<2 partitions never
// reach here (execute falls back to the in-process engine).
func (s *Scheduler) executeFleet(ctx context.Context, job *Job, run *obs.Run, count int) (*core.Report, error) {
	req := job.Request
	prog, perr := exps.ProgramByName(req.Program)
	if perr != nil {
		return nil, perr
	}
	dir := s.store.Dir()
	run.Gauge("fleet/shards").Set(int64(count))
	for i := 0; i < count; i++ {
		// Tasks are idempotent per job ID: a coordinator resuming an
		// interrupted job rewrites identical tasks, and shards that already
		// have results are simply not re-claimed by workers.
		if err := WriteShardTask(dir, ShardTask{Job: job.ID, Shard: core.ShardSpec{Index: i, Count: count}, Request: req}); err != nil {
			return nil, fmt.Errorf("serve: writing shard task %d/%d: %w", i, count, err)
		}
	}
	s.obs.Counter("fleet/shards-dispatched").Add(int64(count))

	// Poll for results. Workers own all the retry machinery (lease reclaim,
	// checkpoint resume); the coordinator only waits — bounded by the job's
	// timeout like any other job.
	reports := make([]*core.ShardReport, count)
	have := make([]bool, count)
	pending := count
	tick := time.NewTicker(s.fleet.Poll)
	defer tick.Stop()
	for pending > 0 {
		for i := 0; i < count; i++ {
			if have[i] {
				continue
			}
			res, ok, err := ReadShardResult(dir, job.ID, i)
			if err != nil {
				run.Counter("fleet/result-read-errors").Inc()
				continue
			}
			if !ok {
				continue
			}
			if res.Err != "" {
				RemoveShardFiles(dir, job.ID, count)
				return nil, fmt.Errorf("serve: shard %d/%d failed on worker %s: %s", i, count, res.Worker, res.Err)
			}
			reports[i] = res.Report
			have[i] = true
			pending--
			run.Counter("fleet/shards-merged").Inc()
			run.Gauge("fleet/shards-pending").Set(int64(pending))
		}
		if pending == 0 {
			break
		}
		select {
		case <-ctx.Done():
			// Cancellation/timeout: leave tasks and results in place — a
			// resubmitted job (same ID) reuses finished shards and workers
			// resume the unfinished ones from their journals.
			return nil, ctx.Err()
		case <-tick.C:
		}
	}

	opts := req.options()
	opts.Obs = run
	opts.Retry = s.cfg.Retry
	opts.Faults = s.cfg.Faults
	if p := s.checkpointPath(job.ID); p != "" {
		opts.Checkpoint = core.OpenCheckpoint(p)
	}
	rep, err := exps.MergeOneShardsContext(ctx, req.FS, prog, opts, req.h5Params(), exps.ConfigFor(req.FS), reports)
	if err != nil {
		return nil, err
	}
	if opts.Checkpoint != nil {
		os.Remove(opts.Checkpoint.Path())
	}
	RemoveShardFiles(dir, job.ID, count)
	return rep, nil
}
