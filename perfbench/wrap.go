package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"paracrash/internal/causality"
	"paracrash/internal/faultinject"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

// boundary is one timed layer boundary of the traced run.
type boundary int

const (
	bTrace      boundary = iota // Workload.Preamble + Run
	bRestore                    // Snapshot, Restore, RestoreServer, CaptureServer, RestoreServerSnap
	bApply                      // ApplyLowermost
	bRecover                    // FileSystem.Recover
	bMount                      // FileSystem.Mount
	bClient                     // client ops after the traced body (legal PFS replay)
	bLibReplay                  // Library.Replay
	bLibParse                   // Library.StateFromTree
	bLibRecover                 // Library.RecoverTree (h5clear)
	nBoundaries
)

// layerClock accumulates calls and time per boundary. Parallel exploration
// workers call into their clones concurrently, so the per-boundary sums
// can exceed wall time; covered is the union of the intervals in which at
// least one timed call ran, which is what a job's self time excludes.
type layerClock struct {
	calls [nBoundaries]atomic.Int64
	nanos [nBoundaries]atomic.Int64
	// inBody is set while the workload's preamble and traced body run:
	// the file-system calls they make are part of trace.run_s, not of
	// the pfs boundaries.
	inBody atomic.Bool

	mu         sync.Mutex
	inFlight   int
	coverStart time.Time
	covered    time.Duration
}

// span is one timed call in progress; the zero span charges nothing.
type span struct {
	b     boundary
	start time.Time
}

// begin opens a span at boundary b. Use it as `defer c.end(c.begin(b))`.
func (c *layerClock) begin(b boundary) span {
	now := time.Now()
	c.mu.Lock()
	if c.inFlight++; c.inFlight == 1 {
		c.coverStart = now
	}
	c.mu.Unlock()
	return span{b: b, start: now}
}

// beginPFS is begin for a file-system boundary: calls the workload body
// makes are left to the trace boundary.
func (c *layerClock) beginPFS(b boundary) span {
	if c.inBody.Load() {
		return span{}
	}
	return c.begin(b)
}

// end closes a span opened by begin.
func (c *layerClock) end(s span) {
	if s.start.IsZero() {
		return
	}
	now := time.Now()
	c.calls[s.b].Add(1)
	c.nanos[s.b].Add(int64(now.Sub(s.start)))
	c.mu.Lock()
	if c.inFlight--; c.inFlight == 0 {
		c.covered += now.Sub(c.coverStart)
	}
	c.mu.Unlock()
}

// coveredTime is the wall time covered by timed calls so far.
func (c *layerClock) coveredTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.covered
}

// timedFS is a pass-through pfs.FileSystem that times every call the
// engine makes into the backend. It forwards every optional capability the
// engine probes for; a missing forwarder would silently move the engine
// onto its serial or legacy path, so wrapFS refuses a backend lacking one.
// Clones are wrapped too and share the clock.
type timedFS struct {
	inner pfs.FileSystem
	clone pfs.Cloner
	inc   pfs.IncrementalStater
	oa    pfs.ObsAware
	fa    pfs.FaultAware
	th    pfs.TagHinter
	clk   *layerClock
}

func wrapFS(inner pfs.FileSystem, clk *layerClock) (*timedFS, error) {
	f := &timedFS{inner: inner, clk: clk}
	var ok [5]bool
	f.clone, ok[0] = inner.(pfs.Cloner)
	f.inc, ok[1] = inner.(pfs.IncrementalStater)
	f.oa, ok[2] = inner.(pfs.ObsAware)
	f.fa, ok[3] = inner.(pfs.FaultAware)
	f.th, ok[4] = inner.(pfs.TagHinter)
	for i, name := range []string{"Cloner", "IncrementalStater", "ObsAware", "FaultAware", "TagHinter"} {
		if !ok[i] {
			return nil, fmt.Errorf("backend %s (%T) does not implement pfs.%s", inner.Name(), inner, name)
		}
	}
	return f, nil
}

func (f *timedFS) Name() string                           { return f.inner.Name() }
func (f *timedFS) Config() pfs.Config                     { return f.inner.Config() }
func (f *timedFS) Recorder() *trace.Recorder              { return f.inner.Recorder() }
func (f *timedFS) PersistConfig() causality.PersistConfig { return f.inner.PersistConfig() }
func (f *timedFS) Procs() []string                        { return f.inner.Procs() }
func (f *timedFS) SetObs(r *obs.Run)                      { f.oa.SetObs(r) }
func (f *timedFS) SetFaults(p *faultinject.Plan)          { f.fa.SetFaults(p) }
func (f *timedFS) SetTagHint(tag string)                  { f.th.SetTagHint(tag) }

func (f *timedFS) Client(id int) pfs.Client {
	return &timedClient{inner: f.inner.Client(id), clk: f.clk}
}

func (f *timedFS) CloneDetached() pfs.FileSystem {
	c, err := wrapFS(f.clone.CloneDetached(), f.clk)
	if err != nil {
		panic(err) // a clone has its origin's type, so this is a bug
	}
	return c
}

func (f *timedFS) Snapshot() *pfs.State {
	defer f.clk.end(f.clk.beginPFS(bRestore))
	return f.inner.Snapshot()
}

func (f *timedFS) Restore(st *pfs.State) {
	defer f.clk.end(f.clk.beginPFS(bRestore))
	f.inner.Restore(st)
}

func (f *timedFS) RestoreServer(st *pfs.State, proc string) {
	defer f.clk.end(f.clk.beginPFS(bRestore))
	f.inner.RestoreServer(st, proc)
}

func (f *timedFS) CaptureServer(proc string) (pfs.ServerSnap, bool) {
	defer f.clk.end(f.clk.beginPFS(bRestore))
	return f.inc.CaptureServer(proc)
}

func (f *timedFS) RestoreServerSnap(proc string, snap pfs.ServerSnap) bool {
	defer f.clk.end(f.clk.beginPFS(bRestore))
	return f.inc.RestoreServerSnap(proc, snap)
}

func (f *timedFS) ApplyLowermost(op *trace.Op) error {
	defer f.clk.end(f.clk.beginPFS(bApply))
	return f.inner.ApplyLowermost(op)
}

func (f *timedFS) Recover() error {
	defer f.clk.end(f.clk.beginPFS(bRecover))
	return f.inner.Recover()
}

func (f *timedFS) Mount() (*pfs.Tree, error) {
	defer f.clk.end(f.clk.beginPFS(bMount))
	return f.inner.Mount()
}

// timedClient times client operations; after the traced body they are the
// engine's legal-state replay.
type timedClient struct {
	inner pfs.Client
	clk   *layerClock
}

func (c *timedClient) Proc() string { return c.inner.Proc() }

func (c *timedClient) Create(path string) error {
	defer c.clk.end(c.clk.beginPFS(bClient))
	return c.inner.Create(path)
}

func (c *timedClient) Mkdir(path string) error {
	defer c.clk.end(c.clk.beginPFS(bClient))
	return c.inner.Mkdir(path)
}

func (c *timedClient) WriteAt(path string, off int64, data []byte) error {
	defer c.clk.end(c.clk.beginPFS(bClient))
	return c.inner.WriteAt(path, off, data)
}

func (c *timedClient) Append(path string, data []byte) error {
	defer c.clk.end(c.clk.beginPFS(bClient))
	return c.inner.Append(path, data)
}

func (c *timedClient) Read(path string) ([]byte, error) {
	defer c.clk.end(c.clk.beginPFS(bClient))
	return c.inner.Read(path)
}

func (c *timedClient) Rename(from, to string) error {
	defer c.clk.end(c.clk.beginPFS(bClient))
	return c.inner.Rename(from, to)
}

func (c *timedClient) Unlink(path string) error {
	defer c.clk.end(c.clk.beginPFS(bClient))
	return c.inner.Unlink(path)
}

func (c *timedClient) Fsync(path string) error {
	defer c.clk.end(c.clk.beginPFS(bClient))
	return c.inner.Fsync(path)
}

func (c *timedClient) Close(path string) error {
	defer c.clk.end(c.clk.beginPFS(bClient))
	return c.inner.Close(path)
}

// timedLibrary times the library layer's legal-state replay, state parse
// and recovery.
type timedLibrary struct {
	inner paracrash.Library
	clk   *layerClock
}

func (l *timedLibrary) Name() string             { return l.inner.Name() }
func (l *timedLibrary) IsLibOp(o *trace.Op) bool { return l.inner.IsLibOp(o) }
func (l *timedLibrary) Seed(t *pfs.Tree) error   { return l.inner.Seed(t) }

func (l *timedLibrary) StateFromTree(t *pfs.Tree) (string, error) {
	defer l.clk.end(l.clk.begin(bLibParse))
	return l.inner.StateFromTree(t)
}

func (l *timedLibrary) RecoverTree(t *pfs.Tree) (*pfs.Tree, bool) {
	defer l.clk.end(l.clk.begin(bLibRecover))
	return l.inner.RecoverTree(t)
}

func (l *timedLibrary) Replay(ops []*trace.Op) (string, error) {
	defer l.clk.end(l.clk.begin(bLibReplay))
	return l.inner.Replay(ops)
}

// timedWorkload times the preamble and the traced body, and keeps the
// ops the body recorded so the traced run can rebuild the causality graph
// and the crash states outside the engine.
type timedWorkload struct {
	inner paracrash.Workload
	clk   *layerClock
	ops   []*trace.Op
}

func (w *timedWorkload) Name() string { return w.inner.Name() }

func (w *timedWorkload) Preamble(fs pfs.FileSystem) error {
	w.clk.inBody.Store(true)
	defer w.clk.inBody.Store(false)
	defer w.clk.end(w.clk.begin(bTrace))
	return w.inner.Preamble(fs)
}

func (w *timedWorkload) Run(fs pfs.FileSystem) error {
	w.clk.inBody.Store(true)
	defer w.clk.inBody.Store(false)
	sp := w.clk.begin(bTrace)
	err := w.inner.Run(fs)
	w.clk.end(sp)
	w.ops = fs.Recorder().Ops()
	return err
}
