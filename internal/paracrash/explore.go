package paracrash

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"strconv"
	"strings"
	"time"

	"paracrash/internal/causality"
	"paracrash/internal/faultinject"
	"paracrash/internal/obs"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

// Workload is a test program: a preamble that builds the initial storage
// state (untraced) and the traced test body (paper §5: "a preamble program
// that initializes the storage system and a test program that runs next").
type Workload interface {
	Name() string
	// Preamble initialises the storage system; it runs with tracing off.
	Preamble(fs pfs.FileSystem) error
	// Run executes the traced test body.
	Run(fs pfs.FileSystem) error
}

// Library abstracts the parallel I/O library layer (HDF5, NetCDF) for
// cross-layer checking.
type Library interface {
	// Name returns the library name used in attribution ("hdf5", "netcdf").
	Name() string
	// IsLibOp selects this library's operations among LayerIOLib trace ops.
	IsLibOp(o *trace.Op) bool
	// Seed captures the library's initial on-PFS state (after the
	// preamble) so Replay can start from it.
	Seed(t *pfs.Tree) error
	// StateFromTree parses the library's files out of a mounted PFS tree
	// and returns a canonical logical state. An error means the state is
	// unreadable (corrupt).
	StateFromTree(t *pfs.Tree) (string, error)
	// RecoverTree applies the library's recovery tools (e.g. h5clear) to
	// the tree, returning the repaired tree and whether anything changed.
	RecoverTree(t *pfs.Tree) (*pfs.Tree, bool)
	// Replay re-executes the given library ops on a fresh copy of the
	// seeded state and returns the canonical logical state.
	Replay(ops []*trace.Op) (string, error)
}

// Mode selects the crash-state exploration strategy (paper §5 and §6.4).
type Mode int

const (
	// ModeBrute reconstructs and checks every generated crash state.
	ModeBrute Mode = iota
	// ModePruning skips crash states matching already-identified bug
	// scenarios and applies semantic (object-map) victim pruning.
	ModePruning
	// ModeOptimized adds TSP-ordered visiting on top of pruning: crash
	// states are visited along a greedy tour that keeps consecutive states'
	// per-server reconstruction prefixes long (paper §5.4).
	ModeOptimized
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeBrute:
		return "brute-force"
	case ModePruning:
		return "pruning"
	case ModeOptimized:
		return "optimized"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// MarshalJSON renders the mode by name.
func (m Mode) MarshalJSON() ([]byte, error) {
	return []byte(`"` + m.String() + `"`), nil
}

// UnmarshalJSON parses the mode by name, inverting MarshalJSON so
// persisted reports round-trip.
func (m *Mode) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseMode(s)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// ParseMode parses an exploration-strategy name ("brute" and "brute-force"
// are synonyms).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "brute", "brute-force":
		return ModeBrute, nil
	case "pruning":
		return ModePruning, nil
	case "optimized":
		return ModeOptimized, nil
	default:
		return 0, fmt.Errorf("paracrash: unknown exploration mode %q", s)
	}
}

// Options configures a testing run.
type Options struct {
	Mode Mode
	// PFSModel is the consistency model the PFS is tested against (the
	// paper uses causal for every PFS).
	PFSModel Model
	// LibModel is the model the I/O library is tested against (the paper
	// uses baseline and causal).
	LibModel Model
	// Emulator bounds (victims, fronts, caps).
	Emulator EmulatorConfig
	// MaxLayerOps guards the preserved-set enumeration (commit/baseline
	// enumerate subsets of the unconstrained ops).
	MaxLayerOps int
	// MaxLegalStates caps legal-state enumeration per crash front.
	MaxLegalStates int

	// Ablation switches (the design choices measured by the Ablation
	// benchmarks; both default to the paper's behaviour).
	//
	// DisableSemanticPruning turns off the object-map victim filter in the
	// pruning/optimized modes (paper §5.3's "semantic information" rule).
	DisableSemanticPruning bool
	// DisableTSP makes the optimized mode visit crash states in recording
	// order instead of the greedy travelling-salesman tour.
	DisableTSP bool
	// DisableRepresentative turns off representative-state exploration
	// (see representative.go) and falls back to checking every crash state
	// brute-force. The default (off) groups states into equivalence classes
	// by a pre-check digest, checks one representative per class and
	// attributes its verdict to every member, so the report stays
	// byte-identical while Stats.StatesChecked collapses to the class count.
	DisableRepresentative bool

	// LegalMemo, when non-nil, shares legal-state sets across runs of the
	// same workload on the same file system (see LegalMemo); the fuzz
	// campaign threads one memo through every explorer run of a cell.
	LegalMemo *LegalMemo

	// Obs, when non-nil, receives phase timings, counters, gauges and
	// progress events for the run (see internal/obs). Observability is
	// strictly passive: it never alters visiting order, pruning or caching,
	// so the report stays byte-identical with metrics on or off.
	Obs *obs.Run

	// Retry bounds the engine's fault recovery: how often a crash state
	// whose reconstruction or verdict failed (injected fault, backend
	// panic) is re-attempted before it is quarantined as a Skipped report
	// entry. The zero value means 3 attempts with a 2ms initial backoff.
	Retry RetryPolicy

	// Faults, when non-nil, arms the deterministic fault plane: the plan is
	// installed on the cluster and the emulator once tracing has finished
	// (the traced execution itself never faults — the plane targets the
	// checker's reconstruction machinery). Because
	// injection is schedule-independent and bounded (see internal/
	// faultinject), a run whose faults all heal within Retry.MaxAttempts
	// produces a report byte-identical to an unfaulted run.
	Faults *faultinject.Plan

	// Checkpoint, when non-nil, journals every completed crash-state
	// verdict to a versioned on-disk journal and, when the journal already
	// holds verdicts from an interrupted run with the same configuration,
	// resumes from them: journaled states are charged but not recomputed.
	Checkpoint *Checkpoint
}

// RetryPolicy bounds per-crash-state fault recovery.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per crash state
	// (0 = default 3, i.e. two retries).
	MaxAttempts int
	// Backoff is the sleep before the first retry, doubling per further
	// retry (0 = default 2ms).
	Backoff time.Duration
}

// attempts resolves the attempt budget.
func (r RetryPolicy) attempts() int {
	if r.MaxAttempts <= 0 {
		return 3
	}
	return r.MaxAttempts
}

// backoffAt returns the sleep before attempt a (a >= 1; attempt 0 never
// sleeps): exponential with attempt number.
func (r RetryPolicy) backoffAt(a int) time.Duration {
	d := r.Backoff
	if d <= 0 {
		d = 2 * time.Millisecond
	}
	for ; a > 1; a-- {
		d *= 2
	}
	return d
}

// DefaultOptions mirrors the paper's evaluation settings: k=1 victims, all
// consistent cuts, causal PFS model, baseline library model.
func DefaultOptions() Options {
	return Options{
		Mode:     ModePruning,
		PFSModel: ModelCausal,
		LibModel: ModelBaseline,
		Emulator: EmulatorConfig{
			K:         1,
			FrontMode: FrontAllCuts,
			MaxFronts: 20000,
			MaxStates: 200000,
		},
		MaxLayerOps:    20,
		MaxLegalStates: 50000,
	}
}

// Stats records exploration effort, the quantities behind Figures 10/11.
type Stats struct {
	TraceOps        int
	LowermostOps    int
	StatesGenerated int
	StatesChecked   int
	// StatesDeduped counts crash states whose verdict was attributed from
	// their equivalence-class representative instead of being reconstructed
	// (representative exploration; 0 when DisableRepresentative is set).
	// StatesChecked + StatesDeduped equals the brute-force StatesChecked.
	StatesDeduped int
	// StateClasses is the number of distinct equivalence classes the
	// visited states collapsed into (0 when DisableRepresentative is set).
	StateClasses   int
	StatesPruned   int
	ServerRestores int
	OpsReplayed    int
	LegalPFSStates int
	LegalLibStates int
	Duration       time.Duration
}

// InconsistentState describes one failed crash state, pre-deduplication.
type InconsistentState struct {
	Layer       string // "pfs" or the library name
	Victims     []string
	Consequence string
	// Key is a stable digest of the recovered state's canonical content at
	// the failing layer — the dedup identity of the state. It depends only
	// on reconstruction (trace + persistence subset), never on the
	// consistency model judging it, so reports produced under different
	// models can be compared state-by-state: that is the basis of the fuzz
	// campaign's model-lattice oracle.
	Key string
}

// StateDigest condenses a recovered state's canonical content into the
// short stable identity used by InconsistentState.Key.
func StateDigest(layer, content string) string {
	sum := sha256.Sum256([]byte(content))
	return layer + ":" + hex.EncodeToString(sum[:8])
}

// SkippedState records one crash state the engine quarantined: every
// reconstruction attempt failed (injected fault that never healed, backend
// panic), so the state carries no verdict. Quarantine is the robustness
// contract's last resort — a poisoned state becomes a structured report
// entry instead of aborting the run.
type SkippedState struct {
	Victims []string
	Reason  string
}

// Report is the outcome of testing one workload against one file system.
type Report struct {
	Program string
	FS      string
	Mode    Mode
	Bugs    []*Bug
	// Inconsistent counts distinct inconsistent crash states (Figure 8
	// bars); LibOnly counts those where the PFS state was correct but the
	// library state was not (Figure 8 line plots).
	Inconsistent int
	LibOnly      int
	States       []InconsistentState
	// Skipped lists quarantined crash states (no verdict after every retry
	// attempt); empty on healthy runs.
	Skipped []SkippedState `json:",omitempty"`
	Stats   Stats
}

// Format renders the report as the CLI's crash-consistency report.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== ParaCrash report: %s on %s (%s) ===\n", r.Program, r.FS, r.Mode)
	fmt.Fprintf(&b, "trace: %d ops (%d lowermost) | crash states: %d generated, %d checked, %d pruned\n",
		r.Stats.TraceOps, r.Stats.LowermostOps, r.Stats.StatesGenerated, r.Stats.StatesChecked, r.Stats.StatesPruned)
	if r.Stats.StatesDeduped > 0 || r.Stats.StateClasses > 0 {
		fmt.Fprintf(&b, "representative: %d states attributed from %d equivalence classes\n",
			r.Stats.StatesDeduped, r.Stats.StateClasses)
	}
	fmt.Fprintf(&b, "legal states: %d pfs, %d lib | restores: %d servers, %d ops replayed | %.3fs\n",
		r.Stats.LegalPFSStates, r.Stats.LegalLibStates, r.Stats.ServerRestores, r.Stats.OpsReplayed, r.Stats.Duration.Seconds())
	fmt.Fprintf(&b, "inconsistent crash states: %d (library-only: %d)\n", r.Inconsistent, r.LibOnly)
	if n := len(r.Skipped); n > 0 {
		fmt.Fprintf(&b, "quarantined crash states (skipped after retries): %d\n", n)
	}
	if len(r.Bugs) == 0 {
		b.WriteString("no crash-consistency bugs found\n")
		return b.String()
	}
	fmt.Fprintf(&b, "unique bugs: %d\n", len(r.Bugs))
	for i, bug := range r.Bugs {
		fmt.Fprintf(&b, "  [%d] %s bug in %s layer:\n", i+1, bug.Kind, bug.Layer)
		if bug.Kind == BugReordering {
			fmt.Fprintf(&b, "      %s  ->  %s\n", bug.OpA, bug.OpB)
		} else {
			fmt.Fprintf(&b, "      [%s , %s]\n", bug.OpA, bug.OpB)
		}
		fmt.Fprintf(&b, "      consequence: %s (%d states)\n", bug.Consequence, bug.States)
	}
	return b.String()
}

// checkResult is the verdict for one crash state.
type checkResult struct {
	consistent  bool
	layer       string
	consequence string
	// state is the canonical content of the recovered state at the failing
	// layer (empty when consistent); the bug dedup keys on it.
	state string
	// legalN records, per checked layer (PFS, then library), the size of
	// the legal-state set consulted by the verdict (0 when a set was not
	// needed on the taken branch). It lets a resumed run or a shard merge
	// charge LegalPFSStates / LegalLibStates exactly as a fresh verdict
	// would have, without recomputing the sets.
	legalN [2]int
	// skipped marks a quarantined state: every attempt faulted, so there is
	// no verdict. consequence then holds the quarantine reason. Skipped
	// states charge only the arithmetic reconstruction delta of their visit
	// (no legal-state sizes) and are reported via Report.Skipped, never as
	// inconsistencies.
	skipped bool
}

// layer is one checked layer of the stack: the PFS, or the I/O library on
// top of it. Every layer is checked the same way (paper steps 4–5): its
// recovered state against the states of replaying its preserved sets under
// its own model. A layer carries everything that check needs.
type layer struct {
	// name attributes inconsistencies ("pfs" or the library name) and
	// scopes the layer's sets in the cross-run LegalMemo.
	name  string
	ops   *LayerOps
	model Model
	// replayer re-executes ops from the initial state and returns the
	// canonical state. An error is never cached: an injected fault aborts
	// the enumeration, any other error drops that preserved set.
	replayer func(ops []*trace.Op) (string, error)
	// golden is the strict state (every op replayed), for consequences.
	golden string
	// Caches, deterministic per key: replays per op selection, legal-state
	// sets per front status vector, and status vectors per crash front.
	replays   map[string]string
	legalSets map[string]map[string]bool
	fronts    map[string]string
	// gauge (legal/pfs or legal/lib) and stat (Stats.LegalPFSStates or
	// LegalLibStates) track the largest legal set consulted.
	gauge *obs.Gauge
	stat  *int
}

// newLayer builds a layer with empty caches; stat points into the
// session's Stats.
func newLayer(name string, ops *LayerOps, model Model, replayer func([]*trace.Op) (string, error), stat *int) *layer {
	return &layer{
		name: name, ops: ops, model: model, replayer: replayer, stat: stat,
		replays:   map[string]string{},
		legalSets: map[string]map[string]bool{},
		fronts:    map[string]string{},
	}
}

// charge folds the size of a consulted legal set into the layer's maxima.
func (l *layer) charge(n int) {
	*l.stat = max(*l.stat, n)
	l.gauge.Max(int64(n))
}

// session holds everything needed to reconstruct and check crash states.
type session struct {
	fs   pfs.FileSystem
	lib  Library
	opts Options
	// ctx carries the run's cancellation signal; exploration loops poll it
	// between crash states, never inside a state's reconstruction, so a
	// cancelled run stops at a clean state boundary.
	ctx context.Context

	g       *causality.Graph
	emu     *Emulator
	initial *pfs.State

	// layers are the checked layers, bottom-up: the PFS, then the library
	// when one is tested (checkResult.legalN is indexed the same way).
	layers []*layer

	clients map[string]pfs.Client

	// checkCache holds every verdict of the run per front|keep key.
	checkCache map[string]checkResult

	// known holds verdicts judged elsewhere, keyed like checkCache: the
	// journal of an interrupted run (resume) and the shard reports of a
	// fleet job (MergeShards). check consults it after the class lookup and
	// charges what judging the state here would have charged. Read-only
	// during exploration.
	known map[string]checkResult

	// Representative exploration (representative.go): classes maps a class
	// key to its representative's verdict, dedupKeys marks state keys whose
	// verdict was attributed from a class representative, and imageDigests
	// memoises the shadow-pipeline recovered-content digest per kept set.
	// All are session-private, no locking.
	classes      map[string]checkResult
	dedupKeys    map[string]bool
	imageDigests map[string]string
	// memoScope namespaces this run inside opts.LegalMemo ("" = memo off).
	memoScope string

	// recon is the O(delta) reconstruction engine (see reconstruct.go): it
	// tracks the live cluster's per-server state, caches prefix roots and
	// carries the arithmetic effort accounting.
	recon *reconstructor

	// ckpt receives every freshly computed verdict for journaling (nil when
	// the run has no checkpoint).
	ckpt *Checkpoint

	stats Stats

	// Observability handles, pre-resolved so the per-state hot path pays
	// one atomic add (or nothing at all when obs is off — nil handles are
	// no-ops). The counters mirror the Stats fields exactly.
	obs         *obs.Run
	ctrChecked  *obs.Counter
	ctrDeduped  *obs.Counter
	ctrPruned   *obs.Counter
	ctrBad      *obs.Counter
	ctrRestores *obs.Counter
	ctrReplayed *obs.Counter
	ctrFaults   *obs.Counter
	ctrRetries  *obs.Counter
	ctrSkipped  *obs.Counter
}

// bindObs resolves the session's metric handles against r (nil for a no-op
// collector).
func (s *session) bindObs(r *obs.Run) {
	s.obs = r
	s.ctrChecked = r.Counter("states/checked")
	s.ctrDeduped = r.Counter("states/deduped")
	s.ctrPruned = r.Counter("states/pruned")
	s.ctrBad = r.Counter("states/inconsistent")
	s.ctrRestores = r.Counter("restores/servers")
	s.ctrReplayed = r.Counter("ops/replayed")
	s.ctrFaults = r.Counter("fault/injected")
	s.ctrRetries = r.Counter("fault/retries")
	s.ctrSkipped = r.Counter("states/skipped")
	s.layers[0].gauge = r.Gauge("legal/pfs")
	// legal/lib is registered without a library too, so -metrics keeps
	// one shape across workloads.
	libGauge := r.Gauge("legal/lib")
	if len(s.layers) > 1 {
		s.layers[1].gauge = libGauge
	}
}

// chargeRestores charges n server restores to the stats and the counters.
func (s *session) chargeRestores(n int) {
	s.stats.ServerRestores += n
	s.ctrRestores.Add(int64(n))
}

// chargeReplayed charges n replayed lowermost ops.
func (s *session) chargeReplayed(n int) {
	s.stats.OpsReplayed += n
	s.ctrReplayed.Add(int64(n))
}

// Run executes the full ParaCrash pipeline for a workload against a file
// system (optionally topped by an I/O library) and returns the report.
func Run(fs pfs.FileSystem, lib Library, w Workload, opts Options) (*Report, error) {
	return RunContext(context.Background(), fs, lib, w, opts)
}

// RunContext is Run with cancellation: when ctx is cancelled (deadline,
// timeout, caller shutdown) the exploration stops at the next crash-state
// boundary, the live cluster is restored, and the run returns ctx's error.
// Cancellation is strictly a stop signal — it never changes which states a
// surviving run visits, so an uncancelled RunContext is byte-identical to
// Run.
func RunContext(ctx context.Context, fs pfs.FileSystem, lib Library, w Workload, opts Options) (*Report, error) {
	return runPipeline(ctx, fs, lib, w, opts, nil)
}

// ErrIncrementalUnsupported reports a file system the engine cannot
// explore: crash states are rebuilt in O(delta) from per-server store
// snapshots, so the file system must implement pfs.IncrementalStater and
// its initial snapshot must hold a store for every server. Every
// pfs.Cluster-based backend qualifies.
var ErrIncrementalUnsupported = errors.New("paracrash: file system lacks per-server store snapshots")

// prepare runs phases 0–2 of the pipeline — preamble, traced execution,
// causality analysis, golden replay — and returns the exploration session.
// It is shared by the full pipeline (RunContext/MergeShards) and the
// shard-scoped entry point (RunShard): every caller sees the identical
// trace, graph, emulator universe and golden states, which is what makes
// shard keys derived from the generation order stable across processes.
func prepare(ctx context.Context, fs pfs.FileSystem, lib Library, w Workload, opts Options) (*session, error) {
	rec := fs.Recorder()
	if oa, ok := fs.(pfs.ObsAware); ok {
		// Store-level timings (restore/recover/mount) report to the same
		// run; a nil opts.Obs simply clears them to the no-op collector.
		oa.SetObs(opts.Obs)
	}

	// Phase 0: preamble (untraced) and the initial snapshot.
	stopTrace := opts.Obs.Phase(obs.PhaseTrace)
	rec.SetEnabled(false)
	if err := w.Preamble(fs); err != nil {
		return nil, fmt.Errorf("paracrash: preamble: %w", err)
	}
	initial := fs.Snapshot()

	if lib != nil {
		t, err := fs.Mount()
		if err != nil {
			return nil, fmt.Errorf("paracrash: mounting initial state: %w", err)
		}
		if err := lib.Seed(t); err != nil {
			return nil, fmt.Errorf("paracrash: seeding library: %w", err)
		}
	}

	// Phase 1: traced test execution.
	rec.Reset()
	rec.SetEnabled(true)
	if err := w.Run(fs); err != nil {
		return nil, fmt.Errorf("paracrash: test program: %w", err)
	}
	rec.SetEnabled(false)
	ops := rec.Ops()
	stopTrace()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("paracrash: run cancelled: %w", err)
	}

	// Arm the fault plane only now: the traced execution must stay
	// fault-free (the plane targets the checker's reconstruction machinery,
	// not the workload under test). A nil opts.Faults clears a stale plan.
	if fa, ok := fs.(pfs.FaultAware); ok {
		fa.SetFaults(opts.Faults)
	}

	// Phase 2: causality analysis.
	stopGraph := opts.Obs.Phase(obs.PhaseGraph)
	g := causality.Build(ops)
	emu := NewEmulator(g, fs.PersistConfig())
	emu.Obs = opts.Obs
	emu.Faults = opts.Faults

	s := &session{
		fs: fs, lib: lib, opts: opts, ctx: ctx,
		g: g, emu: emu, initial: initial,
		clients:      map[string]pfs.Client{},
		checkCache:   map[string]checkResult{},
		classes:      map[string]checkResult{},
		dedupKeys:    map[string]bool{},
		imageDigests: map[string]string{},
	}
	s.layers = []*layer{newLayer("pfs", NewLayerOps(g, trace.LayerPFS, nil), opts.PFSModel, s.replayClientOps, &s.stats.LegalPFSStates)}
	if lib != nil {
		s.layers = append(s.layers, newLayer(lib.Name(), NewLayerOps(g, trace.LayerIOLib, lib.IsLibOp), opts.LibModel, lib.Replay, &s.stats.LegalLibStates))
	}
	if opts.LegalMemo != nil {
		s.memoScope = legalMemoScope(fs, w.Name(), ops, opts)
	}
	recon, err := newReconstructor(s)
	if err != nil {
		return nil, err
	}
	s.recon = recon
	s.bindObs(opts.Obs)
	s.stats.TraceOps = len(ops)
	s.stats.LowermostOps = len(emu.Universe)
	opts.Obs.Counter("trace/ops").Add(int64(len(ops)))
	opts.Obs.Counter("trace/lowermost").Add(int64(len(emu.Universe)))

	if n := s.layers[0].ops.Len(); n > opts.MaxLayerOps {
		return nil, fmt.Errorf("paracrash: %d PFS-layer ops exceed MaxLayerOps=%d (preserved-set enumeration is exponential)", n, opts.MaxLayerOps)
	}
	if len(s.layers) > 1 && s.layers[1].ops.Len() > opts.MaxLayerOps {
		return nil, fmt.Errorf("paracrash: %d library-layer ops exceed MaxLayerOps=%d", s.layers[1].ops.Len(), opts.MaxLayerOps)
	}

	// Resolve every PFS-layer client proc up front: a malformed proc name
	// (one that does not parse as "<name>/<rank>") fails the run loudly
	// here instead of silently replaying through client 0 deep inside
	// legal-state enumeration.
	for _, op := range s.layers[0].ops.Ops {
		if _, err := s.client(op.Proc); err != nil {
			return nil, err
		}
	}

	// Golden (strict) states for consequence reporting. A replay may pass
	// through faultable paths, so it gets the same bounded retry as a
	// crash-state check; a fault that never heals fails the run here — the
	// engine cannot judge anything without the golden state. A genuine
	// replay failure leaves the golden state empty.
	for _, l := range s.layers {
		all := make([]int, l.ops.Len())
		for i := range all {
			all[i] = i
		}
		if err := s.withRetry("panic", func() error {
			st, err := l.replay(all)
			if faultinject.Is(err) {
				return err
			}
			l.golden = st
			return nil
		}); err != nil {
			return nil, fmt.Errorf("paracrash: golden replay: %w", err)
		}
	}
	stopGraph()

	// Prime the cluster for exploration: the golden replay left re-executed
	// content on the live stores — including on servers the traced run's
	// lowermost ops never touched (replayed client ops may allocate fresh
	// object IDs and place data differently). The reconstructor only ever
	// touches servers with universe ops, so everything else must start (and
	// then provably stays) at the initial content. One O(1)-per-server
	// adoption, uncharged like the restores inside the golden replay.
	fs.Restore(initial)
	return s, nil
}

// resumeCheckpoint loads previously journaled verdicts (if any) for a run
// whose verdict-relevant configuration fingerprints to config, and arms the
// session to keep journaling. Callers arrange the exit-path Flush.
func (s *session) resumeCheckpoint(config string) error {
	stopResume := s.opts.Obs.Phase(obs.PhaseResume)
	defer stopResume()
	resumed, err := s.opts.Checkpoint.resume(config)
	if err != nil {
		return fmt.Errorf("paracrash: resume: %w", err)
	}
	if s.known == nil {
		s.known = map[string]checkResult{}
	}
	maps.Copy(s.known, resumed)
	s.ckpt = s.opts.Checkpoint
	s.opts.Obs.Counter("resume/verdicts").Add(int64(len(resumed)))
	s.opts.Obs.Counter("resume/warnings").Add(int64(len(s.opts.Checkpoint.Warnings())))
	return nil
}

// emulatorConfig materialises the crash-emulation bounds for phase 3,
// including the semantic-pruning victim filter. Shard workers and the merge
// must build the identical configuration: it decides which crash states are
// generated, and with them the generation order the shard keys index.
func (o Options) emulatorConfig() EmulatorConfig {
	emuCfg := o.Emulator
	if o.Mode != ModeBrute && !o.DisableSemanticPruning {
		emuCfg.VictimFilter = func(op *trace.Op) bool {
			// Semantic pruning: data-chunk updates of library datasets are
			// not reordered (paper §5.3).
			return !strings.HasPrefix(op.Tag, "h5:data")
		}
	}
	return emuCfg
}

// generate enumerates the crash-state space once, in the deterministic
// generation order that shard indices address (the plan step shared by
// RunContext, RunShard and MergeShards). A cancelled context stops the
// enumeration early.
func (s *session) generate() []CrashState {
	stopGen := s.opts.Obs.Phase(obs.PhaseGenerate)
	defer stopGen()
	var states []CrashState
	s.stats.StatesGenerated = s.emu.Generate(s.opts.emulatorConfig(), func(cs CrashState) bool {
		states = append(states, cs)
		return s.ctx.Err() == nil
	})
	s.opts.Obs.Counter("states/generated").Add(int64(s.stats.StatesGenerated))
	return states
}

// visitOrder plans the visiting order over states: the greedy TSP tour
// over servers-changed distance in optimized mode (so consecutive states
// share long per-server prefixes), generation order otherwise or under
// DisableTSP.
func (s *session) visitOrder(states []CrashState) []int {
	if s.opts.Mode == ModeOptimized && !s.opts.DisableTSP {
		procs, serverOps := s.emu.serverProcs()
		return exploreOrder(len(states), len(procs), stateSigs(states, procs, serverOps))
	}
	order := make([]int, len(states))
	for i := range order {
		order[i] = i
	}
	return order
}

// runPipeline is the exploration pipeline behind RunContext and
// MergeShards: plan (generate and order the crash states), then judge them
// in one ordered walk. known, when non-nil, holds verdicts judged elsewhere
// (the shard runs of a fleet job); the walk is then the merge — same
// visiting order, pruning, class attribution and charging — taking checks
// from known and computing only what it misses, so the report stays
// byte-identical to a standalone run.
func runPipeline(ctx context.Context, fs pfs.FileSystem, lib Library, w Workload, opts Options, known map[string]checkResult) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	s, err := prepare(ctx, fs, lib, w, opts)
	if err != nil {
		return nil, err
	}
	g := s.g
	s.known = known

	// Checkpoint/resume: load previously journaled verdicts (if any) and
	// keep journaling from here on. The journal is flushed on every exit
	// path — success, failure and cancellation alike.
	if opts.Checkpoint != nil {
		if err := s.resumeCheckpoint(checkpointConfig(w.Name(), fs.Name(), opts)); err != nil {
			return nil, err
		}
		defer func() {
			if err := opts.Checkpoint.Flush(); err != nil {
				opts.Obs.Counter("checkpoint/flush-errors").Inc()
			}
		}()
	}

	// Phase 3: crash emulation + checking.
	states := s.generate()

	report := &Report{Program: w.Name(), FS: fs.Name(), Mode: opts.Mode}
	bugs := NewBugSet()
	classifier := NewClassifier(s.emu, func(cs CrashState) (bool, string) {
		res := s.check(cs)
		// A quarantined probe state carries no verdict; report it as
		// consistent so classification degrades gracefully instead of
		// inventing causes from a state we could not reconstruct.
		return res.consistent || res.skipped, res.state
	})

	seenStates := map[string]bool{} // dedup inconsistent states by recovered content

	skip := func(cs CrashState) bool {
		if opts.Mode != ModeBrute && bugs.KnownBad(cs) {
			s.stats.StatesPruned++
			s.ctrPruned.Inc()
			return true
		}
		return false
	}

	handle := func(cs CrashState) {
		res := s.check(cs)
		if s.dedupKeys[stateKey(cs)] {
			s.stats.StatesDeduped++
			s.ctrDeduped.Inc()
		} else {
			s.stats.StatesChecked++
			s.ctrChecked.Inc()
		}
		if res.skipped {
			var victims []string
			for _, v := range cs.Victims {
				victims = append(victims, g.Ops[v].Key())
			}
			report.Skipped = append(report.Skipped, SkippedState{Victims: victims, Reason: res.consequence})
			return
		}
		if res.consistent {
			return
		}
		// Distinct persistence subsets recovering to the same content are
		// one inconsistent state (the paper's redundancy removal, §5.2).
		stateKey := res.layer + "|" + res.state
		if !seenStates[stateKey] {
			seenStates[stateKey] = true
			report.Inconsistent++
			s.ctrBad.Inc()
			if res.layer != "pfs" {
				report.LibOnly++
			}
			var victims []string
			for _, v := range cs.Victims {
				victims = append(victims, g.Ops[v].Key())
			}
			report.States = append(report.States, InconsistentState{
				Layer: res.layer, Victims: victims, Consequence: res.consequence,
				Key: StateDigest(res.layer, res.state),
			})
		}
		lo := s.layers[0].ops
		for _, l := range s.layers {
			if l.name == res.layer {
				lo = l.ops
			}
		}
		for _, pr := range classifier.ClassifyState(cs, lo, res.state) {
			bugs.Add(pr, res.layer, fs.Name(), w.Name(), res.consequence)
		}
	}

	phase := obs.PhaseExplore
	if known != nil {
		phase = obs.PhaseMerge
	}
	stopWalk := opts.Obs.Phase(phase)
	s.visitOrdered(states, skip, handle)
	stopWalk()

	// Restore the live cluster to the untouched post-run state (also on
	// cancellation, so a reused file system is never left mid-crash-state).
	fs.Restore(s.initial)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("paracrash: run cancelled: %w", err)
	}

	report.Bugs = bugs.Bugs()
	s.stats.StateClasses = len(s.classes)
	opts.Obs.Gauge("states/classes").Set(int64(s.stats.StateClasses))
	s.stats.Duration = time.Since(start)
	report.Stats = s.stats
	return report, nil
}

// clientID parses the numeric rank out of a client proc name ("client/3").
// Proc names come from the trace recorder; one that does not parse means
// the trace is corrupt, and collapsing it onto rank 0 — as an ignored
// Sscanf error used to — would silently replay another client's state.
func clientID(proc string) (int, error) {
	i := strings.IndexByte(proc, '/')
	if i < 0 {
		return 0, fmt.Errorf("paracrash: client proc %q: missing \"/<rank>\" suffix", proc)
	}
	id, err := strconv.Atoi(proc[i+1:])
	if err != nil {
		return 0, fmt.Errorf("paracrash: client proc %q: unparsable rank: %v", proc, err)
	}
	if id < 0 {
		return 0, fmt.Errorf("paracrash: client proc %q: negative rank", proc)
	}
	return id, nil
}

// client returns (and caches) the client endpoint for a client proc name.
func (s *session) client(proc string) (pfs.Client, error) {
	if c, ok := s.clients[proc]; ok {
		return c, nil
	}
	id, err := clientID(proc)
	if err != nil {
		return nil, err
	}
	c := s.fs.Client(id)
	s.clients[proc] = c
	return c, nil
}

// check reconstructs the crash state, runs recovery and performs the
// top-down layer checks. Results are cached per (front, keep). States that
// violate commit durability cannot occur and count as consistent (the
// classifier probes such combinations). Faulted attempts are retried per
// Options.Retry; an exhausted state comes back skipped.
func (s *session) check(cs CrashState) checkResult {
	if !s.emu.PO.SyncFeasible(cs.Front, cs.Keep) {
		return checkResult{consistent: true}
	}
	key := stateKey(cs)
	if r, ok := s.checkCache[key]; ok {
		return r
	}
	ckey := ""
	if s.representative() {
		ckey = s.classKey(cs)
	}
	if r, ok := s.classes[ckey]; ok {
		// A state of the same equivalence class already carries the
		// verdict: attribute it without reconstructing. Members are not
		// journaled — on resume they re-attribute from the replayed
		// representative, keeping the journal one record per class.
		s.attributeClass(key, r)
		return r
	}
	// Charge the arithmetic O(delta) cost of the visit up front: the charge
	// is a pure function of the visit sequence, so faulted retries, states
	// that end up quarantined and verdicts judged elsewhere all report
	// exactly the effort an unfaulted walk would.
	s.recon.chargeState(cs)
	r, ok := s.known[key]
	switch {
	case !ok:
		r = s.checkWithRetry(cs)
	case r.skipped:
		s.ctrSkipped.Inc()
	default:
		// Judged elsewhere (an interrupted run's journal, a shard worker):
		// charge the legal-set sizes judging it here would have charged.
		// Recording the class below lets members attribute exactly as in a
		// fresh run.
		s.chargeLegal(r)
	}
	s.checkCache[key] = r
	s.recordClass(ckey, r)
	s.journal(key, r)
	return r
}

// journal records a verdict in the checkpoint (no-op without one, or when
// the journal already holds it). Journal write errors are counted, never
// fatal — losing checkpoint durability must not take the run down.
func (s *session) journal(key string, r checkResult) {
	if s.ckpt == nil {
		return
	}
	if err := s.ckpt.record(key, r); err != nil {
		s.obs.Counter("checkpoint/flush-errors").Inc()
	}
}

// checkWithRetry runs reconstruct+verdict attempts under the retry policy.
// Attempts charge nothing (check already paid the arithmetic delta), so a
// state that eventually succeeds charges exactly what an unfaulted run
// would have — the basis of the fault-transparency guarantee. bring leaves
// faulted servers marked dirty for the next attempt to re-restore, and the
// only cluster mutation the verdict makes — recovery — marks the mutated
// servers dirty too, so a failed attempt needs no rollback.
func (s *session) checkWithRetry(cs CrashState) checkResult {
	var r checkResult
	err := s.withRetry("panic during verdict", func() error {
		if err := s.recon.bring(cs); err != nil {
			return err
		}
		var err error
		r, err = s.verdict(cs)
		return err
	})
	if err == nil {
		return r
	}
	s.ctrSkipped.Inc()
	return checkResult{
		skipped:     true,
		consequence: fmt.Sprintf("quarantined after %d attempts: %v", s.opts.Retry.attempts(), err),
	}
}

// withRetry runs fn under the retry policy and returns the last attempt's
// error. Panics anywhere in the backend become errors: an injected one its
// fault, any other one "<panicMsg>: <value>".
func (s *session) withRetry(panicMsg string, fn func() error) error {
	att := s.opts.Retry.attempts()
	var lastErr error
	for a := 0; a < att; a++ {
		if a > 0 {
			s.ctrRetries.Inc()
			time.Sleep(s.opts.Retry.backoffAt(a))
		}
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					if fe, ok := faultinject.FromPanic(p); ok {
						err = fe
					} else {
						err = fmt.Errorf("%s: %v", panicMsg, p)
					}
				}
			}()
			return fn()
		}()
		if err == nil {
			return nil
		}
		if faultinject.Is(err) {
			s.ctrFaults.Inc()
		}
		lastErr = err
	}
	return lastErr
}

// chargeLegal folds a verdict's recorded legal-set sizes into the stats
// (idempotent: the maxima only grow).
func (s *session) chargeLegal(r checkResult) {
	for i, l := range s.layers {
		l.charge(r.legalN[i])
	}
}

// verdict checks the current (already reconstructed) cluster state against
// the legal states for the crash front. It runs recovery first, like the
// real workflow (fsck before the consistency test). Injected faults (which
// say nothing about the state under test) surface as errors for the retry
// loop; genuine recovery/mount failures remain verdicts — they are what the
// checker exists to find.
func (s *session) verdict(cs CrashState) (checkResult, error) {
	// Recovery is a pure function of the kept set, so states sharing a Keep
	// (and the digest shadow pipeline that already classified this one)
	// share one memoised fsck+mount outcome.
	o, err := s.recon.recoveredOutcome(cs)
	if err != nil {
		return checkResult{}, err
	}
	return s.judge(cs, o)
}

// judge checks a recovered outcome against the legal states for the crash
// front: top-down, library first, attributing a library inconsistency to
// the PFS when the PFS state is illegal too.
func (s *session) judge(cs CrashState, o *recoveredOutcome) (checkResult, error) {
	if o.recoverErr != "" {
		return checkResult{layer: "pfs", consequence: "unrecoverable file system: " + o.recoverErr, state: "UNRECOVERABLE"}, nil
	}
	if o.mountErr != "" {
		return checkResult{layer: "pfs", consequence: "mount failed after fsck: " + o.mountErr, state: "UNMOUNTABLE"}, nil
	}
	tree, treeStr := o.tree, o.treeStr
	pfsL := s.layers[0]

	if s.lib == nil {
		legal, err := s.legal(pfsL, cs)
		if err != nil {
			return checkResult{}, err
		}
		n := [2]int{len(legal)}
		if legal[treeStr] {
			return checkResult{consistent: true, legalN: n}, nil
		}
		return checkResult{layer: "pfs", consequence: s.describePFS(treeStr), state: treeStr, legalN: n}, nil
	}

	// Top-down: library first.
	legalLib, err := s.legal(s.layers[1], cs)
	if err != nil {
		return checkResult{}, err
	}
	n := [2]int{1: len(legalLib)}

	libState, lerr := s.lib.StateFromTree(tree)
	if lerr == nil && legalLib[libState] {
		return checkResult{consistent: true, legalN: n}, nil
	}
	// Run the library's recovery tools before declaring inconsistency.
	if fixed, changed := s.lib.RecoverTree(tree); changed {
		if st, err2 := s.lib.StateFromTree(fixed); err2 == nil && legalLib[st] {
			return checkResult{consistent: true, legalN: n}, nil
		}
	}

	// The library state is inconsistent: attribute by checking the PFS.
	consequence := ""
	libKey := libState
	if lerr != nil {
		consequence = fmt.Sprintf("library state unreadable: %v", lerr)
		libKey = "CORRUPT: " + lerr.Error()
	} else {
		consequence = "library state matches no legal state (" + firstLineDiff(libState, s.layers[1].golden) + ")"
	}
	legalPFS, err := s.legal(pfsL, cs)
	if err != nil {
		return checkResult{}, err
	}
	n[0] = len(legalPFS)
	if legalPFS[treeStr] {
		return checkResult{layer: s.lib.Name(), consequence: consequence, state: libKey, legalN: n}, nil
	}
	return checkResult{layer: "pfs", consequence: consequence + " (PFS state also illegal)", state: treeStr, legalN: n}, nil
}

// describePFS summarises how the recovered tree differs from the golden
// (full-execution) tree.
func (s *session) describePFS(treeStr string) string {
	golden := s.layers[0].golden
	if treeStr == golden {
		return "state equals the no-crash state but violates the model"
	}
	return "recovered PFS state matches no legal state (" + firstLineDiff(treeStr, golden) + ")"
}

// firstLineDiff reports the first differing line between two canonical
// serialisations, a compact consequence hint.
func firstLineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return fmt.Sprintf("got %q want %q", x, y)
		}
	}
	return "no textual diff"
}

// legal returns the layer's legal states for the crash front: the states
// of replaying each of its preserved sets under the layer's model. An
// injected fault aborts the enumeration uncached — a partial set would make
// a healed retry judge against too few states — while a genuine replay
// failure only drops that preserved set (under weak models a set may lack
// an op's prerequisites).
func (s *session) legal(l *layer, cs CrashState) (map[string]bool, error) {
	key := l.frontStatus(cs.Front)
	set, ok := l.legalSets[key]
	if ok {
		return set, nil
	}
	if set, ok = s.memoLookup(l.name, l.model, key); !ok {
		set = map[string]bool{}
		var ferr error
		truncated := l.ops.PreservedSets(l.model, l.ops.StatusAgainst(cs.Front), s.opts.MaxLegalStates, func(sel []int) bool {
			st, err := l.replay(sel)
			if faultinject.Is(err) {
				ferr = err
				return false
			}
			if err == nil {
				set[st] = true
			}
			return true
		})
		if ferr != nil {
			return nil, ferr
		}
		s.countTruncated(truncated)
		s.memoStore(l.name, l.model, key, set)
	}
	l.legalSets[key] = set
	l.charge(len(set))
	return set, nil
}

// countTruncated records a legal-state enumeration that MaxLegalStates cut
// short. The legal/truncated counter registers on first use, so runs that
// never hit the cap keep their metrics unchanged.
func (s *session) countTruncated(truncated bool) {
	if truncated {
		s.obs.Counter("legal/truncated").Inc()
	}
}

func statusKey(status []Status) string {
	b := make([]byte, len(status))
	for i, st := range status {
		b[i] = byte('0' + int(st))
	}
	return string(b)
}

// replay re-executes a selection of the layer's ops (positions in
// l.ops.Ops) through its replayer, caching the state per selection.
func (l *layer) replay(sel []int) (string, error) {
	key := intsKey(sel)
	if st, ok := l.replays[key]; ok {
		return st, nil
	}
	ops := make([]*trace.Op, len(sel))
	for i, pos := range sel {
		ops[i] = l.ops.Ops[pos]
	}
	st, err := l.replayer(ops)
	if err != nil {
		return "", err
	}
	l.replays[key] = st
	return st, nil
}

// replayClientOps is the PFS layer's replayer: it re-executes client ops
// on the initial snapshot and returns the resulting tree serialisation.
// Only injected mount faults surface as errors; a genuinely unmountable
// replay is a legitimate legal state.
func (s *session) replayClientOps(ops []*trace.Op) (string, error) {
	rec := s.fs.Recorder()
	rec.SetEnabled(false)
	s.fs.Restore(s.initial)
	// The replay mutates the whole cluster; the walk's physical tracking
	// must not trust any server afterwards.
	s.recon.markAllDirty()
	for _, op := range ops {
		c, err := s.client(op.Proc)
		if err != nil {
			// Every PFS-layer proc was validated when the session was
			// built; reaching this means the trace mutated mid-run.
			panic(err)
		}
		// Failed replays (missing prerequisites under weak models) lose
		// the op, matching crash semantics.
		_ = pfs.ReplayClientOp(c, op)
	}
	tree, err := s.fs.Mount()
	if faultinject.Is(err) {
		return "", err
	}
	if err != nil {
		return "UNMOUNTABLE", nil
	}
	return tree.Serialize(), nil
}

func intsKey(sel []int) string {
	var b strings.Builder
	for _, v := range sel {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// visitOrdered is the judge step: states are visited in the planned order
// (visitOrder) and every one goes through the uniform check path. The
// reconstructor carries both the physical delta reconstruction and the
// arithmetic charging, and classifier probes inside handle reconstruct
// through the same path, keeping the physical tracking truthful without
// save/restore wrappers.
func (s *session) visitOrdered(states []CrashState, skip func(CrashState) bool, handle func(CrashState)) {
	for _, idx := range s.visitOrder(states) {
		if s.ctx.Err() != nil {
			return
		}
		if cs := states[idx]; !skip(cs) {
			handle(cs)
		}
	}
}
