package paracrash_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"paracrash/internal/causality"
	"paracrash/internal/exps"
	"paracrash/internal/faultinject"
	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// incrementalPrograms is the differential suite's workload matrix: one
// program per family (CrashMonkey-style random generation, B3-style bounded
// enumeration), both small enough that every backend explores them in
// milliseconds yet with enough renames/unlinks to exercise delta replay.
func incrementalPrograms(t *testing.T) []*workloads.Program {
	t.Helper()
	progs := []*workloads.Program{
		workloads.Generate(workloads.GenConfig{Seed: 11, Ops: 5, Files: 2, Dirs: 1, WithFsync: true}),
	}
	n := 0
	workloads.Enumerate(workloads.EnumConfig{MaxOps: 2, Files: 2, WithFsync: true}, func(p *workloads.Program) bool {
		// Take a spread of enumerated bodies rather than the first few
		// (early programs are single-op and reconstruct trivially).
		if n%7 == 3 {
			progs = append(progs, p)
		}
		n++
		return len(progs) < 4
	})
	if len(progs) < 2 {
		t.Fatal("workload matrix is degenerate")
	}
	return progs
}

// runEngine runs one (backend, program) cell standalone and returns the
// report.
func runEngine(t *testing.T, backend string, prog *workloads.Program, mode paracrash.Mode) *paracrash.Report {
	t.Helper()
	return runEngineShards(t, backend, prog, mode, 1)
}

// runEngineShards runs the cell standalone when workers is 1, otherwise as
// a workers-way shard partition judged on cluster clones and merged
// (exps.RunSharded) — a fleet of that many workers in one process.
func runEngineShards(t *testing.T, backend string, prog *workloads.Program, mode paracrash.Mode, workers int) *paracrash.Report {
	t.Helper()
	opts := paracrash.DefaultOptions()
	opts.Mode = mode
	rep, err := runProgram(context.Background(), backend, prog, opts, workers)
	if err != nil {
		t.Fatalf("%s/%s workers=%d: %v", backend, prog.Name(), workers, err)
	}
	return rep
}

// runProgram runs a generated or enumerated program on a fresh cluster:
// standalone when workers is 1, otherwise as a workers-way shard partition.
func runProgram(ctx context.Context, backend string, prog *workloads.Program, opts paracrash.Options, workers int) (*paracrash.Report, error) {
	fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
	if err != nil {
		return nil, err
	}
	if workers == 1 {
		return paracrash.RunContext(ctx, fs, nil, prog, opts)
	}
	return exps.RunSharded(ctx, fs, nil, prog, opts, workers)
}

// TestIncrementalEngineEquivalence is the engine-differential oracle: on
// every backend and both workload families, the O(delta) engine must reach,
// for every generated crash state, exactly the verdict of the from-scratch
// reference (paracrash.ReferenceVerdicts: restore every server, replay the
// full kept sequence, recover, mount) — same consistency, layer,
// consequence, recovered state and legal-state counts. The engine's
// verdicts come from a single-shard RunShard, which judges every state
// unpruned along the mode's visiting order (the TSP tour in optimized
// mode), so the prefix-root transitions between states are what is under
// test. The engine must also be schedule-independent: a standalone run and
// a 4-shard partition merge byte-identical, effort stats included.
func TestIncrementalEngineEquivalence(t *testing.T) {
	progs := incrementalPrograms(t)
	for _, backend := range exps.FSNames() {
		for _, prog := range progs {
			for _, mode := range []paracrash.Mode{paracrash.ModeBrute, paracrash.ModeOptimized} {
				t.Run(backend+"/"+prog.Name()+"/"+mode.String(), func(t *testing.T) {
					opts := paracrash.DefaultOptions()
					opts.Mode = mode
					newFS := func() pfs.FileSystem {
						fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
						if err != nil {
							t.Fatal(err)
						}
						return fs
					}
					ref, err := paracrash.ReferenceVerdicts(newFS(), nil, prog, opts)
					if err != nil {
						t.Fatal(err)
					}
					sr, err := paracrash.RunShard(context.Background(), newFS(), nil, prog, opts, paracrash.ShardSpec{Index: 0, Count: 1})
					if err != nil {
						t.Fatal(err)
					}
					if len(sr.Verdicts) != len(ref) || len(ref) == 0 {
						t.Fatalf("engine judged %d states, reference %d", len(sr.Verdicts), len(ref))
					}
					for i, v := range sr.Verdicts {
						if v != ref[i] {
							t.Errorf("state %d: verdicts diverge:\n reference: %+v\n engine:    %+v", i, ref[i], v)
						}
					}

					standalone := runEngine(t, backend, prog, mode)
					sharded := runEngineShards(t, backend, prog, mode, 4)
					if sf, pf := exps.ReportFingerprint(standalone), exps.ReportFingerprint(sharded); sf != pf {
						t.Errorf("standalone and 4-shard runs diverge:\n--- standalone ---\n%s--- 4 shards ---\n%s", sf, pf)
					}
				})
			}
		}
	}
}

// hiddenCapFS exposes only the pfs.FileSystem method set of a backend,
// hiding its pfs.IncrementalStater capability.
type hiddenCapFS struct{ pfs.FileSystem }

// partialSnapFS keeps the capability, but its snapshots hold no store for
// one server.
type partialSnapFS struct {
	pfs.FileSystem
	pfs.IncrementalStater
	drop string
}

func (f partialSnapFS) Snapshot() *pfs.State {
	st := f.FileSystem.Snapshot()
	delete(st.FS, f.drop)
	delete(st.Dev, f.drop)
	return st
}

// TestIncrementalCapabilityRequired: a file system the O(delta) engine
// cannot drive is an error naming the missing capability, never a silent
// fallback — both when pfs.IncrementalStater is missing and when the
// initial snapshot lacks some server's store.
func TestIncrementalCapabilityRequired(t *testing.T) {
	prog := workloads.Generate(workloads.GenConfig{Seed: 11, Ops: 5, Files: 2, Dirs: 1, WithFsync: true})
	for _, backend := range []string{"beegfs", "lustre"} {
		newFS := func() pfs.FileSystem {
			fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}
		wrappers := map[string]func() pfs.FileSystem{
			"no IncrementalStater": func() pfs.FileSystem { return hiddenCapFS{newFS()} },
			"partial snapshot": func() pfs.FileSystem {
				fs := newFS()
				return partialSnapFS{FileSystem: fs, IncrementalStater: fs.(pfs.IncrementalStater), drop: fs.Procs()[0]}
			},
		}
		for name, wrap := range wrappers {
			if _, ok := wrap().(pfs.IncrementalStater); ok == (name == "no IncrementalStater") {
				t.Fatalf("%s/%s: wrapper does not shape the capability as intended", backend, name)
			}
			_, err := paracrash.Run(wrap(), nil, prog, paracrash.DefaultOptions())
			if !errors.Is(err, paracrash.ErrIncrementalUnsupported) {
				t.Errorf("%s/%s: err = %v, want ErrIncrementalUnsupported", backend, name, err)
			}
			_, err = paracrash.RunShard(context.Background(), wrap(), nil, prog, paracrash.DefaultOptions(), paracrash.ShardSpec{Index: 0, Count: 2})
			if !errors.Is(err, paracrash.ErrIncrementalUnsupported) {
				t.Errorf("%s/%s: RunShard err = %v, want ErrIncrementalUnsupported", backend, name, err)
			}
		}
	}
}

// TestIncrementalReconstructionContent is the state-level differential: on
// every backend, reconstructing each crash state the incremental way (only
// the crashed servers restored, each replaying only its own kept ops, in
// per-server order) must leave the cluster byte-identical — Serialize of
// every store — to the from-scratch way (every server restored, kept ops
// replayed in universe order). This is the physical-commutativity invariant the
// O(delta) engine rests on, checked directly against the stores rather than
// through verdicts.
func TestIncrementalReconstructionContent(t *testing.T) {
	prog := workloads.Generate(workloads.GenConfig{Seed: 23, Ops: 5, Files: 2, Dirs: 1, WithFsync: true})
	for _, backend := range exps.FSNames() {
		t.Run(backend, func(t *testing.T) {
			fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			rec := fs.Recorder()
			rec.SetEnabled(false)
			if err := prog.Preamble(fs); err != nil {
				t.Fatal(err)
			}
			initial := fs.Snapshot()
			rec.Reset()
			rec.SetEnabled(true)
			if err := prog.Run(fs); err != nil {
				t.Fatal(err)
			}
			rec.SetEnabled(false)

			g := causality.Build(rec.Ops())
			emu := paracrash.NewEmulator(g, fs.PersistConfig())
			serverOps := emu.ServerOps()

			serialize := func() (content, hash string) {
				st := fs.Snapshot()
				for _, p := range fs.Procs() {
					content += "== " + p + " ==\n"
					if f, ok := st.FS[p]; ok {
						content += f.Serialize()
						hash += f.Hash() + "|"
					}
					if d, ok := st.Dev[p]; ok {
						content += d.Serialize()
						hash += d.Hash() + "|"
					}
				}
				return content, hash
			}

			checked := 0
			emu.Generate(paracrash.DefaultOptions().Emulator, func(cs paracrash.CrashState) bool {
				fs.Restore(initial)
				for _, i := range emu.Universe {
					if cs.Keep.Get(i) {
						_ = fs.ApplyLowermost(g.Ops[i])
					}
				}
				wantContent, wantHash := serialize()

				fs.Restore(initial)
				for p, ops := range serverOps {
					fs.RestoreServer(initial, p)
					for _, i := range ops {
						if cs.Keep.Get(i) {
							_ = fs.ApplyLowermost(g.Ops[i])
						}
					}
				}
				gotContent, gotHash := serialize()
				if gotContent != wantContent {
					t.Errorf("state %d: per-server reconstruction diverges\n--- universe order ---\n%s--- per-server ---\n%s",
						checked, wantContent, gotContent)
					return false
				}
				if gotHash != wantHash {
					t.Errorf("state %d: content identical but Hash diverges: %q vs %q", checked, wantHash, gotHash)
					return false
				}
				checked++
				return true
			})
			if checked == 0 {
				t.Fatal("no crash states generated; the differential is vacuous")
			}
			t.Logf("%d crash states byte-identical under both reconstructions", checked)
		})
	}
}

// TestIncrementalFaultTransparency: injected faults during incremental
// reconstruction must stay invisible — the faulted run heals through retries
// (a fault mid-delta marks the server dirty, so the retry re-restores from a
// cached prefix) and reproduces the unfaulted report byte-for-byte,
// including the arithmetic effort charges. lustre exercises the kernel-level
// shared-disk path whose cross-server WAL recovery is the hardest case.
func TestIncrementalFaultTransparency(t *testing.T) {
	prog := workloads.Generate(workloads.GenConfig{Seed: 11, Ops: 5, Files: 2, Dirs: 1, WithFsync: true})
	for _, backend := range []string{"beegfs", "lustre"} {
		for _, workers := range []int{1, 4} {
			t.Run(backend+"/workers="+itoa(workers), func(t *testing.T) {
				base := runEngineShards(t, backend, prog, paracrash.ModeOptimized, workers)

				opts := paracrash.DefaultOptions()
				opts.Mode = paracrash.ModeOptimized
				plan := faultinject.New(faultinject.Config{Seed: 42, Rate: 0.3})
				opts.Faults = plan
				faulted, err := runProgram(context.Background(), backend, prog, opts, workers)
				if err != nil {
					t.Fatalf("faulted incremental run errored instead of healing: %v", err)
				}
				if plan.Injected() == 0 {
					t.Skip("no faults hit this cell; transparency is vacuous here")
				}
				if bf, ff := exps.ReportFingerprint(base), exps.ReportFingerprint(faulted); bf != ff {
					t.Errorf("faulted incremental report differs from clean baseline:\n--- clean ---\n%s--- faulted ---\n%s", bf, ff)
				}
			})
		}
	}
}

// TestIncrementalChaosResume: the incremental engine under kill/resume chaos
// — random injected faults plus repeated mid-run deadline kills, resuming
// from the checkpoint journal each round — must converge to the byte-exact
// report of a clean uninterrupted incremental run. The arithmetic charge
// simulation makes resumed verdicts charge what a fresh serial walk would,
// so even ServerRestores/OpsReplayed survive the chaos unchanged.
func TestIncrementalChaosResume(t *testing.T) {
	prog := workloads.Generate(workloads.GenConfig{Seed: 11, Ops: 5, Files: 2, Dirs: 1, WithFsync: true})
	backend := "lustre"
	base := runEngine(t, backend, prog, paracrash.ModeOptimized)
	baseFP := exps.ReportFingerprint(base)

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	deadline := 2 * time.Millisecond
	kills := 0
	for attempt := 0; ; attempt++ {
		if attempt > 60 {
			t.Fatal("chaos run did not converge in 60 kill/resume rounds")
		}
		fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		opts := paracrash.DefaultOptions()
		opts.Mode = paracrash.ModeOptimized
		opts.Checkpoint = paracrash.OpenCheckpoint(path)
		opts.Checkpoint.Every = 1
		opts.Faults = faultinject.New(faultinject.Config{Seed: 7, Rate: 0.25})

		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		rep, err := paracrash.RunContext(ctx, fs, nil, prog, opts)
		cancel()
		if err == nil {
			if fp := exps.ReportFingerprint(rep); fp != baseFP {
				t.Errorf("chaos-resumed incremental report differs after %d kills:\n--- clean ---\n%s--- chaos ---\n%s",
					kills, baseFP, fp)
			}
			t.Logf("survived %d mid-run kills; final round resumed %d verdicts", kills, opts.Checkpoint.Resumed())
			return
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("chaos round %d died with a non-deadline error: %v", attempt, err)
		}
		kills++
		deadline += deadline / 2
	}
}
