package paracrash_test

import (
	"context"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
)

// runWithObs runs ARVR on BeeGFS (see runCell) with an attached
// observability run.
func runWithObs(t *testing.T, mode paracrash.Mode, workers int) (*paracrash.Report, *obs.Run) {
	t.Helper()
	opts := paracrash.DefaultOptions()
	opts.Mode = mode
	r := obs.NewRun()
	opts.Obs = r
	rep, err := runCell(context.Background(), "beegfs", "ARVR", opts, workers)
	if err != nil {
		t.Fatalf("mode=%s, workers=%d: %v", mode, workers, err)
	}
	return rep, r
}

// TestObsCountersReconcileWithStats is the accounting contract: the
// counters must equal the report's Stats exactly — for every strategy,
// standalone and merged from an 8-shard partition.
func TestObsCountersReconcileWithStats(t *testing.T) {
	for _, mode := range []paracrash.Mode{paracrash.ModeBrute, paracrash.ModePruning, paracrash.ModeOptimized} {
		for _, workers := range []int{1, 8} {
			t.Run(mode.String()+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				rep, r := runWithObs(t, mode, workers)
				s := r.Summary()
				wantCounters := map[string]int64{
					"states/generated":    int64(rep.Stats.StatesGenerated),
					"states/checked":      int64(rep.Stats.StatesChecked),
					"states/deduped":      int64(rep.Stats.StatesDeduped),
					"states/pruned":       int64(rep.Stats.StatesPruned),
					"restores/servers":    int64(rep.Stats.ServerRestores),
					"ops/replayed":        int64(rep.Stats.OpsReplayed),
					"states/inconsistent": int64(rep.Inconsistent),
					"trace/ops":           int64(rep.Stats.TraceOps),
					"trace/lowermost":     int64(rep.Stats.LowermostOps),
				}
				for name, want := range wantCounters {
					if got := s.Counters[name]; got != want {
						t.Errorf("counter %s = %d, Stats say %d", name, got, want)
					}
				}
				wantGauges := map[string]int64{
					"legal/pfs":      int64(rep.Stats.LegalPFSStates),
					"legal/lib":      int64(rep.Stats.LegalLibStates),
					"states/classes": int64(rep.Stats.StateClasses),
				}
				for name, want := range wantGauges {
					if got := s.Gauges[name]; got != want {
						t.Errorf("gauge %s = %d, Stats say %d", name, got, want)
					}
				}
				// Every pipeline phase must have timed exactly one span; a
				// merge walks the states in the merge phase instead of the
				// explore phase.
				phases := []string{obs.PhaseTrace, obs.PhaseGraph, obs.PhaseGenerate, obs.PhaseExplore}
				if workers != 1 {
					phases[3] = obs.PhaseMerge
				}
				byName := map[string]obs.TimerStat{}
				for _, ts := range s.Timers {
					byName[ts.Name] = ts
				}
				for _, ph := range phases {
					if ts, ok := byName["phase/"+ph]; !ok || ts.Count != 1 {
						t.Errorf("phase %s: timer = %+v, want one span", ph, ts)
					}
				}
			})
		}
	}
}

// TestObsPreservesDeterminism pins the acceptance criterion: with metrics
// attached, an 8-shard merged run must still produce a report
// byte-identical to a standalone run — and both identical to a run with
// obs disabled.
func TestObsPreservesDeterminism(t *testing.T) {
	baseFP, _ := runFingerprinted(t, "beegfs", "ARVR", paracrash.ModeBrute, 1) // obs off
	for _, workers := range []int{1, 8} {
		rep, _ := runWithObs(t, paracrash.ModeBrute, workers)
		if fp := exps.ReportFingerprint(rep); fp != baseFP {
			t.Errorf("workers=%d with obs: fingerprint differs from obs-off serial run", workers)
		}
	}
}

// TestLegalTruncationCounted pins that the MaxLegalStates cut-off is never
// silent: a cap below the legal-set count bumps legal/truncated, and a run
// under the default cap never registers the counter, so its metrics stay
// as they were. Verdict effects of a cut are out of scope here.
func TestLegalTruncationCounted(t *testing.T) {
	for _, prog := range []string{"ARVR", "H5-create"} {
		for _, limit := range []int{2, 0} {
			opts := paracrash.DefaultOptions()
			opts.Mode = paracrash.ModeBrute
			if limit > 0 {
				opts.MaxLegalStates = limit
			}
			r := obs.NewRun()
			opts.Obs = r
			if _, err := runCell(context.Background(), "beegfs", prog, opts, 1); err != nil {
				t.Fatalf("%s, MaxLegalStates %d: %v", prog, limit, err)
			}
			n, registered := r.Summary().Counters["legal/truncated"]
			switch {
			case limit > 0 && n == 0:
				t.Errorf("%s, MaxLegalStates %d: legal/truncated = %d, want > 0", prog, limit, n)
			case limit == 0 && registered:
				t.Errorf("%s, default MaxLegalStates: legal/truncated registered (%d)", prog, n)
			}
		}
	}
}
