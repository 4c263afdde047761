package paracrash

import (
	"context"

	"paracrash/internal/pfs"
)

// ReferenceVerdicts is the test-only reference oracle of the O(delta)
// reconstruction engine (incremental_test.go drives it): it prepares a run
// like RunContext, then judges every generated crash state from scratch —
// restore every server from the initial snapshot, replay the kept
// lowermost ops in recording order, recover, mount — and returns one
// verdict per state in generation order, keyed like ShardReport.Verdicts.
// Genuine apply errors lose the op's effect (the crash semantics being
// emulated), exactly as in the engine.
func ReferenceVerdicts(fs pfs.FileSystem, lib Library, w Workload, opts Options) ([]Verdict, error) {
	s, err := prepare(context.Background(), fs, lib, w, opts)
	if err != nil {
		return nil, err
	}
	defer fs.Restore(s.initial)
	var out []Verdict
	for _, cs := range s.generate() {
		r := checkResult{consistent: true}
		if s.emu.PO.SyncFeasible(cs.Front, cs.Keep) {
			if r, err = s.judge(cs, s.referenceOutcome(cs)); err != nil {
				return nil, err
			}
		}
		out = append(out, newVerdict(stateKey(cs), r))
	}
	return out, nil
}

// referenceOutcome reconstructs cs from scratch on the live cluster and
// runs recovery and mount on it, bypassing the reconstructor's prefix
// roots and outcome cache.
func (s *session) referenceOutcome(cs CrashState) *recoveredOutcome {
	s.fs.Restore(s.initial)
	s.recon.markAllDirty()
	for _, i := range s.emu.Universe {
		if cs.Keep.Get(i) {
			_ = s.fs.ApplyLowermost(s.g.Ops[i])
		}
	}
	o := &recoveredOutcome{}
	if err := s.fs.Recover(); err != nil {
		o.recoverErr = err.Error()
	} else if tree, err := s.fs.Mount(); err != nil {
		o.mountErr = err.Error()
	} else {
		o.tree, o.treeStr = tree, tree.Serialize()
	}
	return o
}
