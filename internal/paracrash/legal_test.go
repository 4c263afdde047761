package paracrash

import (
	"errors"
	"maps"
	"testing"

	"paracrash/internal/faultinject"
	"paracrash/internal/trace"
)

// TestLegalFaultAbortsUncached pins legal's two failure rules on a layer
// whose replayer misbehaves once: an injected fault aborts the enumeration
// and caches nothing, so the retry sees the full set, while a genuine
// replay failure only drops that preserved set. The rules hold for every
// layer alike, since the PFS and the library share legal.
func TestLegalFaultAbortsUncached(t *testing.T) {
	s, states := digestSession(t)
	pfsL := s.layers[0]
	// The crash state with the largest legal set, so a dropped set shows.
	var cs CrashState
	var want map[string]bool
	for _, st := range states {
		set, err := s.legal(pfsL, st)
		if err != nil {
			t.Fatal(err)
		}
		if len(set) > len(want) {
			cs, want = st, set
		}
	}
	if len(want) < 2 {
		t.Fatalf("largest legal set has %d states, need at least 2", len(want))
	}
	replays := func(fail func(call int) error) *layer {
		call := 0
		return newLayer("pfs", pfsL.ops, pfsL.model, func(ops []*trace.Op) (string, error) {
			call++
			if err := fail(call); err != nil {
				return "", err
			}
			return s.replayClientOps(ops)
		}, new(int))
	}

	injected := replays(func(call int) error {
		if call == 2 {
			return &faultinject.Error{Kind: faultinject.KindErr, Site: "test/replay", Key: "2"}
		}
		return nil
	})
	if _, err := s.legal(injected, cs); !faultinject.Is(err) {
		t.Fatalf("legal with an injected replay fault returned %v, want the fault", err)
	}
	if len(injected.legalSets) != 0 {
		t.Fatal("an aborted enumeration was cached")
	}
	if got, err := s.legal(injected, cs); err != nil || !maps.Equal(got, want) {
		t.Fatalf("retried legal set = %d states (err %v), want %d", len(got), err, len(want))
	}

	// Fail each selection for real in turn: every enumeration completes and
	// is cached, and each drop loses at most the failing set's state.
	for fail := 1; ; fail++ {
		genuine := replays(func(call int) error {
			if call == fail {
				return errors.New("replay failed")
			}
			return nil
		})
		got, err := s.legal(genuine, cs)
		if err != nil {
			t.Fatalf("genuine failure of replay %d aborted legal: %v", fail, err)
		}
		if len(genuine.legalSets) != 1 {
			t.Fatalf("genuine failure of replay %d left the set uncached", fail)
		}
		for st := range got {
			if !want[st] {
				t.Fatalf("genuine failure of replay %d invented a legal state", fail)
			}
		}
		if len(got) < len(want)-1 {
			t.Fatalf("genuine failure of replay %d dropped %d states, want at most 1", fail, len(want)-len(got))
		}
		if len(genuine.replays) < fail {
			break // every selection has been failed once
		}
	}
}
