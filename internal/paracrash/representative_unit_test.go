package paracrash

import (
	"strings"
	"testing"

	"paracrash/internal/causality"
	"paracrash/internal/pfs"
	"paracrash/internal/pfs/beegfs"
	"paracrash/internal/trace"
)

// digestSession builds the minimal white-box session crashDigest and
// classKey need: a recorded run of the in-package rename workload on
// BeeGFS with its causality graph, emulator and reconstructor, the cluster
// primed at the initial snapshot like prepare leaves it.
func digestSession(t *testing.T) (*session, []CrashState) {
	t.Helper()
	rec := trace.NewRecorder()
	fs := beegfs.New(pfs.DefaultConfig(), rec)
	w := renameWorkload{}
	rec.SetEnabled(false)
	if err := w.Preamble(fs); err != nil {
		t.Fatal(err)
	}
	initial := fs.Snapshot()
	rec.Reset()
	rec.SetEnabled(true)
	if err := w.Run(fs); err != nil {
		t.Fatal(err)
	}
	rec.SetEnabled(false)
	g := causality.Build(rec.Ops())
	emu := NewEmulator(g, fs.PersistConfig())
	s := &session{
		fs: fs, g: g, emu: emu, initial: initial,
		opts:         DefaultOptions(),
		clients:      map[string]pfs.Client{},
		checkCache:   map[string]checkResult{},
		classes:      map[string]checkResult{},
		dedupKeys:    map[string]bool{},
		imageDigests: map[string]string{},
	}
	s.layers = []*layer{newLayer("pfs", NewLayerOps(g, trace.LayerPFS, nil), s.opts.PFSModel, s.replayClientOps, &s.stats.LegalPFSStates)}
	recon, err := newReconstructor(s)
	if err != nil {
		t.Fatal(err)
	}
	s.recon = recon
	fs.Restore(initial)
	var states []CrashState
	emu.Generate(s.opts.Emulator, func(cs CrashState) bool {
		states = append(states, cs)
		return true
	})
	if len(states) < 4 {
		t.Fatalf("workload generated only %d crash states", len(states))
	}
	return s, states
}

// recoveredContent reconstructs a crash state the slow honest way and
// returns what the shadow pipeline is supposed to digest: the serialized
// mount tree, or the recovery/mount failure text. It rebuilds the whole
// cluster, so the reconstructor must not trust any server afterwards.
func recoveredContent(t *testing.T, s *session, cs CrashState) string {
	t.Helper()
	defer s.recon.markAllDirty()
	s.fs.Restore(s.initial)
	for _, i := range s.emu.Universe {
		if !cs.Keep.Get(i) {
			continue
		}
		_ = s.fs.ApplyLowermost(s.g.Ops[i])
	}
	if err := s.fs.Recover(); err != nil {
		return "UNRECOVERABLE: " + err.Error()
	}
	tree, err := s.fs.Mount()
	if err != nil {
		return "UNMOUNTABLE: " + err.Error()
	}
	return tree.Serialize()
}

// TestClassKeyNeverCollidesAcrossRecoveredContent is the collision proof
// behind representative attribution: the class key embeds the StateDigest
// of the state's recovered content, so two crash states whose recovered
// content differs can never land in the same equivalence class, and states
// sharing a class digest provably recovered to identical content.
func TestClassKeyNeverCollidesAcrossRecoveredContent(t *testing.T) {
	s, states := digestSession(t)
	contentByClass := map[string]string{}
	distinct := map[string]bool{}
	for _, cs := range states {
		ckey := s.classKey(cs)
		if ckey == "" {
			t.Fatalf("classKey empty without fault injection for state %s", cs.Keep.Key())
		}
		want := recoveredContent(t, s, cs)
		distinct[want] = true
		if got, ok := contentByClass[ckey]; ok {
			if got != want {
				t.Fatalf("class %q holds two different recovered states:\n%q\nvs\n%q", ckey, got, want)
			}
			continue
		}
		contentByClass[ckey] = want
		// The digest component must be exactly the StateDigest of the
		// recovered content — that is what "promoting StateDigest to the
		// bucketing key" means, and what keeps the key collision-free.
		if wantPrefix := StateDigest("crash", want) + "|"; !strings.HasPrefix(ckey, wantPrefix) {
			t.Fatalf("class key %q does not embed StateDigest of the recovered content (%q)", ckey, wantPrefix)
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("workload produced %d distinct recovered states; collision test needs variety", len(distinct))
	}
	if len(contentByClass) < len(distinct) {
		t.Fatalf("%d classes cover %d distinct recovered states", len(contentByClass), len(distinct))
	}
	// Digest memoisation must not leak across kept sets: every memo entry
	// keys a single kept set's digest.
	if len(s.imageDigests) == 0 {
		t.Fatal("shadow pipeline memoised nothing")
	}
}

// TestCrashDigestDeterministicAndStatePreserving pins two contracts the
// call sites rely on: repeated digests of one state are identical (memo or
// not), and the shadow pipeline keeps the walk's physical-state tracking
// truthful — bringing the state the walk stood on back after a digest of
// another state reproduces that state's stores byte for byte.
func TestCrashDigestDeterministicAndStatePreserving(t *testing.T) {
	s, states := digestSession(t)
	cs, prev := states[len(states)/2], states[len(states)-1]
	stores := func() string {
		st := s.fs.Snapshot()
		var b strings.Builder
		for _, p := range s.fs.Procs() {
			if f, ok := st.FS[p]; ok {
				b.WriteString(f.Serialize())
			}
			if d, ok := st.Dev[p]; ok {
				b.WriteString(d.Serialize())
			}
		}
		return b.String()
	}
	if err := s.recon.bring(prev); err != nil {
		t.Fatal(err)
	}
	before := stores()
	d1, err := s.crashDigest(cs)
	if err != nil {
		t.Fatal(err)
	}
	s.imageDigests = map[string]string{} // force a recompute past the memo
	d2, err := s.crashDigest(cs)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("crashDigest not deterministic: %q vs %q", d1, d2)
	}
	if err := s.recon.bring(prev); err != nil {
		t.Fatal(err)
	}
	if after := stores(); after != before {
		t.Fatal("shadow pipeline left the reconstructor's tracking stale: the walk's state came back different")
	}
}
