package obs

import "testing"

func TestRingSinkBoundsBatches(t *testing.T) {
	s := NewRingSink(2)
	for i := 1; i <= 5; i++ {
		if err := s.WriteBatch(Batch{Metrics: []Metric{{Name: "x", Kind: KindCounter, Value: float64(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("batches = %d, want 2", s.Len())
	}
	batches := s.Batches()
	if batches[0].Metrics[0].Value != 4 || batches[1].Metrics[0].Value != 5 {
		t.Fatalf("ring kept %+v, want batches 4 and 5", batches)
	}
	if m, ok := s.Find("x", ""); !ok || m.Value != 5 {
		t.Fatalf("Find = (%+v, %v), want value 5 from the last batch", m, ok)
	}
	if _, ok := s.Find("y", ""); ok {
		t.Fatal("Find matched a name that never arrived")
	}
}

// TestRingSinkCopiesBatches pins the aliasing contract: the ring must stay
// valid however the caller reuses the batch's samples after WriteBatch.
func TestRingSinkCopiesBatches(t *testing.T) {
	s := NewRingSink(4)
	metrics := []Metric{{Name: "x", Kind: KindCounter, Value: 1}}
	if err := s.WriteBatch(Batch{Metrics: metrics}); err != nil {
		t.Fatal(err)
	}
	metrics[0].Value = 999
	if m, _ := s.Find("x", ""); m.Value != 1 {
		t.Fatalf("ring aliased the caller's batch: %+v", m)
	}
}

func TestRingSinkReset(t *testing.T) {
	s := NewRingSink(4)
	_ = s.WriteBatch(Batch{Metrics: []Metric{{Name: "x"}}})
	s.Reset()
	if s.Len() != 0 || len(s.Batches()) != 0 {
		t.Fatal("Reset left data behind")
	}
	if _, ok := s.LastBatch(); ok {
		t.Fatal("Reset left a batch behind")
	}
}

func TestRingSinkMinimumCapacity(t *testing.T) {
	s := NewRingSink(0)
	_ = s.WriteBatch(Batch{Elapsed: 1})
	_ = s.WriteBatch(Batch{Elapsed: 2})
	if bs := s.Batches(); len(bs) != 1 || bs[0].Elapsed != 2 {
		t.Fatalf("zero-capacity ring = %+v, want just the newest batch", bs)
	}
}
