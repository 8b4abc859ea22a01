package engine

import (
	"reflect"
	"sync"
	"testing"
)

// TestSnapshotNeverTears hammers record and Snapshot concurrently. Every
// read must see whole pairs only: the four verdict counts sum to Pairs on
// every snapshot, not just once the writers stop.
func TestSnapshotNeverTears(t *testing.T) {
	s := NewShared(Options{})
	verdicts := []Verdict{Equivalent, NotProved, Unsupported, Refuted}
	const writers, perWriter = 4, 50000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.record(Result{Verdict: verdicts[(w+i)%len(verdicts)], Deduped: i%3 == 0})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	reads, torn := 0, 0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		st := s.Snapshot()
		reads++
		if st.Equivalent+st.NotProved+st.Unsupported+st.Refuted != st.Pairs {
			torn++
		}
	}
	if torn > 0 {
		t.Errorf("%d of %d snapshots tore: equivalent+not_proved+unsupported+refuted != pairs", torn, reads)
	}
	if st := s.Snapshot(); st.Pairs != writers*perWriter {
		t.Errorf("pairs = %d, want %d", st.Pairs, writers*perWriter)
	}
}

// TestStatsAddSumsEveryField checks Add and Sub touch every field, so a
// new counter is summed across shards and batches without another edit.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b StatsSnapshot
	fields := StatFields()
	for i, f := range fields {
		set(&a, f, int64(i+1))
		set(&b, f, int64(100*(i+1)))
	}
	sum := a
	sum.Add(b)
	for i, f := range fields {
		if got := f.Value(&sum); got != int64(101*(i+1)) {
			t.Errorf("Add: %s = %d, want %d", f.JSON, got, 101*(i+1))
		}
	}
	sum.Sub(b)
	if sum != a {
		t.Errorf("Sub did not undo Add: %+v != %+v", sum, a)
	}
}

func set(s *StatsSnapshot, f StatField, v int64) {
	reflect.ValueOf(s).Elem().Field(f.index).SetInt(v)
}
