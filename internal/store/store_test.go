package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"spes/internal/fault"
)

func openT(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return s
}

func TestVerdictRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.log")
	s := openT(t, path)
	s.AppendVerdict("(and a b)", true)
	s.AppendVerdict("(or a b)", false)
	s.Flush()
	if v, ok := s.LookupVerdict("(and a b)"); !ok || !v {
		t.Fatalf("live lookup (and a b): got %v,%v", v, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openT(t, path)
	defer s2.Close()
	if v, ok := s2.LookupVerdict("(and a b)"); !ok || !v {
		t.Fatalf("reopen lookup (and a b): got %v,%v", v, ok)
	}
	if v, ok := s2.LookupVerdict("(or a b)"); !ok || v {
		t.Fatalf("reopen lookup (or a b): got %v,%v", v, ok)
	}
	if _, ok := s2.LookupVerdict("(not c)"); ok {
		t.Fatal("lookup of never-stored key hit")
	}
	st := s2.Snapshot()
	if st.Records != 2 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestWitnessRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	s := openT(t, path)
	s.AppendWitness("pair-1", []byte(`{"seed":7}`))
	s.AppendWitness("pair-1", []byte(`{"seed":8}`)) // duplicate key: first wins
	s.AppendWitness("", []byte("x"))                // no key: dropped silently
	s.AppendWitness("pair-2", nil)                  // no data: dropped silently
	s.Flush()
	if data, ok := s.LookupWitness("pair-1"); !ok || string(data) != `{"seed":7}` {
		t.Fatalf("live lookup pair-1: got %q,%v", data, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openT(t, path)
	defer s2.Close()
	if data, ok := s2.LookupWitness("pair-1"); !ok || string(data) != `{"seed":7}` {
		t.Fatalf("reopen lookup pair-1: got %q,%v", data, ok)
	}
	if _, ok := s2.LookupWitness("pair-2"); ok {
		t.Fatal("lookup of never-stored witness key hit")
	}
	// Witness records must not satisfy verdict lookups or vice versa.
	if _, ok := s2.LookupVerdict("pair-1"); ok {
		t.Fatal("witness record answered a verdict lookup")
	}
}

func TestLemmaRoundTripAndDedupe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l.log")
	s := openT(t, path)
	l1 := []LemmaLit{{AtomKey: "(< x y)", Pos: true}, {AtomKey: "(= x y)", Pos: true}}
	s.AppendLemma(l1)
	// Same lemma, different literal order: must dedupe.
	s.AppendLemma([]LemmaLit{l1[1], l1[0]})
	// Different polarity: distinct lemma.
	s.AppendLemma([]LemmaLit{{AtomKey: "(< x y)", Pos: false}})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openT(t, path)
	defer s2.Close()
	ls := s2.Lemmas()
	if len(ls) != 2 {
		t.Fatalf("lemmas after reopen: got %d, want 2 (%v)", len(ls), ls)
	}
	if len(ls[0]) != 2 || ls[0][0].AtomKey != "(< x y)" || !ls[0][0].Pos {
		t.Fatalf("lemma 0 mangled: %v", ls[0])
	}
	// Re-appending a persisted lemma after reopen must still dedupe.
	s2.AppendLemma(l1)
	s2.Flush()
	if n := s2.Snapshot().Appends; n != 0 {
		t.Fatalf("reopened store appended %d duplicate lemmas", n)
	}
}

// TestTornTailTruncated cuts the log mid-record and proves reopen drops
// exactly the torn record, keeping everything before it.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.log")
	s := openT(t, path)
	s.AppendVerdict("keep-me", true)
	s.AppendVerdict("lose-me", true)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, path)
	defer s2.Close()
	if _, ok := s2.LookupVerdict("lose-me"); ok {
		t.Fatal("torn record survived reopen")
	}
	if v, ok := s2.LookupVerdict("keep-me"); !ok || !v {
		t.Fatal("intact record lost by tail truncation")
	}
	st := s2.Snapshot()
	if st.Records != 1 || st.TruncatedBytes == 0 {
		t.Fatalf("stats after truncation: %+v", st)
	}
}

// TestChecksumCorruptionLosesNeverFabricates flips bytes in a stored
// verdict's payload: the record (and the tail behind it) must vanish, and in
// particular a false verdict must never come back as true.
func TestChecksumCorruptionLosesNeverFabricates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crc.log")
	s := openT(t, path)
	s.AppendVerdict("first", true)
	s.AppendVerdict("target", false)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the second record: skip first record's header+payload.
	n0 := binary.BigEndian.Uint32(data[:4])
	off := headerLen + int(n0)
	// Flip the verdict byte (last byte of the second record's payload)
	// without touching its checksum.
	data[len(data)-1] = 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, path)
	if v, ok := s2.LookupVerdict("target"); ok && v {
		t.Fatal("corrupted verdict fabricated into valid")
	}
	if _, ok := s2.LookupVerdict("target"); ok {
		t.Fatal("checksum-failing record was indexed at all")
	}
	if v, ok := s2.LookupVerdict("first"); !ok || !v {
		t.Fatal("record before the corruption lost")
	}
	if got := s2.Snapshot().TruncatedBytes; got != int64(len(data)-off) {
		t.Fatalf("TruncatedBytes = %d, want %d", got, len(data)-off)
	}
	s2.Close()
}

// TestFaultTornAppend arms the store-append site so the writer panics
// between header and payload, then proves reopen truncates the torn tail
// cleanly and the surviving prefix is intact.
func TestFaultTornAppend(t *testing.T) {
	if fault.Enabled() {
		t.Skip("fault registry already armed")
	}
	path := filepath.Join(t.TempDir(), "fault.log")
	s := openT(t, path)
	s.AppendVerdict("before-fault", true)
	s.Flush()

	if err := fault.Enable(fault.Config{
		Seed:     1,
		PerMille: 1000,
		Sites:    []fault.Site{fault.StoreAppend},
		Kinds:    []fault.Kind{fault.KindPanic},
	}); err != nil {
		t.Fatal(err)
	}
	s.AppendVerdict("torn", false)
	s.Flush()
	fault.Disable()
	if s.Snapshot().Dropped == 0 {
		t.Fatal("injected panic did not register as a dropped append")
	}
	// Close without rewriting: the torn header must remain on disk so the
	// reopen actually exercises tail truncation.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, path)
	defer s2.Close()
	if info.Size() > s2.Snapshot().Bytes && s2.Snapshot().TruncatedBytes == 0 {
		t.Fatalf("torn tail (%d > %d bytes) not truncated", info.Size(), s2.Snapshot().Bytes)
	}
	if _, ok := s2.LookupVerdict("torn"); ok {
		t.Fatal("torn record resurrected")
	}
	if v, ok := s2.LookupVerdict("before-fault"); !ok || !v {
		t.Fatal("intact record lost")
	}
}

// TestFaultCancelSkipsWrite arms cancel at store-append: the record is
// skipped (fsync-skip analog), nothing corrupts, the store keeps working.
func TestFaultCancelSkipsWrite(t *testing.T) {
	if fault.Enabled() {
		t.Skip("fault registry already armed")
	}
	path := filepath.Join(t.TempDir(), "cancel.log")
	s := openT(t, path)
	if err := fault.Enable(fault.Config{
		Seed:     1,
		PerMille: 1000,
		Sites:    []fault.Site{fault.StoreAppend},
		Kinds:    []fault.Kind{fault.KindCancel},
	}); err != nil {
		t.Fatal(err)
	}
	s.AppendVerdict("skipped", true)
	s.Flush()
	fault.Disable()
	s.AppendVerdict("written", true)
	s.Flush()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openT(t, path)
	defer s2.Close()
	if _, ok := s2.LookupVerdict("skipped"); ok {
		t.Fatal("cancelled append reached disk")
	}
	if v, ok := s2.LookupVerdict("written"); !ok || !v {
		t.Fatal("append after cancel lost")
	}
	if st := s2.Snapshot(); st.TruncatedBytes != 0 {
		t.Fatalf("cancel left a torn tail: %+v", st)
	}
}

func TestAppendAfterCloseDrops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.log")
	s := openT(t, path)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.AppendVerdict("late", true) // must not panic
	s.Flush()                     // must not block
	if _, ok := s.LookupVerdict("late"); ok {
		t.Fatal("closed store answered a lookup")
	}
}

func TestOpenDirCreates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	s, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	s.AppendVerdict("k", true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "spes-verdicts.log")); err != nil {
		t.Fatalf("log file missing: %v", err)
	}
}

// TestStatsCountVerdictLookupsOnly: Stats.Hits and Misses count
// LookupVerdict calls and nothing else — not witness lookups, and not the
// dedupe probes of appends or of replicated records.
func TestStatsCountVerdictLookupsOnly(t *testing.T) {
	s := openT(t, filepath.Join(t.TempDir(), "stats.log"))
	defer s.Close()
	s.AppendWitness("pair", []byte("w1"))
	s.AppendVerdict("k", true)
	s.Flush()
	s.AppendWitness("pair", []byte("w2"))
	s.AppendVerdict("k", true)
	s.Flush()
	s.LookupWitness("pair")
	s.LookupWitness("absent")
	chunk, _, err := s.ReadTail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.ApplyReplicated(chunk); err != nil || st.Duplicates != 2 {
		t.Fatalf("re-applying the log: %+v, %v", st, err)
	}
	if st := s.Snapshot(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("no verdict lookup yet, but Hits=%d Misses=%d", st.Hits, st.Misses)
	}
	s.LookupVerdict("k")
	s.LookupVerdict("absent")
	if st := s.Snapshot(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("one verdict hit and one miss, but Hits=%d Misses=%d", st.Hits, st.Misses)
	}
}
