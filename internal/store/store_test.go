package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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

// lemmaLit is one literal of an 'L' record, which logs held while theory
// lemmas were persisted.
type lemmaLit struct {
	atomKey string
	pos     bool
}

// oldLemma encodes an 'L' record payload as those logs wrote it:
// 'L' | uvarint(k) | k × (uvarint(len(key)) | key | polByte).
func oldLemma(lits ...lemmaLit) []byte {
	buf := binary.AppendUvarint([]byte{'L'}, uint64(len(lits)))
	for _, l := range lits {
		buf = binary.AppendUvarint(buf, uint64(len(l.atomKey)))
		buf = append(buf, l.atomKey...)
		if l.pos {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// TestOldLemmaRecordsReadPast: a log holding 'L' records between its
// verdict and witness records opens with the reference scan's record and
// byte counts and answers every verdict and witness key, and replicating
// it applies the verdicts and witnesses and skips the lemmas.
func TestOldLemmaRecordsReadPast(t *testing.T) {
	dir := t.TempDir()
	data := frame(
		encodeVerdict("(and a b)", true),
		oldLemma(lemmaLit{"(< x y)", true}, lemmaLit{"(= x y)", true}),
		encodeWitness("pair-1", []byte(`{"seed":7}`)),
		oldLemma(lemmaLit{"(< x y)", false}),
		encodeVerdict("(or a b)", false),
		encodeWitness("pair-2", []byte(`{"seed":8}`)),
	)
	payloads, end, err := preadScan(bytes.NewReader(data), int64(len(data)))
	if err != nil || len(payloads) != 6 || end != int64(len(data)) {
		t.Fatalf("reference scan: %d records, %d of %d bytes, %v", len(payloads), end, len(data), err)
	}
	path := filepath.Join(dir, "old.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(name string, s *Store) {
		t.Helper()
		if v, ok := s.LookupVerdict("(and a b)"); !ok || !v {
			t.Errorf("%s: verdict (and a b) = %v, %v", name, v, ok)
		}
		if v, ok := s.LookupVerdict("(or a b)"); !ok || v {
			t.Errorf("%s: verdict (or a b) = %v, %v", name, v, ok)
		}
		for key, want := range map[string]string{"pair-1": `{"seed":7}`, "pair-2": `{"seed":8}`} {
			if got, ok := s.LookupWitness(key); !ok || string(got) != want {
				t.Errorf("%s: witness %s = %q, %v", name, key, got, ok)
			}
		}
	}

	s := openT(t, path)
	defer s.Close()
	if st := s.Snapshot(); st.Records != int64(len(payloads)) || st.Bytes != end || st.TruncatedBytes != 0 {
		t.Fatalf("Open: %+v, want %d records of %d bytes", st, len(payloads), end)
	}
	check("origin", s)

	replica := openT(t, filepath.Join(dir, "replica.log"))
	defer replica.Close()
	st, err := replica.ApplyReplicated(data)
	if err != nil {
		t.Fatalf("ApplyReplicated: %v", err)
	}
	if st != (ApplyStats{Records: 6, Applied: 4}) {
		t.Fatalf("ApplyReplicated: %+v, want 6 records with 4 applied", st)
	}
	if n := replica.Snapshot().Records; n != 4 {
		t.Fatalf("replica holds %d records, want the 4 verdicts and witnesses", n)
	}
	check("replica", replica)
}

// TestCloseRacesAppendsAndFlush: appends and Flush calls racing Close never
// panic, and every distinct-key append is either written or counted as
// dropped — none is lost behind the writer's stop.
func TestCloseRacesAppendsAndFlush(t *testing.T) {
	const rounds, appenders, perAppender = 300, 4, 200
	dir := t.TempDir()
	for r := 0; r < rounds; r++ {
		s := openT(t, filepath.Join(dir, fmt.Sprintf("race-%d.log", r)))
		var wg sync.WaitGroup
		for g := 0; g < appenders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perAppender; i++ {
					s.AppendVerdict(fmt.Sprintf("k%d-%d", g, i), true)
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s.Flush()
			}
		}()
		if err := s.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", r, err)
		}
		wg.Wait()
		if st := s.Snapshot(); st.Appends+st.Dropped != appenders*perAppender {
			t.Fatalf("round %d: %d appends + %d dropped, want %d", r, st.Appends, st.Dropped, appenders*perAppender)
		}
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
