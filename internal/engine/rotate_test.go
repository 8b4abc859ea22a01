package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"spes/internal/corpus"
	"spes/internal/store"
)

// rotationHighWater derives a high-water mark that forces several
// rotations on the given workload: an unbounded reference run measures the
// workload's full term-DAG size, and the mark is set well below it. The
// reference results double as the parity baseline.
func rotationHighWater(t *testing.T, pairs []Pair) ([]Result, BatchStats, int) {
	t.Helper()
	base, baseStats := VerifyBatch(corpus.Catalog(), pairs, Options{Workers: 1})
	if baseStats.TermNodes == 0 {
		t.Fatal("sanity: unbounded run interned no terms")
	}
	hw := int(baseStats.TermNodes) / 6
	if hw < 64 {
		hw = 64
	}
	return base, baseStats, hw
}

// TestForcedRotationParity is the rotation acceptance suite: a batch run
// with a high-water mark low enough to force several mid-batch epoch
// rotations returns verdicts identical to the unbounded run, and the
// final current-epoch DAG is smaller than the unbounded one.
func TestForcedRotationParity(t *testing.T) {
	pairs := calcitePairs()
	base, baseStats, hw := rotationHighWater(t, pairs)

	rot, rotStats := VerifyBatch(corpus.Catalog(), pairs, Options{Workers: 1, TermNodeHighWater: hw})
	if rotStats.InternerEpochs < 2 {
		t.Fatalf("high-water %d (of %d unbounded nodes) forced no rotation: epochs=%d",
			hw, baseStats.TermNodes, rotStats.InternerEpochs)
	}
	for i := range pairs {
		if base[i].Verdict != rot[i].Verdict {
			t.Errorf("pair %s: verdict %v unbounded, %v under rotation",
				pairs[i].ID, base[i].Verdict, rot[i].Verdict)
		}
		if base[i].Cardinal != rot[i].Cardinal {
			t.Errorf("pair %s: cardinal %v unbounded, %v under rotation",
				pairs[i].ID, base[i].Cardinal, rot[i].Cardinal)
		}
	}
	if rotStats.TermNodes >= baseStats.TermNodes {
		t.Errorf("rotation did not shrink the live DAG: %d nodes with rotation, %d without",
			rotStats.TermNodes, baseStats.TermNodes)
	}
}

// TestRotationBoundsEngineTermNodes pins the memory property on the
// long-lived engine: across repeated batches the rotating engine's
// current-epoch DAG stays bounded while the non-rotating engine's grows
// monotonically to the workload's full size.
func TestRotationBoundsEngineTermNodes(t *testing.T) {
	cat := corpus.Catalog()
	pairs := calcitePairs()
	_, baseStats, hw := rotationHighWater(t, pairs)

	bounded := NewEngine(cat, Options{Workers: 2, TermNodeHighWater: hw})
	unbounded := NewEngine(cat, Options{Workers: 2})
	for round := 0; round < 3; round++ {
		bounded.VerifyBatch(context.Background(), pairs, 2)
		unbounded.VerifyBatch(context.Background(), pairs, 2)
	}
	bst, ust := bounded.Stats(), unbounded.Stats()
	if bst.InternerEpochs < 2 {
		t.Fatalf("bounded engine never rotated: epochs=%d (hw=%d)", bst.InternerEpochs, hw)
	}
	if ust.TermNodes < baseStats.TermNodes {
		t.Fatalf("sanity: unbounded engine holds %d nodes, single batch interned %d",
			ust.TermNodes, baseStats.TermNodes)
	}
	// Rotation fires between pairs, so the current epoch can overshoot the
	// mark by at most the terms of the pairs in flight when it crossed;
	// one full batch of slack is a generous ceiling that still separates
	// bounded from unbounded behavior.
	ceiling := int64(hw) + baseStats.TermNodes
	if bst.TermNodes > ceiling {
		t.Errorf("rotating engine's epoch grew to %d nodes, ceiling %d (hw=%d)",
			bst.TermNodes, ceiling, hw)
	}
	if bst.TermNodes >= ust.TermNodes {
		t.Errorf("rotation did not bound the DAG: %d nodes rotating, %d not",
			bst.TermNodes, ust.TermNodes)
	}
}

// TestRotationConcurrentWithWorkers runs rotation under worker concurrency
// with the race detector watching the interner handoff: the engine must
// open at least two epochs and keep every verdict of the unbounded run.
func TestRotationConcurrentWithWorkers(t *testing.T) {
	cat := corpus.Catalog()
	pairs := calcitePairs()
	base, _, hw := rotationHighWater(t, pairs)

	eng := NewEngine(cat, Options{Workers: 8, TermNodeHighWater: hw})
	var results []Result
	for round := 0; round < 2; round++ {
		results, _ = eng.VerifyBatch(context.Background(), pairs, 8)
	}
	st := eng.Stats()
	if st.InternerEpochs < 2 {
		t.Fatalf("concurrent run never rotated: epochs=%d (hw=%d)", st.InternerEpochs, hw)
	}
	for i := range pairs {
		if base[i].Verdict != results[i].Verdict {
			t.Errorf("pair %s: verdict %v unbounded, %v under concurrent rotation",
				pairs[i].ID, base[i].Verdict, results[i].Verdict)
		}
	}
}

// TestWarmRestartParity pins the durable tier across a simulated process
// restart: a cold engine fills the store, the store is closed and reopened
// (running its crash-recovery scan), and a fresh engine over the same
// directory answers from it — with hits, and with byte-identical verdicts.
func TestWarmRestartParity(t *testing.T) {
	cat := corpus.Catalog()
	pairs := calcitePairs()
	dir := t.TempDir()

	st1, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewEngine(cat, Options{Workers: 4, Store: st1})
	coldRes, _ := cold.VerifyBatch(context.Background(), pairs, 4)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	if st1.Snapshot().Records == 0 {
		t.Fatal("cold run persisted nothing")
	}

	st2, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, want := st2.Snapshot().Records, st1.Snapshot().Records; got != want {
		t.Fatalf("reopen lost records: %d on disk, %d written", got, want)
	}
	warm := NewEngine(cat, Options{Workers: 4, Store: st2})
	warmRes, warmStats := warm.VerifyBatch(context.Background(), pairs, 4)
	if warmStats.StoreHits == 0 {
		t.Errorf("warm restart hit the store 0 times: %+v", warmStats)
	}
	for i := range pairs {
		if coldRes[i].Verdict != warmRes[i].Verdict {
			t.Errorf("pair %s: verdict %v cold, %v after warm restart",
				pairs[i].ID, coldRes[i].Verdict, warmRes[i].Verdict)
		}
		if coldRes[i].Cardinal != warmRes[i].Cardinal {
			t.Errorf("pair %s: cardinal %v cold, %v after warm restart",
				pairs[i].ID, coldRes[i].Cardinal, warmRes[i].Cardinal)
		}
	}
}

// coldStoreLog runs pairs once through a cold single-worker engine with
// refutation budget 64 over a fresh store, and returns the bytes of the
// log it wrote.
func coldStoreLog(t *testing.T, pairs []Pair) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(corpus.Catalog(), Options{Workers: 1, Store: st, RefuteBudget: 64})
	eng.VerifyBatch(context.Background(), pairs, 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "spes-verdicts.log"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoreLogDeterministic pins that the durable store's bytes are a
// deterministic function of the pairs: two cold single-worker runs with
// refutation write byte-identical logs of verdict and witness records.
func TestStoreLogDeterministic(t *testing.T) {
	pairs := calcitePairs()
	first, second := coldStoreLog(t, pairs), coldStoreLog(t, pairs)
	if len(first) == 0 {
		t.Fatal("sanity: the run persisted nothing")
	}
	if !bytes.Equal(first, second) {
		n := 0
		for n < len(first) && n < len(second) && first[n] == second[n] {
			n++
		}
		t.Fatalf("two runs of the same pairs wrote different logs (%d and %d bytes, first difference at byte %d)",
			len(first), len(second), n)
	}
}

// TestStoreVerdictWitnessRecordsPinned pins the verdict ('V') and witness
// ('W') records of TestStoreLogDeterministic's run: their payloads, in log
// order, must digest to the pinned value, so a store warmed by one version
// answers the next one warm. The store writes no other record kind. A
// change to obligation keys, verdicts or witnesses must update the pin on
// purpose.
func TestStoreVerdictWitnessRecordsPinned(t *testing.T) {
	const (
		wantDigest       = "d2933ca135bf58b6"
		wantVerdicts     = 91
		wantVerdictBytes = 43709
		wantWitnesses    = 12
		wantWitnessBytes = 3159
	)
	data := coldStoreLog(t, calcitePairs())
	h := sha256.New()
	count, size := map[byte]int{}, map[byte]int{}
	for off := 0; off < len(data); {
		if len(data)-off < 8 {
			t.Fatalf("torn record header at byte %d", off)
		}
		n := int(binary.BigEndian.Uint32(data[off:]))
		if n == 0 || off+8+n > len(data) {
			t.Fatalf("torn record at byte %d", off)
		}
		rec := data[off : off+8+n] // 4-byte length, 4-byte CRC, payload
		off += len(rec)
		kind := rec[8]
		count[kind]++
		size[kind] += n
		if kind == 'V' || kind == 'W' {
			h.Write(rec[:4]) // the length prefix keeps record boundaries in the digest
			h.Write(rec[8:])
		}
	}
	if count['V'] != wantVerdicts || size['V'] != wantVerdictBytes {
		t.Errorf("verdict records: %d (%d payload bytes), want %d (%d)", count['V'], size['V'], wantVerdicts, wantVerdictBytes)
	}
	if count['W'] != wantWitnesses || size['W'] != wantWitnessBytes {
		t.Errorf("witness records: %d (%d payload bytes), want %d (%d)", count['W'], size['W'], wantWitnesses, wantWitnessBytes)
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != wantDigest {
		t.Errorf("verdict and witness records digest to %s, pinned %s (%d log bytes)",
			got, wantDigest, len(data))
	}
}
