package refute

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"spes/internal/corpus"
	"spes/internal/plan"
	"spes/internal/schema"
)

// searchOutcomeDigests holds, per SearchVersion, the digest of what Search
// returns over the pinned pairs (see TestSearchOutcomesPinned). Entries are
// never edited: a change that moves the digest bumps SearchVersion and adds
// an entry.
var searchOutcomeDigests = map[int]string{
	1: "f8b3b55f29e88927fd11f208bb00cbd96b825c2719a35544f59149888b9857b3",
}

type pinnedPair struct {
	id  string
	cat *schema.Catalog
	p   corpus.Pair
}

// pinnedPairs are the Calcite pairs under the constraint-free catalog, and
// the constraint tier under both the constraint-free catalog (where it is
// refutable) and its own.
func pinnedPairs() []pinnedPair {
	var out []pinnedPair
	free, constrained := corpus.Catalog(), corpus.ConstraintCatalog()
	add := func(prefix string, cat *schema.Catalog, pairs []corpus.Pair) {
		for _, p := range pairs {
			out = append(out, pinnedPair{prefix + p.ID, cat, p})
		}
	}
	add("calcite/", free, corpus.CalcitePairs())
	add("free/", free, corpus.ConstraintPairs())
	add("constrained/", constrained, corpus.ConstraintPairs())
	return out
}

// TestSearchOutcomesPinned digests, per pinned pair, the rounds Search runs
// at budget 64 and the witness bytes it returns, or "exhausted". Stored
// exhausted-search records are served without replay on the strength of
// SearchVersion, so when this digest moves — a change to datagen's
// streams, the executor's semantics, the row bound or the round order —
// SearchVersion must be bumped in the same change. The test also pins that
// an exhausted key never equals a witness key.
func TestSearchOutcomesPinned(t *testing.T) {
	h := sha256.New()
	searched := 0
	for _, pp := range pinnedPairs() {
		b := plan.NewBuilder(pp.cat)
		q1, err1 := b.BuildSQL(pp.p.SQL1)
		q2, err2 := b.BuildSQL(pp.p.SQL2)
		if err1 != nil || err2 != nil {
			continue // unsupported SQL never reaches a search
		}
		searched++
		opts := Options{Budget: 64}
		w, st := Search(q1, q2, opts)
		outcome := "none"
		switch {
		case w != nil:
			data, err := w.Encode()
			if err != nil {
				t.Fatal(err)
			}
			outcome = string(data)
		case st.Exhausted:
			outcome = "exhausted"
		}
		if st.Exhausted != (w == nil && st.Rounds == opts.Budget) {
			t.Errorf("%s: Exhausted = %v with witness %v after %d rounds", pp.id, st.Exhausted, w != nil, st.Rounds)
		}
		fmt.Fprintf(h, "%s %d %s\n", pp.id, st.Rounds, outcome)

		for _, wk := range []string{plan.PairKey(q1, q2), "c" + pp.cat.ConstraintDigest() + ":" + plan.PairKey(q1, q2)} {
			if xk := ExhaustedKey(wk, q1, q2, opts); xk[0] != 'x' || wk[0] == 'x' {
				t.Fatalf("%s: exhausted key %.20q and witness key %.20q can meet", pp.id, xk, wk)
			}
		}
	}
	if searched < 150 {
		t.Fatalf("only %d pinned pairs built", searched)
	}
	got := hex.EncodeToString(h.Sum(nil))
	if want := searchOutcomeDigests[SearchVersion]; got != want {
		t.Fatalf("Search outcomes digest at SearchVersion %d is %s, pinned %q.\n"+
			"Search now returns something else for some pair, so exhausted-search records written\n"+
			"by older builds would go stale: bump refute.SearchVersion and pin the new digest under it.",
			SearchVersion, got, want)
	}
}
