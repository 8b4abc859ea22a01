package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"spes/internal/fault"
	"spes/internal/plan"
	"spes/internal/schema"
)

// permutedSelfJoins builds self-join pairs that make VeriVec search many
// candidate bijections: k scans of one single-column table, a predicate
// chaining the columns with < in some order, and a projection listing them
// in that order. q1 uses the identity order and q2 the permutation — the
// same query with its inputs relabeled, so VeriVec refutes a stream of
// wrong bijections before reaching the right one. broken relabels only the
// predicate, which returns different rows unless perm is the identity.
func permutedSelfJoins(k int, perm []int) (q1, q2, broken *plan.SPJ) {
	tbl := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "a", Type: schema.Int, NotNull: true}}}
	inputs := make([]plan.Node, k)
	for i := range inputs {
		inputs[i] = &plan.Table{Meta: tbl}
	}
	chain := func(order []int) plan.Expr {
		var p plan.Expr
		for i := 0; i+1 < len(order); i++ {
			cmp := &plan.Bin{Op: plan.OpLt, L: &plan.ColRef{Index: order[i]}, R: &plan.ColRef{Index: order[i+1]}}
			if p == nil {
				p = cmp
			} else {
				p = &plan.Bin{Op: plan.OpAnd, L: p, R: cmp}
			}
		}
		return p
	}
	proj := func(order []int) []plan.NamedExpr {
		out := make([]plan.NamedExpr, k)
		for i := range out {
			out[i] = plan.NamedExpr{Name: fmt.Sprintf("c%d", i), E: &plan.ColRef{Index: order[i]}}
		}
		return out
	}
	identity := make([]int, k)
	for i := range identity {
		identity[i] = i
	}
	q1 = &plan.SPJ{Inputs: inputs, Pred: chain(identity), Proj: proj(identity)}
	q2 = &plan.SPJ{Inputs: inputs, Pred: chain(perm), Proj: proj(perm)}
	broken = &plan.SPJ{Inputs: inputs, Pred: chain(perm), Proj: proj(identity)}
	return q1, q2, broken
}

// TestMultiCandidateSelfJoins proves every permuted self-join of 3 or 4
// scans and proves none of their broken variants.
func TestMultiCandidateSelfJoins(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	iterations := 12
	if testing.Short() {
		iterations = 4
	}
	for iter := 0; iter < iterations; iter++ {
		k := 3 + iter%2
		perm := r.Perm(k)
		q1, q2, broken := permutedSelfJoins(k, perm)
		if out := New().Check(q1, q2); !out.Full {
			t.Fatalf("k=%d perm=%v: permuted self-join pair should be proved, got %+v", k, perm, out)
		}
		isIdentity := true
		for i, p := range perm {
			if p != i {
				isIdentity = false
			}
		}
		if out := New().Check(q1, broken); !isIdentity && out.Full {
			t.Fatalf("k=%d perm=%v: broken pair must not be proved", k, perm)
		}
	}
}

// TestModelRoundAbortDegradesSoundly aborts solver checks mid-proof
// (cancel faults at the smt-model-round site, the top of every model
// round) and holds the verifier to the degradation contract: an aborted
// check may cost a proof but never mint one — the broken pair stays
// unproved under every fault schedule — and an abort leaves nothing behind
// that reaches a later check: the same Verifier, faults disarmed, proves
// the permuted pair again.
func TestModelRoundAbortDegradesSoundly(t *testing.T) {
	perm := []int{2, 0, 3, 1} // rank 17 of 24: a long wrong-candidate stream
	q1, q2, broken := permutedSelfJoins(4, perm)
	if out := New().Check(q1, q2); !out.Full {
		t.Fatalf("fault-free baseline failed to prove the permuted pair: %+v", out)
	}
	if out := New().Check(q1, broken); out.Full {
		t.Fatalf("fault-free baseline proved the broken pair: %+v", out)
	}

	var totalFired uint64
	for seed := uint64(1); seed <= 8; seed++ {
		if err := fault.Enable(fault.Config{
			Seed:     seed,
			PerMille: 400,
			Sites:    []fault.Site{fault.SMTModelRound},
			Kinds:    []fault.Kind{fault.KindCancel},
		}); err != nil {
			t.Fatal(err)
		}
		v := New()
		v.Check(q1, q2) // proved or degraded to unproved; both are sound
		outBroken := v.Check(q1, broken)
		totalFired += fault.Fired(fault.SMTModelRound)
		fault.Disable()

		// An aborted check returns Unknown, which can only remove proofs.
		if outBroken.Full {
			t.Fatalf("seed %d: aborted checks proved the broken pair: %+v", seed, outBroken)
		}
		if out := v.Check(q1, q2); !out.Full {
			t.Fatalf("seed %d: clean re-check after aborts failed: %+v", seed, out)
		}
		if out := v.Check(q1, broken); out.Full {
			t.Fatalf("seed %d: clean re-check after aborts proved the broken pair: %+v", seed, out)
		}
	}
	if totalFired == 0 {
		t.Fatal("the smt-model-round site never fired; the test exercised nothing")
	}
}
