// Package smt implements a satisfiability-modulo-theories solver sufficient
// for SPES's symbolic verification: quantifier-free formulas over linear
// rational arithmetic combined with uninterpreted functions, solved lazily on
// top of the CDCL core in internal/sat.
//
// Soundness contract: an Unsat answer is always correct (the formula has no
// model over the rationals with functions uninterpreted, hence none over the
// integers or any refinement). A Sat answer may be spurious with respect to
// richer intended semantics (true non-linear multiplication, integers-only
// columns); SPES only draws conclusions from Unsat answers, so this
// asymmetry preserves its soundness and costs only completeness — mirroring
// the incompleteness the paper already accepts from Z3 (§5.5).
package smt

// delta is a rational extended with an infinitesimal component: value
// R + D·δ where δ is positive and smaller than any positive rational. Strict
// bounds become weak bounds on delta-rationals (x < c ⇔ x ≤ c − δ), the
// standard trick from the Dutertre–de Moura simplex. The zero value is 0.
type delta struct {
	R rational
	D rational
}

func dRat(r rational) delta { return delta{R: r} }

func dInt(v int64) delta { return delta{R: ratInt(v)} }

// dStrict returns r with the infinitesimal shifted by dir (+1 for lower
// bounds from >, -1 for upper bounds from <).
func dStrict(r rational, dir int64) delta { return delta{R: r, D: ratInt(dir)} }

// cmp orders delta-rationals lexicographically on (R, D).
func (d delta) cmp(o delta) int {
	if c := d.R.cmp(o.R); c != 0 {
		return c
	}
	return d.D.cmp(o.D)
}

// add returns d + o.
func (d delta) add(o delta) delta { return delta{R: d.R.add(o.R), D: d.D.add(o.D)} }

// sub returns d - o.
func (d delta) sub(o delta) delta { return delta{R: d.R.sub(o.R), D: d.D.sub(o.D)} }

// scale returns d * c for a rational scalar c.
func (d delta) scale(c rational) delta { return delta{R: d.R.mul(c), D: d.D.mul(c)} }

// String prints R, then D·δ with its sign: 5, 5+1δ, 5-1δ.
func (d delta) String() string {
	if d.D.sign() == 0 {
		return d.R.String()
	}
	sign := ""
	if d.D.sign() > 0 {
		sign = "+"
	}
	return d.R.String() + sign + d.D.String() + "δ"
}
