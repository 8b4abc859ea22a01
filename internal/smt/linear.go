package smt

import "spes/internal/fol"

// linForm is a linear combination Σ terms[k].c·terms[k].t + konst over
// distinct "opaque" terms the arithmetic theory treats as variables: plain
// numeric variables, uninterpreted applications, non-linear products, and
// symbolic divisions. Terms are identified by interned term ID, so all
// terms in one linForm must share an interner (theoryCheckExplain interns
// its literals up front). The order of terms carries no meaning.
type linForm struct {
	terms []linTerm
	konst rational
}

// linTerm is one coefficient·term summand of a linForm.
type linTerm struct {
	t *fol.Term
	c rational
}

func (l *linForm) addTerm(t *fol.Term, c rational) {
	for i := range l.terms {
		if l.terms[i].t.ID() != t.ID() {
			continue
		}
		if sum := l.terms[i].c.add(c); sum.sign() != 0 {
			l.terms[i].c = sum
		} else {
			l.terms = append(l.terms[:i], l.terms[i+1:]...)
		}
		return
	}
	l.terms = append(l.terms, linTerm{t, c})
}

// addScaled accumulates c·o into l.
func (l *linForm) addScaled(o *linForm, c rational) {
	l.konst = l.konst.add(o.konst.mul(c))
	for _, ot := range o.terms {
		l.addTerm(ot.t, ot.c.mul(c))
	}
}

// isConst reports whether l has no variable part.
func (l *linForm) isConst() bool { return len(l.terms) == 0 }

// linearize decomposes a numeric term into a linear form. Sub-terms the
// linear theory cannot interpret become opaque variables (and are separately
// visible to congruence closure, which sees their internal structure).
func linearize(t *fol.Term) *linForm {
	l := &linForm{}
	linearizeInto(t, one, l)
	return l
}

func linearizeInto(t *fol.Term, c rational, l *linForm) {
	switch t.Kind {
	case fol.KNum:
		l.konst = l.konst.add(c.mul(ratOfBig(t.Rat)))
	case fol.KAdd:
		for _, a := range t.Args {
			linearizeInto(a, c, l)
		}
	case fol.KNeg:
		linearizeInto(t.Args[0], c.neg(), l)
	case fol.KMul:
		// fol.Mul normalizes constants into a single leading factor.
		if t.Args[0].Kind == fol.KNum {
			cc := c.mul(ratOfBig(t.Args[0].Rat))
			rest := t.Args[1:]
			if len(rest) == 1 {
				linearizeInto(rest[0], cc, l)
			} else {
				l.addTerm(fol.Mul(rest...), cc)
			}
			return
		}
		l.addTerm(t, c) // non-linear product: opaque
	case fol.KVar, fol.KApp, fol.KDiv, fol.KIte:
		l.addTerm(t, c)
	default:
		l.addTerm(t, c)
	}
}

// diff returns linearize(a) - linearize(b).
func diff(a, b *fol.Term) *linForm {
	l := linearize(a)
	l.addScaled(linearize(b), ratInt(-1))
	return l
}
