package fol

import "fmt"

// Walk calls fn for t and every sub-term of t, pre-order. If fn returns
// false, the sub-terms of the current term are skipped.
func Walk(t *Term, fn func(*Term) bool) {
	if !fn(t) {
		return
	}
	for _, a := range t.Args {
		Walk(a, fn)
	}
}

// Vars returns the variables occurring in t, deduplicated, in first-seen
// order.
func Vars(t *Term) []*Term {
	var out []*Term
	seen := make(map[string]bool)
	Walk(t, func(u *Term) bool {
		if u.Kind == KVar && !seen[u.Name] {
			seen[u.Name] = true
			out = append(out, u)
		}
		return true
	})
	return out
}

// VarsOf returns the union of variables over several terms.
func VarsOf(ts ...*Term) []*Term {
	var out []*Term
	seen := make(map[string]bool)
	for _, t := range ts {
		for _, v := range Vars(t) {
			if !seen[v.Name] {
				seen[v.Name] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Subst returns t with every variable named in m replaced by the mapped
// term. Replacement terms are inserted as-is; the rebuild re-runs the smart
// constructors so folding invariants are restored.
func Subst(t *Term, m map[string]*Term) *Term {
	if len(m) == 0 {
		return t
	}
	return rebuild(t, func(u *Term) (*Term, bool) {
		if u.Kind == KVar {
			if r, ok := m[u.Name]; ok {
				return r, true
			}
		}
		return nil, false
	})
}

// RenameVars returns t with every variable renamed through fn, together with
// hitting the smart constructors again. Renamed variables stay in the
// original variable's interner.
func RenameVars(t *Term, fn func(name string) string) *Term {
	return rebuild(t, func(u *Term) (*Term, bool) {
		if u.Kind == KVar {
			if n := fn(u.Name); n != u.Name {
				return u.in.Var(n, u.Sort), true
			}
		}
		return nil, false
	})
}

// rebuild rewrites t bottom-up. leaf is consulted for every node; when it
// returns a replacement the node is swapped wholesale (its children are not
// visited).
func rebuild(t *Term, leaf func(*Term) (*Term, bool)) *Term {
	if r, ok := leaf(t); ok {
		return r
	}
	if len(t.Args) == 0 {
		return t
	}
	args := make([]*Term, len(t.Args))
	changed := false
	for i, a := range t.Args {
		args[i] = rebuild(a, leaf)
		if args[i] != a {
			changed = true
		}
	}
	if !changed {
		return t
	}
	return t.WithArgs(args)
}

// WithArgs rebuilds a composite term over new arguments through the smart
// constructors, so folding invariants are restored (an application stays in
// t's interner). args must match t's arity and sorts.
func (t *Term) WithArgs(args []*Term) *Term {
	switch t.Kind {
	case KAdd:
		return Add(args...)
	case KMul:
		return Mul(args...)
	case KNeg:
		return Neg(args[0])
	case KDiv:
		return Div(args[0], args[1])
	case KEq:
		return Eq(args[0], args[1])
	case KLe:
		return Le(args[0], args[1])
	case KLt:
		return Lt(args[0], args[1])
	case KNot:
		return Not(args[0])
	case KAnd:
		return And(args...)
	case KOr:
		return Or(args...)
	case KIff:
		return Iff(args[0], args[1])
	case KIte:
		return Ite(args[0], args[1], args[2])
	case KApp:
		return t.in.App(t.Name, t.Sort, args...)
	}
	panic(fmt.Sprintf("fol: WithArgs on leaf kind %v", t.Kind))
}

// Size returns the number of nodes in t.
func Size(t *Term) int {
	n := 0
	Walk(t, func(*Term) bool { n++; return true })
	return n
}
