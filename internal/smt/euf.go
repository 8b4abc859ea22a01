package smt

import (
	"sort"
	"strconv"

	"spes/internal/fol"
)

// euf is a congruence-closure engine over ground terms. Every fol term kind
// with arguments is treated as an uninterpreted function symbol (so x = y
// entails x+1 = y+1, f(x) = f(y), ...), which is sound for conflict
// detection. Numeric and boolean constants carry distinct interpretations:
// merging two classes holding different constants is a conflict.
//
// Node identity keys on term IDs, so registration is a uint32 map hit: all
// terms an engine sees must belong to one interner (the solver's).
type euf struct {
	ids      map[uint32]int // term ID -> node
	terms    []*fol.Term    // node -> term
	parent   []int          // union-find
	size     []int
	constVal []string // node -> constant tag ("" if none); maintained on roots
	uses     [][]int  // root -> application nodes with an argument in the class
	appArgs  [][]int  // node -> argument node ids (apps only)
	appSym   []string // node -> function symbol (apps only)
	sigs     map[string]int
	diseqs   [][2]int
	conflict bool

	// Trail-based undo: between mark and undo every state mutation (merges,
	// signature inserts, disequalities) is recorded and can be rolled back
	// exactly, so one engine serves every theory check of an instance's
	// model rounds and core minimizations over a growing but stable
	// registration base. Registration itself (node + registration-time
	// congruence merges) is model-independent and never recorded: it stays
	// valid for the lifetime of the instance.
	recording bool
	trail     []eufRec
}

type eufRec struct {
	kind        uint8
	a, b        int // merge: absorbed root, surviving root
	prevSize    int
	prevUsesLen int
	prevConst   string
	movedUses   []int
	sigKey      string
}

const (
	recMerge uint8 = iota
	recSig
	recDiseq
)

// eufMark is a point the engine can roll back to with undo.
type eufMark struct {
	trailLen int
	conflict bool
}

// mark snapshots the assertion state and starts recording mutations.
func (e *euf) mark() eufMark {
	m := eufMark{trailLen: len(e.trail), conflict: e.conflict}
	e.recording = true
	return m
}

// undo rolls the engine back to m, reversing recorded mutations newest
// first, and stops recording.
func (e *euf) undo(m eufMark) {
	for i := len(e.trail) - 1; i >= m.trailLen; i-- {
		r := e.trail[i]
		switch r.kind {
		case recMerge:
			e.parent[r.a] = r.a
			e.size[r.b] = r.prevSize
			e.constVal[r.b] = r.prevConst
			e.uses[r.b] = e.uses[r.b][:r.prevUsesLen]
			e.uses[r.a] = r.movedUses
		case recSig:
			delete(e.sigs, r.sigKey)
		case recDiseq:
			e.diseqs = e.diseqs[:len(e.diseqs)-1]
		}
	}
	e.trail = e.trail[:m.trailLen]
	e.conflict = m.conflict
	e.recording = false
}

func newEUF() *euf {
	return &euf{ids: make(map[uint32]int), sigs: make(map[string]int)}
}

// funcSymbol maps a term's head to an uninterpreted function symbol, or ""
// for leaves.
func funcSymbol(t *fol.Term) string {
	switch t.Kind {
	case fol.KApp:
		return "@" + t.Name
	case fol.KAdd:
		return "+"
	case fol.KMul:
		return "*"
	case fol.KNeg:
		return "neg"
	case fol.KDiv:
		return "/"
	}
	return ""
}

// constTag returns the interpretation tag for constant terms.
func constTag(t *fol.Term) string {
	switch t.Kind {
	case fol.KNum:
		return "n:" + t.Rat.RatString()
	case fol.KTrue:
		return "b:true"
	case fol.KFalse:
		return "b:false"
	}
	return ""
}

// node registers t (and its subterms) and returns its node id.
func (e *euf) node(t *fol.Term) int {
	if id, ok := e.ids[t.ID()]; ok {
		return id
	}
	sym := funcSymbol(t)
	var args []int
	if sym != "" {
		args = make([]int, len(t.Args))
		for i, a := range t.Args {
			args[i] = e.node(a)
		}
	}
	id := len(e.terms)
	e.ids[t.ID()] = id
	e.terms = append(e.terms, t)
	e.parent = append(e.parent, id)
	e.size = append(e.size, 1)
	e.constVal = append(e.constVal, constTag(t))
	e.uses = append(e.uses, nil)
	e.appArgs = append(e.appArgs, args)
	e.appSym = append(e.appSym, sym)
	if sym != "" {
		for _, a := range args {
			r := e.find(a)
			e.uses[r] = append(e.uses[r], id)
		}
		e.insertSig(id)
	}
	return id
}

// find walks to the class root without path compression: compressed parent
// pointers could bypass an undone merge, so trail-based undo requires the
// parent forest to change only through recorded merges. Union by size keeps
// the walk logarithmic.
func (e *euf) find(a int) int {
	for e.parent[a] != a {
		a = e.parent[a]
	}
	return a
}

func (e *euf) signature(app int) string {
	sym := e.appSym[app]
	roots := make([]int, len(e.appArgs[app]))
	for i, a := range e.appArgs[app] {
		roots[i] = e.find(a)
	}
	if sym == "+" || sym == "*" {
		// Commutative heads get order-insensitive signatures, so x*y and
		// y*x are congruent regardless of canonical argument order.
		sort.Ints(roots)
	}
	buf := make([]byte, 0, len(sym)+8*len(roots))
	buf = append(buf, sym...)
	for _, r := range roots {
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(r), 10)
	}
	return string(buf)
}

// insertSig records app's current signature; if another application already
// has the same signature, the two are congruent and their classes merge.
func (e *euf) insertSig(app int) {
	s := e.signature(app)
	if other, ok := e.sigs[s]; ok {
		e.mergeNodes(app, other)
		return
	}
	if e.recording {
		e.trail = append(e.trail, eufRec{kind: recSig, sigKey: s})
	}
	e.sigs[s] = app
}

// assertEq merges the classes of t1 and t2.
func (e *euf) assertEq(t1, t2 *fol.Term) {
	if e.conflict {
		return
	}
	e.mergeNodes(e.node(t1), e.node(t2))
	e.checkDiseqs()
}

// assertDiseq records that t1 and t2 are distinct.
func (e *euf) assertDiseq(t1, t2 *fol.Term) {
	if e.conflict {
		return
	}
	a, b := e.node(t1), e.node(t2)
	if e.recording {
		e.trail = append(e.trail, eufRec{kind: recDiseq})
	}
	e.diseqs = append(e.diseqs, [2]int{a, b})
	e.checkDiseqs()
}

func (e *euf) mergeNodes(a, b int) {
	if e.conflict {
		return
	}
	ra, rb := e.find(a), e.find(b)
	if ra == rb {
		return
	}
	if e.size[ra] > e.size[rb] {
		ra, rb = rb, ra
	}
	// ra merges into rb.
	ca, cb := e.constVal[ra], e.constVal[rb]
	if ca != "" && cb != "" && ca != cb {
		e.conflict = true
		return
	}
	moved := e.uses[ra]
	if e.recording {
		e.trail = append(e.trail, eufRec{
			kind:        recMerge,
			a:           ra,
			b:           rb,
			prevSize:    e.size[rb],
			prevUsesLen: len(e.uses[rb]),
			prevConst:   cb,
			movedUses:   moved,
		})
	}
	e.parent[ra] = rb
	e.size[rb] += e.size[ra]
	if cb == "" {
		e.constVal[rb] = ca
	}
	// Congruence: re-signature every application using the absorbed class.
	e.uses[ra] = nil
	e.uses[rb] = append(e.uses[rb], moved...)
	for _, app := range moved {
		e.insertSig(app)
		if e.conflict {
			return
		}
	}
}

func (e *euf) checkDiseqs() {
	if e.conflict {
		return
	}
	for _, d := range e.diseqs {
		if e.find(d[0]) == e.find(d[1]) {
			e.conflict = true
			return
		}
	}
}

// equal reports whether the two terms are currently in the same class (both
// must have been registered already for a meaningful answer).
func (e *euf) equal(t1, t2 *fol.Term) bool {
	a, ok1 := e.lookup(t1)
	b, ok2 := e.lookup(t2)
	return ok1 && ok2 && e.find(a) == e.find(b)
}

// lookup returns the node id for t without registering it.
func (e *euf) lookup(t *fol.Term) (int, bool) {
	id, ok := e.ids[t.ID()]
	return id, ok
}

// classes returns the node ids grouped by class root, deterministically
// ordered, for the theory-combination layer.
func (e *euf) classes() map[int][]int {
	out := make(map[int][]int)
	for id := range e.terms {
		r := e.find(id)
		out[r] = append(out[r], id)
	}
	for _, members := range out {
		sort.Ints(members)
	}
	return out
}

// argPairs returns candidate pairs of numeric argument nodes that, if made
// equal, could trigger new congruences: arguments in the same position of
// two applications with the same symbol, currently in different classes.
func (e *euf) argPairs() [][2]int {
	bySym := make(map[string][]int)
	for id, sym := range e.appSym {
		if sym != "" {
			bySym[sym] = append(bySym[sym], id)
		}
	}
	var out [][2]int
	seen := make(map[[2]int]bool)
	for _, apps := range bySym {
		for i := 0; i < len(apps); i++ {
			for j := i + 1; j < len(apps); j++ {
				a1, a2 := e.appArgs[apps[i]], e.appArgs[apps[j]]
				if len(a1) != len(a2) {
					continue
				}
				for k := range a1 {
					x, y := e.find(a1[k]), e.find(a2[k])
					if x == y {
						continue
					}
					if e.terms[a1[k]].Sort != fol.SortNum {
						continue
					}
					p := [2]int{a1[k], a2[k]}
					if p[0] > p[1] {
						p[0], p[1] = p[1], p[0]
					}
					if !seen[p] {
						seen[p] = true
						out = append(out, p)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// term returns the term for a node id.
func (e *euf) term(id int) *fol.Term { return e.terms[id] }

// hasApps reports whether any genuinely uninterpreted application is
// registered: a named function, a division, or a non-linear product.
// Arithmetic heads (+, negation, constant-scaled products) give congruences
// the simplex already subsumes.
func (e *euf) hasApps() bool {
	for id, sym := range e.appSym {
		if sym == "" {
			continue
		}
		t := e.terms[id]
		switch t.Kind {
		case fol.KApp, fol.KDiv:
			return true
		case fol.KMul:
			if t.Args[0].Kind != fol.KNum {
				return true
			}
		}
	}
	return false
}
