package smt

// simplex is a general simplex solver for linear rational arithmetic in the
// style of Dutertre and de Moura ("A Fast Linear-Arithmetic Solver for
// DPLL(T)"): variables carry optional lower/upper delta-rational bounds, a
// tableau defines basic variables as linear combinations of non-basic ones,
// and check() pivots with Bland's rule until all bounds hold or a conflict
// row proves infeasibility.
//
// Usage is build-then-check: allocate variables, add rows, assert bounds,
// then call check. probeZero supports the theory-combination layer's
// implied-equality detection by re-checking strengthened copies.
//
// Everything is held by value in slices, and the pivot reuses row storage,
// so once the tableau's rows have grown to their working size a check with
// inline-sized numbers allocates nothing.
type simplex struct {
	n     int
	lower []bound
	upper []bound
	// rows[b] defines basic variable b over non-basic variables; nil for a
	// non-basic b.
	rows    [][]entry
	isBasic []bool
	beta    []delta
	inited  bool
	// conflictWhy holds the constraint tags explaining the most recent
	// infeasibility verdict (nil when unavailable).
	conflictWhy []int

	// Scratch reused across pivots and probes: the row a substitution
	// merges into, and probeZero's snapshots of bounds and assignment.
	buf                    []entry
	savedLower, savedUpper []bound
	savedBeta              []delta
}

// entry is one coefficient·variable term of a tableau row. A row lists its
// entries in increasing variable order, with no zero coefficient and no
// basic variable.
type entry struct {
	x int
	c rational
}

// bound is an optional bound on a variable.
type bound struct {
	val delta
	why int // originating constraint tag for conflict explanations (-1 unknown)
	set bool
}

func newSimplex() *simplex { return &simplex{} }

// reserve sizes a fresh simplex's per-variable slices for n variables, so
// allocating them appends without regrowing.
func (s *simplex) reserve(n int) {
	s.lower = make([]bound, 0, n)
	s.upper = make([]bound, 0, n)
	s.rows = make([][]entry, 0, n)
	s.isBasic = make([]bool, 0, n)
	s.beta = make([]delta, 0, n)
}

// newVar allocates a fresh variable and returns its index.
func (s *simplex) newVar() int {
	v := s.n
	s.n++
	s.lower = append(s.lower, bound{why: -1})
	s.upper = append(s.upper, bound{why: -1})
	s.rows = append(s.rows, nil)
	s.isBasic = append(s.isBasic, false)
	s.beta = append(s.beta, delta{})
	return v
}

// defineSlack allocates a slack variable defined as the given linear
// combination, in any order and possibly repeating a variable (repeats are
// summed). It may mention basic variables; they are expanded. The slack
// becomes basic.
func (s *simplex) defineSlack(coeffs []entry) int {
	v := s.newVar()
	row := make([]entry, 0, len(coeffs))
	for _, e := range coeffs {
		row = s.accumulate(row, e.x, e.c)
	}
	s.rows[v] = row
	s.isBasic[v] = true
	return v
}

// accumulate adds c*x into row, expanding x if it is basic.
func (s *simplex) accumulate(row []entry, x int, c rational) []entry {
	if s.isBasic[x] {
		for _, e := range s.rows[x] {
			row = s.accumulate(row, e.x, c.mul(e.c))
		}
		return row
	}
	i := 0
	for i < len(row) && row[i].x < x {
		i++
	}
	if i < len(row) && row[i].x == x {
		if sum := row[i].c.add(c); sum.sign() != 0 {
			row[i].c = sum
			return row
		}
		return append(row[:i], row[i+1:]...)
	}
	if c.sign() == 0 {
		return row
	}
	row = append(row, entry{})
	copy(row[i+1:], row[i:])
	row[i] = entry{x, c}
	return row
}

// find returns the position of x in row, or -1.
func find(row []entry, x int) int {
	for i, e := range row {
		if e.x >= x {
			if e.x == x {
				return i
			}
			break
		}
	}
	return -1
}

// assertLower tightens x's lower bound; it reports false on an immediate
// bound conflict (lower exceeds upper). why tags the originating
// constraint for conflict explanations.
func (s *simplex) assertLower(x int, b delta, why int) bool {
	if !s.lower[x].set || b.cmp(s.lower[x].val) > 0 {
		s.lower[x] = bound{val: b, why: why, set: true}
	}
	return !s.crossed(x)
}

// assertUpper tightens x's upper bound; it reports false on an immediate
// bound conflict.
func (s *simplex) assertUpper(x int, b delta, why int) bool {
	if !s.upper[x].set || b.cmp(s.upper[x].val) < 0 {
		s.upper[x] = bound{val: b, why: why, set: true}
	}
	return !s.crossed(x)
}

// crossed reports whether x's lower bound exceeds its upper bound, and if
// so records the pair as the conflict explanation.
func (s *simplex) crossed(x int) bool {
	lo, up := &s.lower[x], &s.upper[x]
	if lo.set && up.set && lo.val.cmp(up.val) > 0 {
		s.conflictWhy = []int{lo.why, up.why}
		return true
	}
	return false
}

// initAssign sets every non-basic variable to a value within its bounds and
// recomputes basic variables from the tableau.
func (s *simplex) initAssign() {
	for x := 0; x < s.n; x++ {
		switch {
		case s.isBasic[x]:
		case s.lower[x].set:
			s.beta[x] = s.lower[x].val
		case s.upper[x].set:
			s.beta[x] = s.upper[x].val
		default:
			s.beta[x] = delta{}
		}
	}
	for b := 0; b < s.n; b++ {
		if s.isBasic[b] {
			s.beta[b] = s.rowValue(s.rows[b])
		}
	}
	s.inited = true
}

func (s *simplex) rowValue(row []entry) delta {
	var v delta
	for _, e := range row {
		v = v.add(s.beta[e.x].scale(e.c))
	}
	return v
}

// check runs the simplex main loop. It returns true iff the asserted bounds
// are satisfiable.
func (s *simplex) check() bool {
	if !s.inited {
		s.initAssign()
	}
	// Quick bound-consistency scan (covers variables in no row).
	for x := 0; x < s.n; x++ {
		if s.crossed(x) {
			return false
		}
	}
	for {
		b := s.findViolating()
		if b == -1 {
			return true
		}
		row := s.rows[b]
		increase := s.lower[b].set && s.beta[b].cmp(s.lower[b].val) < 0
		j := s.findPivot(row, increase)
		if j == -1 {
			s.explainRow(b, row, increase)
			return false
		}
		if increase {
			s.pivotAndUpdate(b, j, s.lower[b].val)
		} else {
			s.pivotAndUpdate(b, j, s.upper[b].val)
		}
	}
}

// explainRow records the infeasibility explanation for a stuck row: the
// violated bound of the basic variable plus the blocking bound of every
// non-basic variable in its row (the standard Dutertre–de Moura
// explanation), in variable order. The explanation's order carries into
// core minimization and from there into blocking clauses and stored
// lemmas, which must not vary between runs.
func (s *simplex) explainRow(b int, row []entry, increase bool) {
	why := make([]int, 1, len(row)+1)
	if increase {
		why[0] = s.lower[b].why
	} else {
		why[0] = s.upper[b].why
	}
	for _, e := range row {
		if (e.c.sign() > 0) == increase {
			why = append(why, s.upper[e.x].why)
		} else {
			why = append(why, s.lower[e.x].why)
		}
	}
	s.conflictWhy = why
}

// findViolating returns the smallest-index basic variable outside its
// bounds, or -1 (Bland's rule, part one).
func (s *simplex) findViolating() int {
	for b := 0; b < s.n; b++ {
		if !s.isBasic[b] {
			continue
		}
		if s.lower[b].set && s.beta[b].cmp(s.lower[b].val) < 0 {
			return b
		}
		if s.upper[b].set && s.beta[b].cmp(s.upper[b].val) > 0 {
			return b
		}
	}
	return -1
}

// findPivot returns the smallest-index non-basic variable in row that can
// move in the direction needed to increase (or decrease) the basic variable,
// or -1 if the row proves infeasibility (Bland's rule, part two). Rows are
// in variable order, so the first usable entry is the smallest.
func (s *simplex) findPivot(row []entry, increase bool) int {
	for _, e := range row {
		if (e.c.sign() > 0) == increase {
			if !s.upper[e.x].set || s.beta[e.x].cmp(s.upper[e.x].val) < 0 {
				return e.x
			}
		} else if !s.lower[e.x].set || s.beta[e.x].cmp(s.lower[e.x].val) > 0 {
			return e.x
		}
	}
	return -1
}

// pivotAndUpdate moves basic variable b to value v by adjusting non-basic j,
// then swaps their roles in the tableau.
func (s *simplex) pivotAndUpdate(b, j int, v delta) {
	row := s.rows[b]
	theta := v.sub(s.beta[b]).scale(one.quo(row[find(row, j)].c))
	s.beta[b] = v
	s.beta[j] = s.beta[j].add(theta)
	for i := 0; i < s.n; i++ {
		if i == b || !s.isBasic[i] {
			continue
		}
		if k := find(s.rows[i], j); k >= 0 {
			s.beta[i] = s.beta[i].add(theta.scale(s.rows[i][k].c))
		}
	}
	s.pivot(b, j)
}

// pivot swaps basic b with non-basic j. Row b's storage becomes row j, and
// each substitution merges into the scratch row and hands the old storage
// back as scratch, so storage is allocated only while rows grow.
func (s *simplex) pivot(b, j int) {
	row := s.rows[b]
	p := find(row, j)
	inv := one.quo(row[p].c)
	// Solve row for j: j = inv·b − Σ_{k≠j} (c_k·inv)·x_k.
	for k := range row {
		if k != p {
			row[k].c = row[k].c.mul(inv).neg()
		}
	}
	row[p] = entry{b, inv}
	// Move b's entry to its place in variable order.
	for ; p > 0 && row[p-1].x > b; p-- {
		row[p-1], row[p] = row[p], row[p-1]
	}
	for ; p+1 < len(row) && row[p+1].x < b; p++ {
		row[p], row[p+1] = row[p+1], row[p]
	}
	s.rows[b] = nil
	s.rows[j] = row
	s.isBasic[b] = false
	s.isBasic[j] = true
	// Substitute j out of every other row.
	for i := 0; i < s.n; i++ {
		if i == j || !s.isBasic[i] {
			continue
		}
		if q := find(s.rows[i], j); q >= 0 {
			old := s.rows[i]
			s.rows[i] = s.substitute(old, q, row)
			s.buf = old[:0]
		}
	}
}

// substitute returns r with its entry at q, r[q].c·x_j, replaced by
// r[q].c·nr where nr is x_j's defining row. It merges into s.buf.
func (s *simplex) substitute(r []entry, q int, nr []entry) []entry {
	c := r[q].c
	out := s.buf[:0]
	a, k := 0, 0
	for a < len(r) || k < len(nr) {
		switch {
		case a == q:
			a++
		case k == len(nr) || a < len(r) && r[a].x < nr[k].x:
			out = append(out, r[a])
			a++
		case a == len(r) || nr[k].x < r[a].x:
			out = append(out, entry{nr[k].x, c.mul(nr[k].c)})
			k++
		default:
			if sum := r[a].c.add(c.mul(nr[k].c)); sum.sign() != 0 {
				out = append(out, entry{r[a].x, sum})
			}
			a++
			k++
		}
	}
	return out
}

// value returns the current assignment of x (valid after a successful
// check).
func (s *simplex) value(x int) delta { return s.beta[x] }

// probeZero reports whether Σ row + konst = 0 is entailed by the asserted
// constraints, established by checking that both a strictly negative and a
// strictly positive value are infeasible. row is in any order (as for
// defineSlack). It requires a prior successful check and restores all
// observable state (bounds, assignment, conflict explanation) before
// returning — the probe runs in place instead of on a deep clone. The
// tableau basis may end up pivoted differently, which is unobservable:
// feasibility and variable values are basis-independent, and the probe
// slack is pivoted back out before return.
func (s *simplex) probeZero(row []entry, konst rational) bool {
	savedWhy := s.conflictWhy
	d := s.defineSlack(row)
	s.beta[d] = s.rowValue(s.rows[d])
	s.savedLower = append(s.savedLower[:0], s.lower...)
	s.savedUpper = append(s.savedUpper[:0], s.upper...)
	s.savedBeta = append(s.savedBeta[:0], s.beta...)
	rhs := konst.neg() // Σ row ⋈ -konst
	entailed := true
	for _, dir := range [2]int64{-1, 1} {
		// The slack must be basic when its probe bound is asserted: check()
		// only repairs out-of-bounds basic variables, so a bound on a
		// non-basic d (pivoted out by the previous direction) would be
		// silently ignored.
		if !s.isBasic[d] {
			s.pivotIn(d)
		}
		ok := true
		if dir < 0 {
			ok = s.assertUpper(d, dStrict(rhs, -1), -1) // Σ row + konst < 0
		} else {
			ok = s.assertLower(d, dStrict(rhs, 1), -1) // Σ row + konst > 0
		}
		if ok && s.check() {
			entailed = false
		}
		copy(s.lower, s.savedLower)
		copy(s.upper, s.savedUpper)
		copy(s.beta, s.savedBeta)
		if !entailed {
			break
		}
	}
	s.popVar(d)
	s.conflictWhy = savedWhy
	return entailed
}

// pivotIn makes d basic again by pivoting it into the smallest-index row
// that mentions it. The tableau always has one: d is determined by the
// system it was defined into, and pivoting preserves the solution set.
func (s *simplex) pivotIn(d int) {
	for b := 0; b < s.n; b++ {
		if s.isBasic[b] && find(s.rows[b], d) >= 0 {
			s.pivot(b, d)
			return
		}
	}
	panic("simplex: pivotIn on a variable absent from the tableau")
}

// popVar removes the most recently allocated variable d from the tableau.
// If d became non-basic through pivoting, it is first pivoted back into the
// basis (substituting it out of every other row), then its defining row is
// dropped — a projection that leaves an equivalent system over the
// remaining variables.
func (s *simplex) popVar(d int) {
	if d != s.n-1 {
		panic("simplex: popVar on non-top variable")
	}
	if !s.isBasic[d] {
		s.pivotIn(d)
	}
	s.rows[d] = nil
	s.n--
	s.lower = s.lower[:s.n]
	s.upper = s.upper[:s.n]
	s.rows = s.rows[:s.n]
	s.isBasic = s.isBasic[:s.n]
	s.beta = s.beta[:s.n]
}
