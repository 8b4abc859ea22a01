package fol

import (
	"strings"
)

// String renders t as an s-expression by walking the whole tree. The
// rendering is canonical: two terms render identically iff they are
// structurally equal. It always equals Key.
func (t *Term) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

// Key returns the canonical form of t (the String rendering). It is
// computed once, when the term is interned, and published with the node,
// so Key is a race-free field read however many goroutines share the term.
// Being interner-independent, it is the key of choice wherever a term must
// be identified across interners or processes (the durable store).
func (t *Term) Key() string { return t.key }

func (t *Term) write(b *strings.Builder) { t.write1(b, (*Term).write) }

// writeKey renders t through its published key; keying a new node is then
// one concatenation of its children's keys rather than a subtree walk.
func (t *Term) writeKey(b *strings.Builder) { b.WriteString(t.key) }

// write1 renders one node, recursing through rec so callers choose how
// children are rendered (full re-walk, or through their keys).
func (t *Term) write1(b *strings.Builder, rec func(*Term, *strings.Builder)) {
	switch t.Kind {
	case KVar:
		b.WriteString(t.Name)
	case KNum:
		b.WriteString(t.Rat.RatString())
	case KTrue:
		b.WriteString("true")
	case KFalse:
		b.WriteString("false")
	case KApp:
		b.WriteByte('(')
		b.WriteString("@" + t.Name)
		for _, a := range t.Args {
			b.WriteByte(' ')
			rec(a, b)
		}
		b.WriteByte(')')
	default:
		b.WriteByte('(')
		b.WriteString(t.Kind.String())
		for _, a := range t.Args {
			b.WriteByte(' ')
			rec(a, b)
		}
		b.WriteByte(')')
	}
}
