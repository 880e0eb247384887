package sim

import "fmt"

// label is the flyweight name of an event, counter or process: a plain
// string, or a format with up to two %d verbs and their operands, rendered
// only when a name is actually shown (deadlock reports, panics). A
// collective that names a counter per node per call ("treebc%d.sw%d") then
// formats nothing on the hot path. Operands are non-negative indices; a
// negative a or b marks the operand absent, like Pipe.nid.
type label struct {
	s    string
	a, b int32
}

// plainLabel is a name used as is.
func plainLabel(s string) label { return label{s: s, a: -1, b: -1} }

// formatLabel is a name rendered as fmt.Sprintf(format, ops...): at most
// two operands.
func formatLabel(format string, ops []int32) label {
	l := plainLabel(format)
	switch len(ops) {
	case 0:
	case 1:
		l.a = ops[0]
	case 2:
		l.a, l.b = ops[0], ops[1]
	default:
		panic("sim: a name takes at most two operands: " + format)
	}
	return l
}

// String renders the name.
func (l label) String() string {
	switch {
	case l.a < 0:
		return l.s
	case l.b < 0:
		return fmt.Sprintf(l.s, l.a)
	}
	return fmt.Sprintf(l.s, l.a, l.b)
}
