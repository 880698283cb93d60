package algebra

// Eval computes the denotation E[H]: labels[p] reports whether the
// event occurs at history point p (0-based). This is a direct
// transcription of the paper's §4 semantics, kept deliberately naive:
// it re-derives everything from the history on each call and serves as
// the correctness oracle for the automaton compiler and as the
// "no automaton" baseline in the experiment harness.
//
// The cost is polynomial in len(h) but superlinear for nested suffix
// operators — which is exactly the overhead the paper's automaton
// compilation eliminates.
func Eval(e *Expr, h []int) []bool {
	labels := make([]bool, len(h))
	switch e.Op {
	case OpEmpty:
		// no points

	case OpAtom:
		for p, s := range h {
			labels[p] = s == e.Sym
		}

	case OpOr:
		a := Eval(e.Args[0], h)
		b := Eval(e.Args[1], h)
		for p := range labels {
			labels[p] = a[p] || b[p]
		}

	case OpAnd:
		a := Eval(e.Args[0], h)
		b := Eval(e.Args[1], h)
		for p := range labels {
			labels[p] = a[p] && b[p]
		}

	case OpNot:
		a := Eval(e.Args[0], h)
		for p := range labels {
			labels[p] = !a[p]
		}

	case OpRelative:
		// Delete an E-point and everything before it; F is evaluated in
		// each such truncated history and the results are unioned.
		a := Eval(e.Args[0], h)
		for q, ok := range a {
			if !ok {
				continue
			}
			sub := Eval(e.Args[1], h[q+1:])
			for p, ok2 := range sub {
				if ok2 {
					labels[q+1+p] = true
				}
			}
		}

	case OpPlus:
		// relative+(E): chains h1 < h2 < ... < hk with h1 an E-point of
		// H and each h(i+1) an E-point of the history truncated after
		// h(i). Dynamic program over chain ends.
		f := e.Args[0]
		base := Eval(f, h)
		for p, ok := range base {
			if ok {
				labels[p] = true
			}
		}
		for q := 0; q < len(h); q++ {
			if !labels[q] {
				continue
			}
			sub := Eval(f, h[q+1:])
			for p, ok := range sub {
				if ok {
					labels[q+1+p] = true
				}
			}
		}

	case OpPrior:
		// prior(E, F): an F-point strictly after the earliest E-point.
		a := Eval(e.Args[0], h)
		b := Eval(e.Args[1], h)
		first := -1
		for q, ok := range a {
			if ok {
				first = q
				break
			}
		}
		if first >= 0 {
			for p := first + 1; p < len(h); p++ {
				labels[p] = b[p]
			}
		}

	case OpSequence:
		// sequence(E, F): F occurs at the single point immediately
		// after an E-point — i.e. F must occur at a one-point history.
		a := Eval(e.Args[0], h)
		for q, ok := range a {
			if !ok || q+1 >= len(h) {
				continue
			}
			one := Eval(e.Args[1], h[q+1:q+2])
			if one[0] {
				labels[q+1] = true
			}
		}

	case OpChoose:
		a := Eval(e.Args[0], h)
		count := 0
		for p, ok := range a {
			if !ok {
				continue
			}
			count++
			if count == e.N {
				labels[p] = true
				break
			}
		}

	case OpEvery:
		a := Eval(e.Args[0], h)
		count := 0
		for p, ok := range a {
			if !ok {
				continue
			}
			count++
			if count%e.N == 0 {
				labels[p] = true
			}
		}

	case OpFa:
		// fa(E, F, G): for each E-point q, in the truncated history
		// after q find the first F-point; it fires unless some G-point
		// (also judged in the truncated history) strictly precedes it.
		eE, eF, eG := e.Args[0], e.Args[1], e.Args[2]
		a := Eval(eE, h)
		for q, ok := range a {
			if !ok {
				continue
			}
			suffix := h[q+1:]
			fl := Eval(eF, suffix)
			gl := Eval(eG, suffix)
			for p, fok := range fl {
				if gl[p] && !fok {
					break // G intervened strictly before the first F
				}
				if fok {
					labels[q+1+p] = true
					break // only the first F counts
				}
			}
		}

	case OpFaAbs:
		// faAbs(E, F, G): as fa, but G is judged against the whole
		// history; G-points strictly between q and the first F block.
		eE, eF, eG := e.Args[0], e.Args[1], e.Args[2]
		a := Eval(eE, h)
		gFull := Eval(eG, h)
		for q, ok := range a {
			if !ok {
				continue
			}
			suffix := h[q+1:]
			fl := Eval(eF, suffix)
			for p, fok := range fl {
				if gFull[q+1+p] && !fok {
					break
				}
				if fok {
					labels[q+1+p] = true
					break
				}
			}
		}

	default:
		panic("algebra: unknown op")
	}
	return labels
}

// FiringPoints returns, for each point p of h, whether the event has
// just occurred at p — i.e. Occurs(e, h[:p+1]) for every prefix, in a
// single Eval pass. The two coincide because the §4 semantics are
// causal: every operator labels point p from h[0..p] alone (suffix
// operators like relative and fa only ever truncate prefixes away),
// so evaluating the full history labels each point exactly as
// evaluating the prefix ending there would. TestPrefixStability pins
// the property; the trace checker (internal/oracle) relies on it to
// label a whole history in one pass instead of re-evaluating every
// prefix.
func FiringPoints(e *Expr, h []int) []bool { return Eval(e, h) }

// Occurs reports whether the event has just occurred at the end of the
// history — the rightmost history point is labeled (paper §4: "if the
// rightmost history symbol is labeled then the specified event has
// just occurred").
func Occurs(e *Expr, h []int) bool {
	if len(h) == 0 {
		return false
	}
	return Eval(e, h)[len(h)-1]
}

// NaiveDetector re-evaluates an expression from scratch as each event
// arrives — the baseline the paper's finite-automaton compilation is
// measured against. It has no state besides the accumulated history.
type NaiveDetector struct {
	expr *Expr
	hist []int
}

// NewNaiveDetector returns a detector for e with an empty history.
func NewNaiveDetector(e *Expr) *NaiveDetector {
	return &NaiveDetector{expr: e}
}

// Post appends a symbol to the history and reports whether the event
// occurs at this new point.
func (d *NaiveDetector) Post(sym int) bool {
	d.hist = append(d.hist, sym)
	return Occurs(d.expr, d.hist)
}

// HistoryLen returns the number of posted events.
func (d *NaiveDetector) HistoryLen() int { return len(d.hist) }

// Reset clears the accumulated history.
func (d *NaiveDetector) Reset() { d.hist = d.hist[:0] }
