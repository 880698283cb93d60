package sim

import (
	"fmt"
	"math/rand"
)

// simMethod describes one method atom available to randomEventSpec.
type simMethod struct {
	Name string
	// IntParam, when non-empty, is an integer event parameter the
	// generator may constrain with a disjointness mask ("after m(x) &&
	// x > K").
	IntParam string
}

// simMaskBounds are the constants random masks compare against; a
// spread of magnitudes keeps both verdicts common under typical
// argument distributions.
var simMaskBounds = []int{10, 25, 50, 100, 200, 400}

// randomEventSpec returns a random event-specification string in the
// paper's §3 language over the given method atoms, suitable for
// schema.Trigger.Event. depth bounds combinator nesting. The
// generated specs deliberately avoid tcomplete/tabort atoms (a
// perpetual trigger on a bare "before tcomplete" defeats the §6 commit
// fixpoint; the simulation harness covers those kinds with its fixed
// trigger pool instead) and timer atoms (virtual-time specs are also
// exercised by the fixed pool). "after tcommit" is posted once per
// commit, in its outcome phase, so it cannot feed the fixpoint.
//
// Determinism: the output is a pure function of the rng stream, the
// method list and depth — the simulation harness relies on this to
// regenerate identical workloads from a seed.
func randomEventSpec(rng *rand.Rand, methods []simMethod, depth int) string {
	atom := func() string {
		switch rng.Intn(7) {
		case 0:
			return "after access"
		case 1:
			return "after tbegin"
		case 2:
			return "after tcommit"
		default:
			m := methods[rng.Intn(len(methods))]
			if m.IntParam != "" && rng.Intn(2) == 0 {
				bound := simMaskBounds[rng.Intn(len(simMaskBounds))]
				op := ">"
				if rng.Intn(3) == 0 {
					op = "<"
				}
				return fmt.Sprintf("after %s(%s) && %s %s %d", m.Name, m.IntParam, m.IntParam, op, bound)
			}
			return "after " + m.Name
		}
	}
	if depth <= 0 || rng.Intn(3) == 0 {
		return atom()
	}
	sub := func() string { return randomEventSpec(rng, methods, depth-1) }
	switch rng.Intn(11) {
	case 0:
		return fmt.Sprintf("(%s | %s)", sub(), sub())
	case 1:
		return fmt.Sprintf("(%s & %s)", sub(), sub())
	case 2:
		return fmt.Sprintf("!(%s)", sub())
	case 3:
		return fmt.Sprintf("relative(%s, %s)", sub(), sub())
	case 4:
		return fmt.Sprintf("prior(%s, %s)", sub(), sub())
	case 5:
		return fmt.Sprintf("sequence(%s, %s)", sub(), sub())
	case 6:
		return fmt.Sprintf("choose %d (%s)", 1+rng.Intn(4), sub())
	case 7:
		return fmt.Sprintf("every %d (%s)", 1+rng.Intn(4), sub())
	case 8:
		return fmt.Sprintf("fa(%s, %s, %s)", sub(), sub(), sub())
	case 9:
		return fmt.Sprintf("relative+(%s)", sub())
	default:
		return fmt.Sprintf("relative %d (%s)", 1+rng.Intn(3), sub())
	}
}
