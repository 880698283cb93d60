// Package event defines the happening model shared by the event DSL
// resolver (internal/evlang) and the trigger runtime
// (internal/trigger): what concretely occurs at an object, and the
// finite kind space those happenings are drawn from.
//
// A "happening" is one posting to one object — one point of the
// object's event history. Basic-event patterns of the paper's §3.1
// (object state events, method execution events, time events,
// transaction events) classify happenings: "after access" selects
// every after-method happening, "after withdraw" selects only
// withdraw's. The §5 disjointness rewrite assigns each (kind, mask
// valuation) its own alphabet symbol, so patterns become unions of
// symbols.
package event

import (
	"fmt"
	"time"

	"ode/internal/value"
)

// Phase says whether the happening is posted immediately before or
// immediately after the thing it describes.
type Phase int

const (
	// Before the operation takes effect.
	Before Phase = iota
	// After the operation took effect.
	After
)

func (p Phase) String() string {
	if p == Before {
		return "before"
	}
	return "after"
}

// Class is the coarse classification of a happening.
type Class int

const (
	// KMethod is the execution of a public member function.
	KMethod Class = iota
	// KCreate is object creation (posted with phase After).
	KCreate
	// KDelete is object deletion (posted with phase Before).
	KDelete
	// KTbegin is transaction begin, posted to an object immediately
	// before the transaction first accesses it (phase After).
	KTbegin
	// KTcomplete is "transaction code complete, about to try to
	// commit" (phase Before). It may be posted repeatedly: the commit
	// fixpoint re-posts it until no trigger fires.
	KTcomplete
	// KTcommit is transaction commit (phase After, posted by the
	// committing transaction's outcome phase, a system transaction).
	KTcommit
	// KTabort is transaction abort (phase Before within the aborting
	// transaction, phase After from a system transaction).
	KTabort
	// KTimer is the firing of a time event (at / every / after a
	// TimeSpec). Timer kinds are distinguished by the canonical
	// rendering of their specification.
	KTimer
)

func (c Class) String() string {
	switch c {
	case KMethod:
		return "method"
	case KCreate:
		return "create"
	case KDelete:
		return "delete"
	case KTbegin:
		return "tbegin"
	case KTcomplete:
		return "tcomplete"
	case KTcommit:
		return "tcommit"
	case KTabort:
		return "tabort"
	case KTimer:
		return "timer"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Kind identifies one atomic happening kind. It is comparable and
// usable as a map key. Method is set only for KMethod; Timer is the
// canonical time-spec key, set only for KTimer.
type Kind struct {
	Phase  Phase
	Class  Class
	Method string
	Timer  string
}

// MethodKind returns the kind of a method-execution happening.
func MethodKind(phase Phase, method string) Kind {
	return Kind{Phase: phase, Class: KMethod, Method: method}
}

// TimerKind returns the kind of a time-event happening. Timer events
// have no before/after qualifier; they use phase After by convention.
func TimerKind(key string) Kind {
	return Kind{Phase: After, Class: KTimer, Timer: key}
}

func (k Kind) String() string {
	switch k.Class {
	case KMethod:
		return fmt.Sprintf("%s %s", k.Phase, k.Method)
	case KTimer:
		return fmt.Sprintf("timer %s", k.Timer)
	default:
		return fmt.Sprintf("%s %s", k.Phase, k.Class)
	}
}

// Happening is one concrete posting to one object: a point of the
// object's event history.
type Happening struct {
	Kind Kind
	// Params are the method's arguments in its declared order, coerced
	// to the declared kinds (nil for every other kind of happening).
	// Names are not carried: whoever needs one resolves it against the
	// method's declaration — compiled masks to an index once, at class
	// registration. The poster owns the slice and may reuse it once the
	// posting returns.
	Params []value.Value
	TxID   uint64    // posting transaction (0 for timers)
	At     time.Time // database time of the posting
}
