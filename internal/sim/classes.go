package sim

import (
	"fmt"
	"sync"

	"ode/internal/engine"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// classDef is the static description of one simulated class: schema
// fields and methods, the fixed trigger pool, and the model-side
// effect of each method. The fixed pool deliberately spans the §3
// combinators the engine compiles — masks, sequence, relative, counting,
// fa-couplings over transaction events, activation parameters, tabort
// actions and virtual-time atoms — so every run exercises them; the
// generator adds random non-perpetual triggers on top (see gen.go for
// why random perpetual triggers are unsafe).
type classDef struct {
	name    string
	fields  []schema.Field
	methods []schema.Method
	// fixed triggers, of both history views (§6)
	triggers []schema.Trigger
	// apply mutates the model fields exactly as the engine method does.
	apply func(fields map[string]int64, method string, arg int64)
}

const (
	classAcct = 0
	classMtr  = 1

	// vetoUnder is the balance below which acct's Veto trigger aborts a
	// commit's outcome phase, vetoAOver the one above which VetoA aborts
	// an abort's.
	vetoUnder, vetoAOver = 900, 1100

	// panicArg and recurseArg are the deposits whose Boom and Again
	// actions abort their transaction: Boom panics, Again calls dep with
	// the same amount until the cascade bound stops it.
	panicArg, recurseArg = 13, 17
)

var classDefs = []classDef{
	{
		name: "acct",
		fields: []schema.Field{
			{Name: "bal", Kind: value.KindInt, Default: value.Int(1000)},
			{Name: "tc", Kind: value.KindInt, Default: value.Int(0)}, // WholeC's count
			{Name: "ta", Kind: value.KindInt, Default: value.Int(0)}, // WholeA's count
		},
		methods: []schema.Method{
			{Name: "dep", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "wdr", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "png", Mode: schema.ModeRead},
		},
		triggers: []schema.Trigger{
			{Name: "Masked", Perpetual: true, Event: "after wdr(n) && n > 50"},
			{Name: "Seq", Perpetual: true, Event: "after dep; after wdr"},
			{Name: "Rel", Perpetual: true, Event: "relative(after dep, after wdr(n) && n > 50)"},
			{Name: "Cnt", Perpetual: true, Event: "every 3 (after access)"},
			{Name: "Chz", Event: "choose 4 (after dep)"},
			{Name: "Neg", Perpetual: true, Event: "!(after png | after tbegin) & after access"},
			{Name: "FaW", Perpetual: true, Event: "fa(after tbegin, after wdr, after png)"},
			{Name: "Deep", Perpetual: true, Event: "fa(relative(after dep, after dep), before tcomplete, after tbegin)"},
			{Name: "Lim", Perpetual: true, Event: "after dep(n) && n > lim",
				Params: []schema.Param{{Name: "lim", Kind: value.KindInt}}},
			{Name: "AbortBig", Perpetual: true, Event: "after wdr(n) && n > 900"},
			{Name: "Timer", Perpetual: true, Event: "relative(at time(HR=12), after wdr)"},
			{Name: "Beat", Perpetual: true, Event: "every time(M=30)"},
			{Name: "Whole", Perpetual: true, Event: "relative(after tabort, after tbegin)", View: schema.WholeView},
			// The outcome phase: a committed-view and a whole-view observer
			// of after tcommit — WholeC's action counts its firings in tc,
			// a write the model sees only if the phase commits — and Veto,
			// whose action aborts the outcome of every transaction that
			// leaves bal below vetoUnder: the script steers it with the
			// amounts it moves.
			{Name: "FaC", Perpetual: true, Event: "fa(after dep, after tcommit, after tbegin)"},
			{Name: "WholeC", Perpetual: true, Event: "every 2 (after tcommit)", View: schema.WholeView},
			{Name: "Veto", Perpetual: true, Event: fmt.Sprintf("after tcommit && bal < %d", vetoUnder)},
			// The same for an abort's outcome phase, whole-view because a
			// committed-view trigger never sees a tabort (§6): WholeA counts
			// its firings in ta and VetoA aborts the phase of every abort
			// that leaves bal above vetoAOver.
			{Name: "WholeA", Perpetual: true, Event: "after tabort", View: schema.WholeView},
			{Name: "VetoA", Perpetual: true, Event: fmt.Sprintf("after tabort && bal > %d", vetoAOver), View: schema.WholeView},
			// User code that fails: a panicking action and a runaway
			// cascade, each steered by the amount deposited.
			{Name: "Boom", Perpetual: true, Event: fmt.Sprintf("after dep(n) && n == %d", panicArg)},
			{Name: "Again", Perpetual: true, Event: fmt.Sprintf("after dep(n) && n == %d", recurseArg)},
		},
		apply: func(f map[string]int64, method string, arg int64) {
			switch method {
			case "dep":
				f["bal"] += arg
			case "wdr":
				f["bal"] -= arg
			}
		},
	},
	{
		name: "mtr",
		fields: []schema.Field{
			{Name: "v", Kind: value.KindInt, Default: value.Int(0)},
			{Name: "sum", Kind: value.KindInt, Default: value.Int(0)},
		},
		methods: []schema.Method{
			{Name: "bump", Mode: schema.ModeUpdate},
			{Name: "scan", Mode: schema.ModeRead},
		},
		triggers: []schema.Trigger{
			{Name: "Tick", Perpetual: true, Event: "every 2 (after bump)"},
			{Name: "Pair", Perpetual: true, Event: "after bump; after scan"},
			{Name: "Prio", Perpetual: true, Event: "prior(after bump, after scan)"},
			{Name: "Poll", Perpetual: true, Event: "every time(HR=2)"},
			{Name: "Warm", Event: "after time(M=45)"},
		},
		apply: func(f map[string]int64, method string, arg int64) {
			if method == "bump" {
				f["v"]++
				f["sum"] += f["v"]
			}
		},
	},
}

// timerTrigNames lists, per class index, the fixed triggers whose
// event specs carry timer atoms — the set OpArmTimers (re)activates.
// Must stay in sync with classDefs: acct carries a calendar 'at' (via
// relative) and a periodic 'every'; mtr a coarser 'every' plus an
// 'after' one-shot, so scripts grow both cohorts and one-shots.
var timerTrigNames = [][]string{
	{"Timer", "Beat"},
	{"Poll", "Warm"},
}

// outcomeLog is what the harness saw of outcome phases since it was last
// taken, of commits and of aborts.
type outcomeLog struct {
	mu            sync.Mutex
	commit, abort phaseLog
}

// phaseLog is one kind of outcome phase's log: the objects its counting
// trigger (WholeC, WholeA) fired on, and whether its veto (Veto, VetoA)
// fired — which rolls the whole phase back, those firings' writes
// included.
type phaseLog struct {
	bumped []store.OID
	vetoed bool
}

// fired notes a firing an outcome phase's model effect depends on.
func (l *outcomeLog) fired(trigger string, self store.OID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch trigger {
	case "WholeC":
		l.commit.bumped = append(l.commit.bumped, self)
	case "Veto":
		l.commit.vetoed = true
	case "WholeA":
		l.abort.bumped = append(l.abort.bumped, self)
	case "VetoA":
		l.abort.vetoed = true
	}
}

// take returns what was noted and starts over.
func (l *outcomeLog) take() (commit, abort phaseLog) {
	l.mu.Lock()
	defer l.mu.Unlock()
	commit, abort = l.commit, l.abort
	l.commit, l.abort = phaseLog{}, phaseLog{}
	return commit, abort
}

// applyOutcome folds what a committed outcome phase did into its
// transaction's model state: field+1 (tc for a commit's phase, ta for an
// abort's) on every object its counting trigger fired on, unless vetoed.
// The phase posts only to the transaction's objects, so each is live in
// view among the first n slots.
func applyOutcome(view func(int) *objState, put func(int, *objState), n int, ph phaseLog, field string) {
	if ph.vetoed {
		return
	}
	for _, oid := range ph.bumped {
		for i := 0; i < n; i++ {
			if v := view(i); v != nil && v.alive && v.oid == oid {
				ns := v.clone()
				ns.fields[field]++
				put(i, ns)
				break
			}
		}
	}
}

// newFields returns the model's initial field values for a class,
// mirroring schema defaults.
func (cd *classDef) newFields() map[string]int64 {
	out := make(map[string]int64, len(cd.fields))
	for _, f := range cd.fields {
		out[f.Name] = f.Default.AsInt()
	}
	return out
}

func (cd *classDef) trigger(name string) *schema.Trigger {
	for i := range cd.triggers {
		if cd.triggers[i].Name == name {
			return &cd.triggers[i]
		}
	}
	return nil
}

// buildClass materializes a fresh schema.Class and impl for one
// incarnation of the engine. fire is the harness's firing recorder;
// the AbortBig, Veto and VetoA actions additionally raise tabort,
// exercising action-driven aborts of a transaction and of its outcome
// phases under the oracle, and Boom and Again abort theirs by a panic and
// by a cascade that does not end.
func buildClass(ci int, sc *Script, fire func(class, trigger string, ctx *engine.ActionCtx)) (*schema.Class, engine.ClassImpl) {
	cd := &classDefs[ci]
	cls := &schema.Class{Name: cd.name}
	cls.Fields = append(cls.Fields, cd.fields...)
	cls.Methods = append(cls.Methods, cd.methods...)
	cls.Triggers = append(cls.Triggers, cd.triggers...)
	if ci < len(sc.RandTriggers) {
		for _, rt := range sc.RandTriggers[ci] {
			cls.Triggers = append(cls.Triggers, schema.Trigger{Name: rt.Name, Event: rt.Event})
		}
	}

	impl := engine.ClassImpl{
		Methods: map[string]engine.MethodImpl{},
		Actions: map[string]engine.ActionFunc{},
	}
	switch ci {
	case classAcct:
		// Get can fail mid-method when an injected lock fault lands on
		// the access; every impl must surface that, not swallow it.
		impl.Methods["dep"] = func(ctx *engine.MethodCtx) (value.Value, error) {
			b, err := ctx.Get("bal")
			if err != nil {
				return value.Null(), err
			}
			return value.Null(), ctx.Set("bal", value.Int(b.AsInt()+ctx.Arg("n").AsInt()))
		}
		impl.Methods["wdr"] = func(ctx *engine.MethodCtx) (value.Value, error) {
			b, err := ctx.Get("bal")
			if err != nil {
				return value.Null(), err
			}
			return value.Null(), ctx.Set("bal", value.Int(b.AsInt()-ctx.Arg("n").AsInt()))
		}
		impl.Methods["png"] = func(ctx *engine.MethodCtx) (value.Value, error) {
			return ctx.Get("bal")
		}
	case classMtr:
		impl.Methods["bump"] = func(ctx *engine.MethodCtx) (value.Value, error) {
			v, err := ctx.Get("v")
			if err != nil {
				return value.Null(), err
			}
			if err := ctx.Set("v", value.Int(v.AsInt()+1)); err != nil {
				return value.Null(), err
			}
			s, err := ctx.Get("sum")
			if err != nil {
				return value.Null(), err
			}
			return value.Null(), ctx.Set("sum", value.Int(s.AsInt()+v.AsInt()+1))
		}
		impl.Methods["scan"] = func(ctx *engine.MethodCtx) (value.Value, error) {
			return ctx.Get("sum")
		}
	default:
		panic(fmt.Sprintf("sim: unknown class index %d", ci))
	}

	name := cd.name
	for _, tr := range cls.Triggers {
		trName := tr.Name
		switch trName {
		case "AbortBig", "Veto", "VetoA":
			impl.Actions[trName] = func(ctx *engine.ActionCtx) error {
				fire(name, trName, ctx)
				return ctx.Tabort()
			}
			continue
		case "WholeC", "WholeA":
			field := map[string]string{"WholeC": "tc", "WholeA": "ta"}[trName]
			impl.Actions[trName] = func(ctx *engine.ActionCtx) error {
				fire(name, trName, ctx)
				n, err := ctx.Tx.Get(ctx.Self, field)
				if err != nil {
					return err
				}
				return ctx.Tx.Set(ctx.Self, field, value.Int(n.AsInt()+1))
			}
			continue
		case "Boom":
			impl.Actions[trName] = func(ctx *engine.ActionCtx) error {
				fire(name, trName, ctx)
				panic("sim: Boom")
			}
			continue
		case "Again":
			impl.Actions[trName] = func(ctx *engine.ActionCtx) error {
				fire(name, trName, ctx)
				_, err := ctx.Tx.Call(ctx.Self, "dep", value.Int(recurseArg))
				return err
			}
			continue
		}
		impl.Actions[trName] = func(ctx *engine.ActionCtx) error {
			fire(name, trName, ctx)
			return nil
		}
	}
	return cls, impl
}
