package main

import (
	"fmt"

	"ode/internal/engine"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// Amount thresholds of the mask predicates. single_masked draws
// ordinary amounts from 1..1000 and plants rare amounts above rareOver,
// so its masks reject ≥ 99.9 % of evaluations; the durable workloads
// draw from 1..1000 against commonOver, so ≈ 10 % are accepted.
const (
	rareOver   = 1_000_000
	commonOver = 900
)

// Method indexes shared by the generator, the model and the class.
const (
	mDeposit = iota
	mWithdraw
)

var methodNames = [...]string{"deposit", "withdraw"}

// maskedTriggers is single_masked's trigger set: one trigger per event
// form of the paper's §3 (masked method event, relative, prior,
// sequence, choose, every, fa) plus one over transaction events, whose
// state is rolled back with the object (committed view, §6). Slot order
// is firing order at one history point, which model.go relies on.
func maskedTriggers() []schema.Trigger {
	dep := fmt.Sprintf("after deposit(n) && n > %d", rareOver)
	wdr := fmt.Sprintf("after withdraw(n) && n > %d", rareOver)
	return []schema.Trigger{
		{Name: "Big", Perpetual: true, Event: dep},
		{Name: "Rel", Perpetual: true, Event: "relative(" + dep + ", " + wdr + ")"},
		{Name: "Prior", Perpetual: true, Event: "prior(" + wdr + ", " + dep + ")"},
		{Name: "Seq", Perpetual: true, Event: fmt.Sprintf("before withdraw(n) && n > %d; after withdraw", rareOver)},
		{Name: "Choose3", Perpetual: true, Event: "choose 3 (" + dep + ")"},
		{Name: "Every5", Perpetual: true, Event: "every 5 (" + wdr + ")"},
		{Name: "Fa", Perpetual: true, Event: "fa(" + dep + ", " + wdr + ", after tcommit)"},
		{Name: "TxFirst", Perpetual: true, Event: "fa(after tbegin, " + dep + ", after tcommit)", View: schema.CommittedView},
	}
}

// durableTriggers is the trigger set of batch_durable and
// webhook_open: masks accept ≈ 10 % of the happenings they see.
func durableTriggers() []schema.Trigger {
	dep := fmt.Sprintf("after deposit(n) && n > %d", commonOver)
	wdr := fmt.Sprintf("after withdraw(n) && n > %d", commonOver)
	return []schema.Trigger{
		{Name: "Big", Perpetual: true, Event: dep},
		{Name: "Every5", Perpetual: true, Event: "every 5 (" + wdr + ")"},
		{Name: "Rel", Perpetual: true, Event: "relative(" + dep + ", " + wdr + ")"},
	}
}

// accountClass builds the account schema with the given triggers. Every
// trigger action reports (object, trigger slot) to fired — the
// harness's only view of what the program decided.
func accountClass(triggers []schema.Trigger, fired func(oid store.OID, slot int)) (*schema.Class, engine.ClassImpl) {
	cls := &schema.Class{
		Name:   "account",
		Fields: []schema.Field{{Name: "balance", Kind: value.KindInt, Default: value.Int(0)}},
		Methods: []schema.Method{
			{Name: "deposit", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "withdraw", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
		},
		Triggers: triggers,
	}
	impl := engine.ClassImpl{
		Methods: map[string]engine.MethodImpl{
			"deposit": func(ctx *engine.MethodCtx) (value.Value, error) {
				b, err := ctx.Get("balance")
				if err != nil {
					return value.Null(), err
				}
				return value.Null(), ctx.Set("balance", value.Int(b.AsInt()+ctx.Arg("n").AsInt()))
			},
			"withdraw": func(ctx *engine.MethodCtx) (value.Value, error) {
				b, err := ctx.Get("balance")
				if err != nil {
					return value.Null(), err
				}
				return value.Null(), ctx.Set("balance", value.Int(b.AsInt()-ctx.Arg("n").AsInt()))
			},
		},
		Actions: map[string]engine.ActionFunc{},
	}
	for slot, tr := range triggers {
		slot := slot
		impl.Actions[tr.Name] = func(ctx *engine.ActionCtx) error {
			fired(ctx.Self, slot)
			return nil
		}
	}
	return cls, impl
}

// Sensor trigger slots.
const (
	sHeartbeat = iota
	sCron
)

// sensorClass is timer_storm's fleet class: Heartbeat steps on every
// ten-minute tick and fires on a report that follows one; Cron fires on
// every tick.
func sensorClass(fired func(oid store.OID, slot int)) (*schema.Class, engine.ClassImpl) {
	cls := &schema.Class{
		Name:   "sensor",
		Fields: []schema.Field{{Name: "v", Kind: value.KindInt, Default: value.Int(0)}},
		Methods: []schema.Method{
			{Name: "report", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
		},
		Triggers: []schema.Trigger{
			{Name: "Heartbeat", Perpetual: true, Event: "relative(every time(M=10), after report)"},
			{Name: "Cron", Perpetual: true, Event: "every time(M=10)"},
		},
	}
	impl := engine.ClassImpl{
		Methods: map[string]engine.MethodImpl{
			"report": func(ctx *engine.MethodCtx) (value.Value, error) {
				return value.Null(), ctx.Set("v", ctx.Arg("n"))
			},
		},
		Actions: map[string]engine.ActionFunc{
			"Heartbeat": func(ctx *engine.ActionCtx) error { fired(ctx.Self, sHeartbeat); return nil },
			"Cron":      func(ctx *engine.ActionCtx) error { fired(ctx.Self, sCron); return nil },
		},
	}
	return cls, impl
}
