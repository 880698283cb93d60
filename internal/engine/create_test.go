package engine

import (
	"strings"
	"testing"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// The tests here pin how an object comes to be: its fields start as its
// class's declared defaults, which every object created without fields
// shares until its first write, and its record reaches its class through
// the class layout.

// TestNewObjectGetsDeclaredDefaults: a new object's fields are the
// schema's declared defaults, null where none is declared, and caller
// fields are merged over them.
func TestNewObjectGetsDeclaredDefaults(t *testing.T) {
	cls, impl := accountClass(&recorder{})
	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	var plain, given store.OID
	err := e.Transact(func(tx *Tx) (err error) {
		if plain, err = tx.NewObject("account", nil); err != nil {
			return err
		}
		given, err = tx.NewObject("account", map[string]value.Value{"owner": value.Str("ann")})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		oid          store.OID
		balance, own value.Value
	}{{plain, value.Int(0), value.Null()}, {given, value.Int(0), value.Str("ann")}} {
		rec, _ := e.st.Get(c.oid)
		if len(rec.Fields) != 2 || !field(rec, "balance").Equal(c.balance) || !field(rec, "owner").Equal(c.own) {
			t.Errorf("object %d fields %v, want balance %v owner %v", c.oid, rec.Fields, c.balance, c.own)
		}
	}
}

// TestNewObjectSharesClassDefaults: objects created without fields share
// their class's default map, so a write to one of them must reach
// neither a sibling created in the same transaction nor any object
// created later — whether the writing transaction commits, aborts, or
// writes in an outcome phase that rolls back alone, and whether the
// object was created with caller fields or without.
func TestNewObjectSharesClassDefaults(t *testing.T) {
	cls, impl := accountClass(&recorder{}, schema.Trigger{Name: "Scribble", Perpetual: true, Event: "after tcommit"})
	scribbled := 0
	impl.Actions["Scribble"] = func(ctx *ActionCtx) error {
		scribbled++
		if err := ctx.Tx.Set(ctx.Self, "owner", value.Str("scribbled")); err != nil {
			return err
		}
		return ErrTabort
	}
	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	get := func(oid store.OID) (balance, owner value.Value) {
		t.Helper()
		r, err := e.st.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		return field(r, "balance"), field(r, "owner")
	}
	// fresh asserts that an object created now, without fields, carries
	// the declared defaults.
	fresh := func(when string) {
		t.Helper()
		var oid store.OID
		if err := e.Transact(func(tx *Tx) (err error) { oid, err = tx.NewObject("account", nil); return err }); err != nil {
			t.Fatal(err)
		}
		if b, o := get(oid); !b.Equal(value.Int(0)) || !o.IsNull() {
			t.Fatalf("%s: a new object has balance %v owner %v, want the defaults 0 and null", when, b, o)
		}
	}
	want := func(when string, oid store.OID, balance int64, owner value.Value) {
		t.Helper()
		if b, o := get(oid); !b.Equal(value.Int(balance)) || !o.Equal(owner) {
			t.Fatalf("%s: object %d has balance %v owner %v, want %d %v", when, oid, b, o, balance, owner)
		}
	}

	// Commit: two siblings, one written.
	var a, b store.OID
	err := e.Transact(func(tx *Tx) (err error) {
		if a, err = tx.NewObject("account", nil); err != nil {
			return err
		}
		if b, err = tx.NewObject("account", nil); err != nil {
			return err
		}
		return tx.Set(a, "balance", value.Int(5))
	})
	if err != nil {
		t.Fatal(err)
	}
	want("commit", a, 5, value.Null())
	want("commit", b, 0, value.Null())
	fresh("after commit")

	// Abort: a new object and b, still sharing the defaults, written.
	tx := e.Begin()
	c, err := tx.NewObject("account", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range []store.OID{c, b} {
		if err := tx.Set(oid, "balance", value.Int(7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if e.st.Exists(c) {
		t.Fatal("abort kept the object it created")
	}
	want("abort", b, 0, value.Null())
	fresh("after abort")

	// An outcome phase that rolls back alone: Scribble writes owner in
	// after tcommit and aborts the phase.
	var d, s store.OID
	err = e.Transact(func(tx *Tx) (err error) {
		if d, err = tx.NewObject("account", nil); err != nil {
			return err
		}
		if s, err = tx.NewObject("account", nil); err != nil {
			return err
		}
		return tx.Activate(d, "Scribble")
	})
	if err != nil {
		t.Fatal(err)
	}
	if scribbled != 1 {
		t.Fatalf("Scribble fired %d times, want 1", scribbled)
	}
	want("outcome rollback", d, 0, value.Null())
	want("outcome rollback", s, 0, value.Null())
	fresh("after an outcome rollback")

	// Caller fields: the merged map is the object's own.
	var f, g store.OID
	err = e.Transact(func(tx *Tx) (err error) {
		if f, err = tx.NewObject("account", map[string]value.Value{"balance": value.Int(3)}); err != nil {
			return err
		}
		if g, err = tx.NewObject("account", nil); err != nil {
			return err
		}
		return tx.Set(f, "owner", value.Str("fay"))
	})
	if err != nil {
		t.Fatal(err)
	}
	want("caller fields", f, 3, value.Str("fay"))
	want("caller fields", g, 0, value.Null())
	fresh("after caller fields")
}

// TestDuplicateRegistrationKeepsTheFirstClass: registering a class name
// twice fails, and the objects of the class keep resolving to the class
// registered first — through the layout (Call) as through the name
// (NewObject).
func TestDuplicateRegistrationKeepsTheFirstClass(t *testing.T) {
	cls, impl := accountClass(&recorder{})
	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	_, twice := accountClass(&recorder{})
	twice.Methods["deposit"] = func(ctx *MethodCtx) (value.Value, error) {
		return value.Null(), ctx.Set("balance", value.Int(-1))
	}
	if _, err := e.RegisterClass(cls, twice, nil); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("second registration: %v, want already registered", err)
	}
	var oid store.OID
	err := e.Transact(func(tx *Tx) (err error) {
		if oid, err = tx.NewObject("account", nil); err != nil {
			return err
		}
		_, err = tx.Call(oid, "deposit", value.Int(10))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := e.st.Get(oid); !field(r, "balance").Equal(value.Int(10)) {
		t.Fatalf("balance %v after deposit(10): the object reached the rejected class", field(r, "balance"))
	}
}

// TestUnregisteredLayoutHasNoClass: after a reopen, recovery has interned
// the class's layout but nobody registered the class, so reaching an
// object of it is an error naming the class, not a nil class.
func TestUnregisteredLayoutHasNoClass(t *testing.T) {
	dir := t.TempDir()
	cls, impl := accountClass(&recorder{})
	e := reopen(t, dir, cls, impl)
	var oid store.OID
	if err := e.Transact(func(tx *Tx) (err error) { oid, err = tx.NewObject("account", nil); return err }); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2 := newEngine(t, Options{Dir: dir})
	err := e2.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(1))
		return err
	})
	if err == nil || !strings.Contains(err.Error(), `unregistered class "account"`) {
		t.Fatalf("Call on an object of an unregistered class: %v", err)
	}
}

// TestRegistrationKeepsEarlierNames: each registration replaces the
// engine's name tables and keeps what was registered before it — a mask
// calls a function registered before its class and one registered after,
// and a class registered later leaves the earlier one resolvable.
func TestRegistrationKeepsEarlierNames(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec, schema.Trigger{Name: "Band", Perpetual: true, Event: "after deposit(n) && n > low() && n < high()"})
	e := newEngine(t, Options{})
	constant := func(v int64) MaskFunc { return func([]value.Value) (value.Value, error) { return value.Int(v), nil } }
	e.RegisterFunc("low", constant(10))
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	e.RegisterFunc("high", constant(100))
	other, otherImpl := accountClass(&recorder{})
	other.Name = "other"
	if _, err := e.RegisterClass(other, otherImpl, nil); err != nil {
		t.Fatal(err)
	}
	err := e.Transact(func(tx *Tx) error {
		oid, err := tx.NewObject("account", nil)
		if err != nil {
			return err
		}
		if err := tx.Activate(oid, "Band"); err != nil {
			return err
		}
		for _, n := range []int64{5, 50, 500} {
			if _, err := tx.Call(oid, "deposit", value.Int(n)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.list(); len(got) != 1 {
		t.Fatalf("Band fired %v, want once (for 50)", got)
	}
}
