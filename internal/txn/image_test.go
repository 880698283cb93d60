package txn

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ode/internal/store"
	"ode/internal/value"
)

// imageSetup commits one object with a field and an activation, then
// returns the manager and OID.
func imageSetup(t *testing.T) (*Manager, store.OID) {
	t.Helper()
	m := newManager(t)
	setup := m.Begin()
	rec, err := setup.Create("acct", map[string]value.Value{"balance": value.Int(100)})
	if err != nil {
		t.Fatal(err)
	}
	a := rec.Trigger("Watch")
	a.Active, a.State = true, 1
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	return m, rec.OID
}

func TestAbortRestoresActivationScalars(t *testing.T) {
	m, oid := imageSetup(t)
	tx := m.Begin()
	rec, first, err := tx.Access(oid)
	if err != nil || !first {
		t.Fatalf("Access: first=%v err=%v", first, err)
	}
	a := rec.Trigger("Watch")
	a.State = 7
	a.Active = false
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Store().Get(oid)
	ga := got.Trigger("Watch")
	if !ga.Active || ga.State != 1 {
		t.Fatalf("rollback left Active=%v State=%d", ga.Active, ga.State)
	}
}

func TestCommitPublishesSharedImage(t *testing.T) {
	m, oid := imageSetup(t)
	before, _ := m.Store().GetCommitted(oid)
	tx := m.Begin()
	rec, _, err := tx.Access(oid)
	if err != nil {
		t.Fatal(err)
	}
	rec.Trigger("Watch").State = 9
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after, ok := m.Store().GetCommitted(oid)
	if !ok || after == before {
		t.Fatalf("commit did not publish a fresh image")
	}
	if after.Trigger("Watch").State != 9 {
		t.Fatalf("published State = %d, want 9", after.Trigger("Watch").State)
	}
	if !field(after, "balance").Equal(value.Int(100)) {
		t.Fatalf("published balance %v", field(after, "balance"))
	}
	// Only the activation moved: the fields are the previous image's, so
	// a (forbidden) write through one image shows through the other.
	before.SetField("balance", value.Int(101))
	shared := field(after, "balance").Equal(value.Int(101))
	before.SetField("balance", value.Int(100))
	if !shared {
		t.Fatal("unchanged fields were copied, not shared with the previous image")
	}
}

// TestAbortAfterActivationThenFieldWrites: an activation step followed
// by field writes through a second Access rolls back as a whole — the
// before-image is the committed image, whatever was mutated first.
func TestAbortAfterActivationThenFieldWrites(t *testing.T) {
	m, oid := imageSetup(t)
	tx := m.Begin()
	rec, _, err := tx.Access(oid)
	if err != nil {
		t.Fatal(err)
	}
	rec.Trigger("Watch").State = 4
	rec2, _, err := tx.Access(oid)
	if err != nil {
		t.Fatal(err)
	}
	rec2.SetField("balance", value.Int(0))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Store().Get(oid)
	if !field(got, "balance").Equal(value.Int(100)) || got.Trigger("Watch").State != 1 {
		t.Fatalf("rollback left balance=%v State=%d", field(got, "balance"), got.Trigger("Watch").State)
	}
}

func TestDeleteAfterStepResurrectsOnAbort(t *testing.T) {
	m, oid := imageSetup(t)
	tx := m.Begin()
	rec, _, err := tx.Access(oid)
	if err != nil {
		t.Fatal(err)
	}
	rec.Trigger("Watch").State = 3
	if err := tx.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	got, err := m.Store().Get(oid)
	if err != nil {
		t.Fatalf("object not resurrected: %v", err)
	}
	if got.Trigger("Watch").State != 1 || !field(got, "balance").Equal(value.Int(100)) {
		t.Fatalf("resurrected State=%d balance=%v", got.Trigger("Watch").State, field(got, "balance"))
	}
}

// The differential image test: scripts of the mutations the engine
// performs on records (field Set, a Set of the value a field holds,
// automaton step, Activate, re-Activate, Deactivate, Delete, create, an
// outcome phase rolled back to its savepoint) run as transactions that
// commit or abort, in both concurrency modes, against a copy oracle
// (Store.Snapshot — what every access and every publication used to
// copy). Every image is fingerprinted when it is published and
// re-checked after every later transaction: a live record shares its
// Fields map with its image, and no write may ever reach the image.

type imgOp struct {
	kind string // set, same, step, activate, deactivate, delete, create, touch, outcome
	obj  int    // index into the script's live objects (modulo their count)
	arg  int
}

type imgTx struct {
	ops    []imgOp
	commit bool
}

// Trigger arg%3 is the op's target; the harness starts with "C"
// (arg 5: lim = 1) active on object 1. "B" is the slot the layout keeps
// across rollbacks (store.Layout.Keep).
var imgTriggers = [...]string{"A", "B", "C"}

const imgKept = "B"

// imgFields are the fields the harness's objects carry, in the order
// fingerprint renders them (the bare object has no owner).
var imgFields = [...]string{"balance", "owner"}

// fingerprint renders a record's content canonically: triggers by name,
// never-activated slots left out — so two records are content-equal
// exactly when their fingerprints are, however long their slot slices
// happen to be.
func fingerprint(r *store.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %s", r.OID, r.Class)
	for _, k := range imgFields {
		if v, ok := r.Field(k); ok {
			fmt.Fprintf(&b, " %s=%v", k, v)
		}
	}
	var trigs []string
	for i := range r.Trigs {
		if a := &r.Trigs[i]; !a.IsZero() {
			trigs = append(trigs, fmt.Sprintf(" %s{%v %d %v}", r.TrigName(i), a.Active, a.State, a.Params()))
		}
	}
	sort.Strings(trigs)
	b.WriteString(strings.Join(trigs, ""))
	return b.String()
}

// imgHarness runs imgTx scripts and checks the image life-cycle after
// every transaction.
type imgHarness struct {
	t    *testing.T
	m    *Manager
	live []store.OID
	// kept are the images published so far with their fingerprints at
	// publication: sharing must never let a later transaction reach them.
	kept map[*store.Record]string
}

func newImgHarness(t *testing.T, single bool) *imgHarness {
	h := &imgHarness{t: t, m: newManager(t), kept: map[*store.Record]string{}}
	h.m.SetSingleWriter(single)
	layout := h.m.Store().Layout("acct")
	layout.Keep(layout.Intern(imgKept))
	// Object 0 is created outside any transaction and has no committed
	// image until a transaction first commits a change to it.
	bare := h.m.Store().Create("acct", map[string]value.Value{"balance": value.Int(7)})
	bare.Trigger("A").Active = true
	bare.Trigger(imgKept).Active = true // what an abort keeps of it stays in the heap
	h.live = append(h.live, bare.OID)
	h.run(imgTx{commit: true, ops: []imgOp{{kind: "create"}, {kind: "create"}, {kind: "activate", obj: 1, arg: 5}}})
	return h
}

func (h *imgHarness) apply(tx *Tx, op imgOp, created *[]store.OID, deleted, touched map[store.OID]bool, recs map[store.OID]*store.Record) {
	t := h.t
	if op.kind == "create" {
		rec, err := tx.Create("acct", map[string]value.Value{"balance": value.Int(int64(op.arg)), "owner": value.Str("o")})
		if err != nil {
			t.Fatal(err)
		}
		*created = append(*created, rec.OID)
		return
	}
	pool := append(append([]store.OID(nil), h.live...), *created...)
	if len(pool) == 0 {
		return
	}
	oid := pool[op.obj%len(pool)]
	if deleted[oid] {
		return
	}
	touched[oid] = true
	rec, _, err := tx.Access(oid)
	if err != nil {
		t.Fatal(err)
	}
	recs[oid] = rec
	if op.kind == "delete" {
		if err := tx.Delete(oid); err != nil {
			t.Fatal(err)
		}
		deleted[oid] = true
		return
	}
	name := imgTriggers[op.arg%len(imgTriggers)]
	switch op.kind {
	case "touch":
	case "set":
		rec.SetField("balance", value.Int(int64(op.arg%4))) // small range: writes often restore the old value
	case "same": // writes nothing: the map a record shares with its image stays shared
		if v, ok := rec.Field("balance"); ok {
			rec.SetField("balance", v)
		}
	case "step":
		if a := rec.Trigger(name); a.Active {
			a.State = int32(op.arg % 3)
		}
	case "activate": // also re-activation: a fresh Params slice, state reset
		a := rec.Trigger(name)
		*a = store.TrigState{Active: true}
		a.SetParams([]value.Value{value.Int(int64(op.arg % 2))})
	case "reactivate": // the same parameters in a fresh slice: a change only if the state moved
		if a := rec.Trigger(name); a.Active {
			p := append([]value.Value(nil), a.Params()...)
			*a = store.TrigState{Active: true}
			a.SetParams(p)
		}
	case "grow": // a trigger name the class layout has not seen: every record is now shorter than it
		*rec.Trigger(fmt.Sprintf("N%d", op.arg%4)) = store.TrigState{Active: true, State: int32(op.arg % 3)}
	case "deactivate":
		rec.Trigger(name).Active = false
	default:
		t.Fatalf("unknown op %q", op.kind)
	}
}

// outcome runs an outcome phase on tx, sealed at once, whose ops write a
// field, write the value a field holds and step a trigger the layout
// does not keep, on two objects, then delete an object and create one;
// it rolls the phase back: every object must be as it stood at the
// savepoint, and the phase's first accesses, deletions and creations
// are forgotten.
func (h *imgHarness) outcome(tx *Tx, op imgOp, created *[]store.OID, deleted, touched map[store.OID]bool, recs map[store.OID]*store.Record) {
	t, st := h.t, h.m.Store()
	at := map[store.OID]string{}
	for _, oid := range append(append([]store.OID(nil), h.live...), *created...) {
		if rec, err := st.Get(oid); err == nil {
			at[oid] = fingerprint(rec)
		}
	}
	nCreated, wasDeleted, wasTouched := len(*created), maps.Clone(deleted), maps.Clone(touched)
	if err := tx.BeginOutcome(); err != nil {
		t.Fatal(err)
	}
	tx.Seal()
	for i, kind := range []string{"set", "same", "step", "set", "step", "delete", "create"} {
		arg := 3*(op.arg+i) + 2*(i%2) // triggers A and C, never the kept B
		h.apply(tx, imgOp{kind: kind, obj: op.obj + i/3, arg: arg}, created, deleted, touched, recs)
	}
	tx.Rollback()
	*created = (*created)[:nCreated]
	maps.DeleteFunc(deleted, func(oid store.OID, _ bool) bool { return !wasDeleted[oid] })
	maps.DeleteFunc(touched, func(oid store.OID, _ bool) bool { return !wasTouched[oid] })
	for oid, want := range at {
		rec, err := st.Get(oid)
		if err != nil {
			t.Fatalf("object %d gone after the outcome rollback: %v", oid, err)
		}
		if got := fingerprint(rec); got != want {
			t.Fatalf("object %d after the outcome rollback:\n got %s\nwant %s", oid, got, want)
		}
	}
}

// rolledBack is the oracle of an abort: before, the copy of the
// object taken before the transaction, with State of the kept
// slot taken from rec, the record the transaction worked on (nil if it
// never accessed the object), if the slot is active in both. It reports
// whether that changed before.
func rolledBack(before, rec *store.Record) (*store.Record, bool) {
	if rec == nil {
		return before, false
	}
	to, from := before.Trigger(imgKept), rec.Trigger(imgKept)
	if !to.Active || !from.Active || to.State == from.State {
		return before, false
	}
	to.State = from.State
	return before, true
}

// deepClone is the oracle: Store.Snapshot of the live record, a copy
// with its own trigger slots whose Fields map nothing writes.
func (h *imgHarness) deepClone(id store.OID) *store.Record {
	r, err := h.m.Store().Snapshot(id)
	if err != nil {
		h.t.Fatal(err)
	}
	return r
}

// run runs one transaction, checks it, fingerprints the images it
// published and re-checks every image published so far.
func (h *imgHarness) run(x imgTx) {
	h.t.Helper()
	h.runTx(x)
	for _, oid := range h.live {
		if img, ok := h.m.Store().GetCommitted(oid); ok {
			if _, seen := h.kept[img]; !seen {
				h.kept[img] = fingerprint(img)
			}
		}
	}
	h.recheck()
}

func (h *imgHarness) runTx(x imgTx) {
	t, st := h.t, h.m.Store()
	t.Helper()
	before := map[store.OID]*store.Record{} // copies
	prevImg := map[store.OID]*store.Record{}
	for _, oid := range h.live {
		before[oid] = h.deepClone(oid)
		if img, ok := st.GetCommitted(oid); ok {
			prevImg[oid] = img
		}
	}
	epoch := st.Epoch()

	tx := h.m.Begin()
	var created []store.OID
	deleted, touched := map[store.OID]bool{}, map[store.OID]bool{}
	recs := map[store.OID]*store.Record{}
	for _, op := range x.ops {
		if op.kind == "outcome" {
			h.outcome(tx, op, &created, deleted, touched, recs)
			continue
		}
		h.apply(tx, op, &created, deleted, touched, recs)
	}

	if !x.commit {
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		published := false
		for _, oid := range h.live {
			got, err := st.Get(oid)
			if err != nil {
				t.Fatalf("object %d gone after abort: %v", oid, err)
			}
			want, kept := rolledBack(before[oid], recs[oid])
			if fingerprint(got) != fingerprint(want) {
				t.Fatalf("object %d after abort:\n got %s\nwant %s", oid, fingerprint(got), fingerprint(want))
			}
			// What the abort kept is committed like any change, unless
			// the object has no image to fall out of step with.
			img, _ := st.GetCommitted(oid)
			if kept = kept && prevImg[oid] != nil; !kept && img != prevImg[oid] {
				t.Fatalf("abort replaced object %d's committed image", oid)
			}
			if kept && (img == prevImg[oid] || fingerprint(img) != fingerprint(got)) {
				t.Fatalf("object %d: the abort kept state it did not publish:\n  img %s\n live %s", oid, fingerprint(img), fingerprint(got))
			}
			published = published || kept
		}
		for _, oid := range created {
			if st.Exists(oid) {
				t.Fatalf("aborted creation %d still exists", oid)
			}
		}
		if want := epoch + map[bool]uint64{true: 1}[published]; st.Epoch() != want {
			t.Fatalf("abort moved the epoch %d → %d, want %d", epoch, st.Epoch(), want)
		}
		return
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	changed := false
	var next []store.OID
	for _, oid := range append(h.live, created...) {
		img, ok := st.GetCommitted(oid)
		if deleted[oid] {
			if ok || st.Exists(oid) {
				t.Fatalf("deleted object %d still visible", oid)
			}
			changed = changed || prevImg[oid] != nil
			continue
		}
		next = append(next, oid)
		got, _ := st.Get(oid)
		switch b := before[oid]; {
		case prevImg[oid] == nil && !touched[oid] && b != nil:
			if ok {
				t.Fatalf("untouched never-committed object %d was published", oid)
			}
			continue
		case prevImg[oid] != nil && fingerprint(got) == fingerprint(b):
			// Untouched, or touched and left content-equal: not dirty.
			if img != prevImg[oid] {
				t.Fatalf("unchanged object %d was republished", oid)
			}
		default:
			changed = true
		}
		if !ok {
			t.Fatalf("committed object %d has no image", oid)
		}
		clone := h.deepClone(oid) // what a full clone would have published
		if fingerprint(img) != fingerprint(got) || fingerprint(img) != fingerprint(clone) {
			t.Fatalf("object %d image diverges:\n  img %s\n live %s\nclone %s", oid, fingerprint(img), fingerprint(got), fingerprint(clone))
		}
	}
	h.live = next
	want := epoch
	if changed {
		want++
	}
	if st.Epoch() != want {
		t.Fatalf("epoch %d → %d, want %d (changed=%v)", epoch, st.Epoch(), want, changed)
	}
}

// recheck proves no image published earlier was ever written again.
func (h *imgHarness) recheck() {
	for img, fp := range h.kept {
		if got := fingerprint(img); got != fp {
			h.t.Fatalf("image of object %d mutated after publication:\n was %s\n now %s", img.OID, fp, got)
		}
	}
}

// TestKeptStateIsPublishedUnderTheLock: what an abort keeps is committed
// before the aborting transaction's locks are released, so a transaction
// queued on the object never sees the plain before-image.
func TestKeptStateIsPublishedUnderTheLock(t *testing.T) {
	m, oid := imageSetup(t)
	layout := m.Store().Layout("acct")
	layout.Keep(layout.Intern("Watch"))

	t1 := m.Begin()
	rec, _, err := t1.Access(oid)
	if err != nil {
		t.Fatal(err)
	}
	rec.Trigger("Watch").State = 7
	rec.SetField("balance", value.Int(0))

	seen := make(chan int32, 1)
	go func() {
		t2 := m.Begin()
		defer t2.Abort()
		rec, _, err := t2.Access(oid) // queues behind t1
		if err != nil {
			t.Error(err)
			seen <- -1
			return
		}
		seen <- rec.Trigger("Watch").State
	}()
	waitFor(m, 1)
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != 7 {
		t.Fatalf("the queued transaction saw State %d, want the kept 7", got)
	}
	img, _ := m.Store().GetCommitted(oid)
	if img.Trig(layout.Intern("Watch")).State != 7 || !field(img, "balance").Equal(value.Int(100)) {
		t.Fatalf("committed image after the abort: %s", fingerprint(img))
	}
}

func TestImageDifferential(t *testing.T) {
	table := map[string][]imgTx{
		"activation-only change aborts": {
			{ops: []imgOp{{kind: "step", obj: 1, arg: 8}}},
		},
		"step then field write aborts": {
			{ops: []imgOp{{kind: "step", obj: 1, arg: 5}, {kind: "set", obj: 1, arg: 3}}},
		},
		"read-only commit publishes nothing": {
			{commit: true, ops: []imgOp{{kind: "touch", obj: 1}, {kind: "touch", obj: 2}}},
		},
		"write that restores the old value is not dirty": {
			{commit: true, ops: []imgOp{{kind: "set", obj: 1, arg: 2}}},
			{commit: true, ops: []imgOp{{kind: "set", obj: 1, arg: 3}, {kind: "set", obj: 1, arg: 2}}},
		},
		"a write of the value a field holds writes nothing": {
			{commit: true, ops: []imgOp{{kind: "same", obj: 1}}},
			{commit: true, ops: []imgOp{{kind: "set", obj: 1, arg: 1}, {kind: "same", obj: 1}}},
			{ops: []imgOp{{kind: "same", obj: 2}, {kind: "set", obj: 2, arg: 3}}},
		},
		"outcome phase rolled back to its savepoint": {
			// The transaction's own write comes first: the savepoint's copy
			// shares the written map, which is not the committed image's.
			{commit: true, ops: []imgOp{{kind: "set", obj: 1, arg: 3}, {kind: "outcome", obj: 1, arg: 2}}},
			{ops: []imgOp{{kind: "set", obj: 2, arg: 1}, {kind: "outcome", obj: 2, arg: 2}, {kind: "step", obj: 1, arg: 5}}},
			{commit: true, ops: []imgOp{{kind: "outcome", obj: 0, arg: 1}}}, // the bare object first accessed in the phase
			{commit: true, ops: []imgOp{{kind: "create", arg: 2}, {kind: "outcome", obj: 3, arg: 4}, {kind: "set", obj: 3, arg: 1}}},
		},
		"re-activation with equal parameters but a new history": {
			// Same State, equal Params: the two incarnations' records
			// are equal, so the second commit changes nothing.
			{commit: true, ops: []imgOp{{kind: "step", obj: 1, arg: 8}}},
			{commit: true, ops: []imgOp{{kind: "activate", obj: 1, arg: 5}, {kind: "step", obj: 1, arg: 2}}},
		},
		"re-activation with the same parameters in a fresh slice is not dirty": {
			{commit: true, ops: []imgOp{{kind: "reactivate", obj: 1, arg: 5}}},
			{commit: true, ops: []imgOp{{kind: "step", obj: 1, arg: 5}, {kind: "reactivate", obj: 1, arg: 5}}},
		},
		"layout grows mid-script": {
			// Object 1's record outgrows its image, object 2's image and
			// record stay shorter than the layout; an aborted growth
			// leaves the slot never-activated.
			{commit: true, ops: []imgOp{{kind: "grow", obj: 1, arg: 1}}},
			{ops: []imgOp{{kind: "grow", obj: 2, arg: 2}, {kind: "step", obj: 1, arg: 5}}},
			{commit: true, ops: []imgOp{{kind: "touch", obj: 2}, {kind: "set", obj: 2, arg: 1}}},
			{commit: true, ops: []imgOp{{kind: "grow", obj: 2, arg: 3}, {kind: "activate", obj: 2, arg: 4}}},
		},
		"bare object: abort before its first commit, then commit": {
			{ops: []imgOp{{kind: "set", obj: 0, arg: 1}, {kind: "activate", obj: 0, arg: 1}}},
			{commit: true, ops: []imgOp{{kind: "touch", obj: 0}}},
			{commit: true, ops: []imgOp{{kind: "deactivate", obj: 0, arg: 0}}},
			{ops: []imgOp{{kind: "delete", obj: 0}}},
		},
		"kept slot: state and history survive the abort, activation and fields do not": {
			{commit: true, ops: []imgOp{{kind: "activate", obj: 1, arg: 1}}},
			{ops: []imgOp{{kind: "step", obj: 1, arg: 4}, {kind: "set", obj: 1, arg: 3}, {kind: "deactivate", obj: 1, arg: 2}}},
			{ops: []imgOp{{kind: "step", obj: 1, arg: 7}, {kind: "delete", obj: 1}}},
			{ops: []imgOp{{kind: "activate", obj: 1, arg: 4}, {kind: "step", obj: 1, arg: 1}}},   // re-activation: the post-reset state, the old parameters
			{ops: []imgOp{{kind: "step", obj: 1, arg: 4}, {kind: "deactivate", obj: 1, arg: 1}}}, // inactive at the abort: nothing kept
			{ops: []imgOp{{kind: "activate", obj: 2, arg: 1}, {kind: "step", obj: 2, arg: 4}}},   // inactive before: nothing kept
			{ops: []imgOp{{kind: "step", obj: 0, arg: 4}}},                                       // never committed: kept, not published
			{commit: true, ops: []imgOp{{kind: "touch", obj: 1}}},
		},
		"create and delete": {
			{commit: true, ops: []imgOp{{kind: "create", arg: 9}, {kind: "delete", obj: 3}}},
			{ops: []imgOp{{kind: "delete", obj: 1}, {kind: "create", arg: 1}}},
			{commit: true, ops: []imgOp{{kind: "delete", obj: 1}}},
		},
	}
	kinds := []string{"set", "set", "same", "step", "step", "step", "activate", "reactivate", "grow", "deactivate", "touch", "touch", "delete", "create", "outcome"}
	for _, single := range []bool{false, true} {
		for name, script := range table {
			t.Run(fmt.Sprintf("single=%v/%s", single, name), func(t *testing.T) {
				h := newImgHarness(t, single)
				for _, x := range script {
					h.run(x)
				}
			})
		}
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("single=%v/seed=%d", single, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				h := newImgHarness(t, single)
				for i := 0; i < 200; i++ {
					x := imgTx{commit: rng.Intn(3) > 0}
					for n := rng.Intn(5); n >= 0; n-- {
						x.ops = append(x.ops, imgOp{kind: kinds[rng.Intn(len(kinds))], obj: rng.Intn(16), arg: rng.Intn(64)})
					}
					h.run(x)
				}
			})
		}
	}
}
