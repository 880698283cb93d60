package store

import (
	"fmt"
	"sync"
	"testing"

	"ode/internal/value"
)

// TestEpochViewSeededFromRecovery proves a reopened store serves every
// recovered object through the lock-free committed view — including
// objects logged by a multi-object commit.
func TestEpochViewSeededFromRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var oids []OID
	for i := int64(0); i < 3; i++ {
		r := s.Create("acct", map[string]value.Value{"bal": value.Int(i * 100)})
		oids = append(oids, r.OID)
	}
	if err := s.LogCommit(1, oids, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, oid := range oids {
		rec, ok := s2.GetCommitted(oid)
		if !ok || rec.Fields["bal"].AsInt() != int64(i)*100 {
			t.Fatalf("recovered epoch view for %d: %+v ok=%v", oid, rec, ok)
		}
	}
	if n := len(s2.CommittedOIDs()); n != 3 {
		t.Fatalf("CommittedOIDs = %d, want 3", n)
	}
}

// TestEpochViewPublish exercises the single-threaded contract: only
// published state is visible, updates swap in place, deletes remove.
func TestEpochViewPublish(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	r := s.Create("acct", map[string]value.Value{"bal": value.Int(0)})
	if _, ok := s.GetCommitted(r.OID); ok {
		t.Fatal("uncommitted object visible in epoch view")
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("fresh store epoch = %d, want 0", got)
	}

	r.SetField("bal", value.Int(10))
	s.PublishCommitted([]OID{r.OID}, nil)
	c, ok := s.GetCommitted(r.OID)
	if !ok || c.Fields["bal"].AsInt() != 10 {
		t.Fatalf("after publish: got %+v ok=%v, want bal=10", c, ok)
	}
	if c == r {
		t.Fatal("epoch view aliases the live record; must be a clone")
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}

	// Mutating the live record (an in-flight transaction) must not leak
	// into the already-published version.
	r.SetField("bal", value.Int(999))
	c2, _ := s.GetCommitted(r.OID)
	if c2.Fields["bal"].AsInt() != 10 {
		t.Fatalf("live mutation leaked into epoch view: bal=%d", c2.Fields["bal"].AsInt())
	}

	s.PublishCommitted([]OID{r.OID}, nil)
	c3, _ := s.GetCommitted(r.OID)
	if c3.Fields["bal"].AsInt() != 999 {
		t.Fatalf("republish: bal=%d, want 999", c3.Fields["bal"].AsInt())
	}

	s.PublishCommitted(nil, []OID{r.OID})
	if _, ok := s.GetCommitted(r.OID); ok {
		t.Fatal("committed-deleted object still visible")
	}
	if got, want := s.Epoch(), uint64(3); got != want {
		t.Fatalf("epoch = %d, want %d", got, want)
	}
	if n := len(s.CommittedOIDs()); n != 0 {
		t.Fatalf("CommittedOIDs = %d entries, want 0", n)
	}
}

// TestEpochAdvancesOncePerChangingCommit pins the counter: one step per
// Commit or PublishCommitted that changed the view — however many
// images it swapped, cells it created and objects it removed — and none
// for one that changed nothing.
func TestEpochAdvancesOncePerChangingCommit(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	a := s.Create("acct", map[string]value.Value{"bal": value.Int(0)})
	b := s.Create("acct", map[string]value.Value{"bal": value.Int(0)})
	both := []OID{a.OID, b.OID}
	step := func(what string, want uint64, f func()) {
		t.Helper()
		before := s.Epoch()
		f()
		if got := s.Epoch() - before; got != want {
			t.Fatalf("%s advanced the epoch by %d, want %d", what, got, want)
		}
	}
	commit := func(touched, deleted []OID) func() {
		return func() {
			if err := s.Commit(1, s.touchedOf(touched), deleted, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	step("first commit of two new objects", 1, commit(both, nil))
	step("commit that changed nothing", 0, commit(both, nil))
	step("publish that changed nothing", 0, func() { s.PublishCommitted(both, nil) })
	a.SetField("bal", value.Int(1))
	b.SetField("bal", value.Int(1))
	step("commit changing two objects", 1, commit(both, nil))
	a.Trigger("T").State = 3
	c := s.Create("acct", nil)
	s.Delete(b.OID)
	step("commit changing one, creating one, deleting one", 1, commit([]OID{a.OID, c.OID}, []OID{b.OID}))
	step("deleting an object the view never held", 0, commit(nil, []OID{9999}))
	img, _ := s.GetCommitted(a.OID)
	step("touching an unchanged object", 0, commit([]OID{a.OID}, nil))
	if again, _ := s.GetCommitted(a.OID); again != img {
		t.Fatal("unchanged object's image was replaced")
	}
}

// TestEpochViewRace hammers lock-free epoch readers against concurrent
// batch publishers under -race. Each writer owns a disjoint set of
// objects (standing in for transactions that hold their object locks)
// and maintains an invariant inside every object — fields a and b are
// always equal — plus a monotonically increasing version field. Every
// version a reader observes must satisfy the invariant (publishes are
// whole-record, never torn) and versions must never go backwards
// (per-object monotonicity of the committed history).
func TestEpochViewRace(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		perW    = 8
		rounds  = 300
		readers = 4
	)
	oids := make([][]OID, writers)
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			r := s.Create("acct", map[string]value.Value{
				"a": value.Int(0), "b": value.Int(0), "ver": value.Int(0),
			})
			// One at a time: the second name grows the layout, which
			// invalidates the first pointer.
			r.Trigger("even").Active = true
			r.Trigger("odd").Active = true
			oids[w] = append(oids[w], r.OID)
		}
		// Seed version 0 so readers always find the objects.
		s.PublishCommitted(oids[w], nil)
	}
	all := make([]OID, 0, writers*perW)
	for _, g := range oids {
		all = append(all, g...)
	}

	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for round := 1; round <= rounds; round++ {
				// A "transaction" over the writer's whole object group:
				// mutate live records, then publish the batch.
				for _, oid := range oids[w] {
					r, err := s.Get(oid)
					if err != nil {
						t.Error(err)
						return
					}
					v := int64(round)
					r.SetField("a", value.Int(v*7))
					r.SetField("b", value.Int(v*7))
					r.SetField("ver", value.Int(v))
					// One activation moves per round; the image shares the
					// other with its predecessor.
					if round%2 == 0 {
						r.Trigger("even").State = int32(round)
					} else {
						r.Trigger("odd").State = int32(round)
					}
				}
				s.PublishCommitted(oids[w], nil)
			}
		}(w)
	}

	errs := make(chan string, readers)
	for rd := 0; rd < readers; rd++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			last := map[OID]int64{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, oid := range all {
					rec, ok := s.GetCommitted(oid)
					if !ok {
						errs <- "published object vanished from epoch view"
						return
					}
					a, b, ver := rec.Fields["a"].AsInt(), rec.Fields["b"].AsInt(), rec.Fields["ver"].AsInt()
					if a != b {
						errs <- "torn committed version: a != b"
						return
					}
					if a != ver*7 {
						errs <- "committed version inconsistent with its own ver field"
						return
					}
					if ver < last[oid] {
						errs <- "committed history went backwards"
						return
					}
					ev, od := int64(rec.Trig(0).State), int64(rec.Trig(1).State) // slots in interning order
					if max(ev, od) != ver || (ver > 0 && min(ev, od) != ver-1) {
						errs <- "shared activation out of step with its image"
						return
					}
					last[oid] = ver
				}
			}
		}()
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	// Quiescent check: every object's final committed version is the
	// last round.
	for _, oid := range all {
		rec, ok := s.GetCommitted(oid)
		if !ok || rec.Fields["ver"].AsInt() != rounds {
			t.Fatalf("final committed ver = %v (ok=%v), want %d", rec.Fields["ver"], ok, rounds)
		}
	}
}

// BenchmarkRecordImage is the per-layer guard on what a commit pays per
// touched object: Record.image over a record with n triggers of which
// none, one or all moved since the previous image (the Fields map never
// changes here, so the numbers are the trigger side alone). Nothing
// moved is a comparison and no allocation; anything moved is the same
// comparison plus one Record and one slice copy, however many moved.
func BenchmarkRecordImage(b *testing.B) {
	for _, n := range []int{1, 3, 8, 64} {
		for _, moved := range []string{"0", "1", "all"} {
			b.Run(fmt.Sprintf("triggers=%d/moved=%s", n, moved), func(b *testing.B) {
				s, _ := Open("")
				r := s.Create("acct", map[string]value.Value{"bal": value.Int(1)})
				for i := 0; i < n; i++ {
					*r.Trigger(fmt.Sprintf("T%d", i)) = TrigState{Active: true, ext: newExt([]value.Value{value.Int(int64(i))})}
				}
				prev := r.image(nil)
				switch moved {
				case "1":
					r.Trigs[n-1].State = 1
				case "all":
					for i := range r.Trigs {
						r.Trigs[i].State = 1
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					imageSink = r.image(prev)
				}
			})
		}
	}
}

var imageSink *Record
