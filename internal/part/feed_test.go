package part

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ode/internal/egress"
	"ode/internal/engine"
	"ode/internal/store"
	"ode/internal/value"
)

type refKey struct {
	part int
	seq  uint64
}

// refFeed is the merged feed built the way the DB once kept it: a copy
// of every record in position order and a (Part, Seq) → position map,
// seeded from the recovered logs and appended from the live sinks.
type refFeed struct {
	mu   sync.Mutex
	recs []store.FiringRecord
	pos  map[refKey]uint64
}

// hookRef seeds a reference from db's recovered logs, merged by
// (AtNs, Part, Seq), and wraps every partition's sink so the DB's index
// and the reference take each span in the same order.
func hookRef(db *DB) *refFeed {
	ref := &refFeed{pos: map[refKey]uint64{}}
	for _, pt := range db.parts {
		recs, _ := pt.eng.FiringsAfter(0, 0)
		ref.recs = append(ref.recs, recs...)
	}
	sort.Slice(ref.recs, func(i, j int) bool {
		a, b := ref.recs[i], ref.recs[j]
		if a.AtNs != b.AtNs {
			return a.AtNs < b.AtNs
		}
		if a.Part != b.Part {
			return a.Part < b.Part
		}
		return a.Seq < b.Seq
	})
	for i, r := range ref.recs {
		ref.pos[refKey{r.Part, r.Seq}] = uint64(i + 1)
	}
	for _, pt := range db.parts {
		pt.eng.SetFiringSink(func(sp store.FiringSpan) {
			ref.mu.Lock()
			defer ref.mu.Unlock()
			db.appendFeed(pt.id, sp)
			pt.eng.Store().VisitFirings(sp.Lo, sp.Hi, func(_ int, r store.FiringRecord) {
				ref.recs = append(ref.recs, r)
				ref.pos[refKey{r.Part, r.Seq}] = uint64(len(ref.recs))
			})
		})
	}
	return ref
}

// check compares every read of db's merged feed with the reference.
func (ref *refFeed) check(t *testing.T, db *DB) {
	t.Helper()
	ref.mu.Lock()
	defer ref.mu.Unlock()
	n := uint64(len(ref.recs))
	if head := db.FiringHead(); head != n {
		t.Fatalf("FiringHead %d, reference holds %d", head, n)
	}
	for after := uint64(0); after <= n+1; after++ {
		for _, max := range []int{0, 1, 2, 5, int(n)} {
			got, head := db.FiringsAfter(after, max)
			want := ref.recs[min(after, n):]
			if max > 0 && len(want) > max {
				want = want[:max]
			}
			if head != n || len(got) != len(want) {
				t.Fatalf("FiringsAfter(%d, %d): %d records head %d, want %d head %d", after, max, len(got), head, len(want), n)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("FiringsAfter(%d, %d)[%d] = %+v, want %+v", after, max, i, got[i], want[i])
				}
			}
		}
	}
	for i, r := range ref.recs {
		if p := db.FiringPos(r); p != uint64(i+1) || ref.pos[refKey{r.Part, r.Seq}] != p {
			t.Fatalf("FiringPos(%d/%d) = %d, want %d", r.Part, r.Seq, p, i+1)
		}
	}
	for p := -1; p <= db.N(); p++ {
		for _, seq := range []uint64{0, n + 1, 1 << 40} {
			if pos := db.FiringPos(store.FiringRecord{Part: p, Seq: seq}); pos != 0 {
				t.Fatalf("FiringPos of absent %d/%d = %d", p, seq, pos)
			}
		}
	}
}

// inversions counts pairs of one partition's records, adjacent in feed
// order among that partition's, whose Seqs run backwards.
func (ref *refFeed) inversions() int {
	last, n := map[int]uint64{}, 0
	for _, r := range ref.recs {
		if r.Seq < last[r.Part] {
			n++
		}
		last[r.Part] = r.Seq
	}
	return n
}

// TestMergedFeedDifferential drives concurrent producers over 1, 2 and
// 4 partitions and compares the merged feed — FiringsAfter over a grid
// of (after, max), FiringPos of every record and of absent ones,
// FiringHead — with the reference, live and after each reopen. The
// first session runs ten virtual hours ahead of the second, whose clock
// restarts at the default start, so the last reopen's (AtNs, Part, Seq)
// merge runs against Seq within a partition.
func TestMergedFeedDifferential(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			var oids []store.OID
			for session := 0; session < 3; session++ {
				db := openBank(t, n, dir, nil, engine.Options{})
				ref := hookRef(db)
				ref.check(t, db)
				if session == 2 {
					if ref.inversions() == 0 {
						t.Fatal("the reopened merge follows Seq in every partition; the test lost its point")
					}
					db.Close()
					break
				}
				if session == 0 {
					oids = newAccounts(t, db)
					if err := db.Advance(10 * time.Hour); err != nil {
						t.Fatal(err)
					}
				}
				var wg sync.WaitGroup
				for g := 0; g < 3; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < 12; i++ {
							oid := oids[(g+i)%len(oids)]
							method, amt := "withdraw", int64(150+i)
							if i%3 == 0 {
								method, amt = "deposit", 5
							}
							if _, err := db.Call(oid, method, value.Int(amt)); err != nil {
								t.Error(err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				db.Drain()
				ref.check(t, db)
				if session == 0 {
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFeedIndexBytesPerFiring pins the merged feed's resident cost: a
// position index of at most 16 bytes a record, measured on a reopened
// DB (whose index is sized exactly) as well as by type.
func TestFeedIndexBytesPerFiring(t *testing.T) {
	per := unsafe.Sizeof(feedEntry{}) + unsafe.Sizeof(uint64(0))
	if per > 16 {
		t.Fatalf("index entry %d B a record, budget 16", per)
	}
	dir := t.TempDir()
	db := openBank(t, 2, dir, nil, engine.Options{})
	oids := newAccounts(t, db)
	for i := 0; i < 200; i++ {
		if _, err := db.Call(oids[i%2], "withdraw", value.Int(200)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	db = openBank(t, 2, dir, nil, engine.Options{})
	defer db.Close()
	bytes := uintptr(cap(db.feed)) * unsafe.Sizeof(feedEntry{})
	for _, at := range db.feedAt {
		bytes += uintptr(cap(at)) * unsafe.Sizeof(at[0])
	}
	head := uintptr(db.FiringHead())
	t.Logf("%d records, %d index bytes: %.1f B a record", head, bytes, float64(bytes)/float64(head))
	if head < 200 || bytes > 16*head {
		t.Fatalf("%d index bytes for %d records, budget 16 a record", bytes, head)
	}
}

// TestFiringPosAllocatesNothing: a deliverer asks for a record's
// position and the head on every send.
func TestFiringPosAllocatesNothing(t *testing.T) {
	db := openBank(t, 2, "", nil, engine.Options{})
	defer db.Close()
	oids := newAccounts(t, db)
	for _, oid := range oids {
		if _, err := db.Call(oid, "withdraw", value.Int(200)); err != nil {
			t.Fatal(err)
		}
	}
	recs, _ := db.FiringsAfter(0, 0)
	if len(recs) == 0 {
		t.Fatal("nothing fired")
	}
	rec := recs[len(recs)-1]
	if a := testing.AllocsPerRun(100, func() {
		if db.FiringPos(rec) == 0 || db.FiringHead() == 0 {
			t.Fatal("record not found")
		}
	}); a != 0 {
		t.Fatalf("FiringPos + FiringHead allocate %.1f objects", a)
	}
}

// TestPublishWithAWaiterAllocatesNothing: indexing a span and waking the
// merged feed's readers allocates nothing, with or without a reader
// registered. The index is grown beforehand: its amortised growth is
// TestFeedIndexBytesPerFiring's subject, not this test's.
func TestPublishWithAWaiterAllocatesNothing(t *testing.T) {
	db := openBank(t, 2, "", nil, engine.Options{})
	defer db.Close()
	db.feed = slices.Grow(db.feed, 512)
	db.feedAt[0] = slices.Grow(db.feedAt[0], 512)
	i := 0
	publish := func() { db.appendFeed(0, store.FiringSpan{Lo: i, Hi: i + 1}); i++ }
	if a := testing.AllocsPerRun(100, publish); a != 0 {
		t.Fatalf("appendFeed without a waiter allocates %.1f objects", a)
	}
	wake := make(chan struct{}, 1)
	defer db.NotifyFirings(wake)()
	if a := testing.AllocsPerRun(100, publish); a != 0 {
		t.Fatalf("appendFeed with a waiter allocates %.1f objects", a)
	}
	select {
	case <-wake:
	default:
		t.Fatal("appendFeed did not wake the registered reader")
	}
}

// TestRunDeliversOnceWhileReadersComeAndGo is the -race test of
// wake-driven delivery: two partitions commit firings while Run
// delivers them, woken only by publication (its poll is an hour), and a
// second reader registers and unregisters throughout. Every record is
// delivered exactly once, and Run returns on stop.
func TestRunDeliversOnceWhileReadersComeAndGo(t *testing.T) {
	const perPart = 100
	db := openBank(t, 2, "", nil, engine.Options{})
	defer db.Close()
	oids := newAccounts(t, db)

	var mu sync.Mutex
	seen := map[refKey]int{}
	d := egress.NewDeliverer(db, egress.SenderFunc(func(r store.FiringRecord, _ string) error {
		mu.Lock()
		seen[refKey{r.Part, r.Seq}]++
		mu.Unlock()
		return nil
	}), egress.DelivererOptions{})
	stop, ran := make(chan struct{}), make(chan struct{})
	go func() { defer close(ran); d.Run(stop, time.Hour) }()

	var producers, reader sync.WaitGroup
	quit := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-quit:
				return
			default:
			}
			ch := make(chan struct{}, 1)
			unregister := db.NotifyFirings(ch)
			select {
			case <-ch:
			case <-time.After(time.Millisecond):
			}
			unregister()
		}
	}()
	for _, oid := range oids {
		producers.Add(1)
		go func(oid store.OID) {
			defer producers.Done()
			for i := 0; i < perPart; i++ {
				if _, err := db.Call(oid, "withdraw", value.Int(200)); err != nil {
					t.Error(err)
					return
				}
			}
		}(oid)
	}
	producers.Wait()
	close(quit)
	reader.Wait()

	head := db.FiringHead()
	if head < 2*perPart {
		t.Fatalf("feed head %d, want at least %d firings", head, 2*perPart)
	}
	for deadline := time.Now().Add(10 * time.Second); d.Pos() < head; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("delivered through %d of %d positions after 10s", d.Pos(), head)
		}
	}
	close(stop)
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return on stop")
	}
	recs, _ := db.FiringsAfter(0, 0)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(recs) {
		t.Fatalf("delivered %d distinct records, the feed holds %d", len(seen), len(recs))
	}
	for _, r := range recs {
		if n := seen[refKey{r.Part, r.Seq}]; n != 1 {
			t.Fatalf("record (part %d, seq %d) delivered %d times", r.Part, r.Seq, n)
		}
	}
}
