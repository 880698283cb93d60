package egress_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ode/internal/egress"
	"ode/internal/engine"
	"ode/internal/obs"
	"ode/internal/part"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

func rec(seq uint64, trigger string, oid store.OID) store.FiringRecord {
	return store.FiringRecord{
		Seq:     seq,
		TxID:    seq * 7,
		OID:     oid,
		Part:    int(seq % 3),
		AtNs:    int64(seq) * 1_000_000,
		Class:   "account",
		Trigger: trigger,
		Kind:    "after withdraw",
	}
}

// --- codec ---

func TestRecordCodecRoundTrip(t *testing.T) {
	recs := []store.FiringRecord{
		rec(1, "Big", 42),
		rec(2, "Audit", 7),
		{Seq: 1<<63 + 5, TxID: 1 << 40, OID: 1<<31 + 9, Part: 1 << 20, AtNs: -3, Class: "日本", Trigger: "", Kind: strings.Repeat("k", 300)},
	}
	var buf []byte
	for _, r := range recs {
		buf = egress.AppendRecord(buf, r)
	}
	got, err := egress.DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}

	// DecodeRecord reports the exact frame length.
	one := egress.AppendRecord(nil, recs[0])
	r0, n, err := egress.DecodeRecord(one)
	if err != nil || n != len(one) || r0 != recs[0] {
		t.Fatalf("DecodeRecord: rec=%+v n=%d err=%v", r0, n, err)
	}
}

func TestRecordCodecTruncation(t *testing.T) {
	full := egress.AppendRecord(nil, rec(9, "Big", 13))
	// Every proper prefix is a torn write: ErrTruncated, never success,
	// never ErrCorrupt (the length prefix promises more bytes).
	for n := 0; n < len(full); n++ {
		_, _, err := egress.DecodeRecord(full[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(full))
		}
		if n >= 4 && !errors.Is(err, egress.ErrTruncated) {
			t.Fatalf("prefix of %d bytes: %v, want ErrTruncated", n, err)
		}
	}
	// DecodeAll surfaces the intact prefix alongside ErrTruncated.
	two := egress.AppendRecord(nil, rec(1, "A", 1))
	two = egress.AppendRecord(two, rec(2, "B", 2))
	got, err := egress.DecodeAll(two[:len(two)-3])
	if !errors.Is(err, egress.ErrTruncated) || len(got) != 1 {
		t.Fatalf("DecodeAll on torn tail: %d records, err %v", len(got), err)
	}
}

func TestRecordCodecCorruption(t *testing.T) {
	full := egress.AppendRecord(nil, rec(3, "Big", 99))
	// Flipping any payload or CRC byte must be caught by the checksum.
	for i := 4; i < len(full); i++ {
		bad := bytes.Clone(full)
		bad[i] ^= 0x40
		if _, _, err := egress.DecodeRecord(bad); !errors.Is(err, egress.ErrCorrupt) {
			t.Fatalf("flip at %d: %v, want ErrCorrupt", i, err)
		}
	}
	// A zero or absurd length prefix is corrupt, not a huge allocation.
	for _, hdr := range [][]byte{{0, 0, 0, 0, 1, 2, 3, 4}, {0xff, 0xff, 0xff, 0x7f, 1}} {
		if _, _, err := egress.DecodeRecord(hdr); !errors.Is(err, egress.ErrCorrupt) {
			t.Fatalf("header %v: %v, want ErrCorrupt", hdr[:4], err)
		}
	}
}

// --- idempotency keys ---

func TestIdempotencyKeyStability(t *testing.T) {
	base := egress.IdempotencyKey("Big", 42, 7)
	if len(base) != 64 { // hex SHA-256
		t.Fatalf("key %q has length %d", base, len(base))
	}
	if egress.IdempotencyKey("Big", 42, 7) != base {
		t.Fatal("key is not deterministic")
	}
	if egress.KeyFor(store.FiringRecord{Trigger: "Big", OID: 42, Seq: 7, Class: "x", Kind: "y", TxID: 999, Part: 3}) != base {
		t.Fatal("KeyFor must depend only on (trigger, oid, seq)")
	}
	for _, other := range []string{
		egress.IdempotencyKey("Big2", 42, 7),
		egress.IdempotencyKey("Big", 43, 7),
		egress.IdempotencyKey("Big", 42, 8),
	} {
		if other == base {
			t.Fatal("distinct (trigger, oid, seq) collided")
		}
	}
}

// --- cursor ---

func TestCursorSaveReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cursor")
	c, err := egress.OpenCursor(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Last(); ok {
		t.Fatal("fresh cursor has an entry")
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := c.Save(rec(seq, "Big", 42)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Saves() != 3 {
		t.Fatalf("Saves() = %d, want 3", c.Saves())
	}
	c.Close()

	// A crash mid-save leaves a torn frame at the tail; reopen discards
	// it and resumes from the last intact entry.
	torn := egress.AppendRecord(nil, rec(4, "Big", 42))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := egress.OpenCursor(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	last, ok := c2.Last()
	if !ok || last != rec(3, "Big", 42) {
		t.Fatalf("reopened cursor Last = %+v (ok=%v), want seq 3", last, ok)
	}
	// The next save overwrites the repaired tail and survives reopen.
	if err := c2.Save(rec(5, "Big", 42)); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c3, err := egress.OpenCursor(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if last, ok := c3.Last(); !ok || last.Seq != 5 {
		t.Fatalf("after repair+save, Last = %+v (ok=%v)", last, ok)
	}
}

func TestCursorCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cursor")
	c, err := egress.OpenCursor(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const saves = 600 // past the compaction threshold
	for seq := uint64(1); seq <= saves; seq++ {
		if err := c.Save(rec(seq, "Big", 42)); err != nil {
			t.Fatal(err)
		}
	}
	frame := len(egress.AppendRecord(nil, rec(saves, "Big", 42)))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= int64(frame*saves/2) {
		t.Fatalf("cursor file is %d bytes after %d saves; compaction never ran", fi.Size(), saves)
	}
	c.Close()
	c2, err := egress.OpenCursor(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if last, ok := c2.Last(); !ok || last.Seq != saves {
		t.Fatalf("after compaction, Last = %+v (ok=%v)", last, ok)
	}
}

// --- deliverer over an in-memory feed ---

// memFeed is an in-memory egress.Source whose positions are the
// records' sequence numbers.
type memFeed struct {
	mu   sync.Mutex
	recs []store.FiringRecord
	wake egress.Notifier
}

func (m *memFeed) push(n int) {
	m.mu.Lock()
	for i := 0; i < n; i++ {
		m.recs = append(m.recs, rec(uint64(len(m.recs)+1), "Big", 42))
	}
	m.mu.Unlock()
	m.wake.Publish()
}

func (m *memFeed) FiringsAfter(after uint64, max int) ([]store.FiringRecord, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	head := uint64(len(m.recs))
	if after >= head {
		return nil, head
	}
	end := head
	if max > 0 && after+uint64(max) < end {
		end = after + uint64(max)
	}
	return append([]store.FiringRecord(nil), m.recs[after:end]...), head
}

func (m *memFeed) FiringHead() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return uint64(len(m.recs))
}

func (m *memFeed) FiringPos(r store.FiringRecord) uint64 { return r.Seq }

func (m *memFeed) NotifyFirings(ch chan<- struct{}) func() { return m.wake.Add(ch) }

func TestDelivererRetriesThenDelivers(t *testing.T) {
	src := &memFeed{}
	src.push(3)
	fails := 2
	var got []uint64
	snd := egress.SenderFunc(func(r store.FiringRecord, key string) error {
		if r.Seq == 2 && fails > 0 {
			fails--
			return fmt.Errorf("endpoint flake")
		}
		got = append(got, r.Seq)
		return nil
	})
	d := egress.NewDeliverer(src, snd, egress.DelivererOptions{Sleep: func(time.Duration) {}})
	n, err := d.Pump(0)
	if err != nil || n != 3 {
		t.Fatalf("Pump = %d, %v", n, err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("delivery order %v", got)
	}
	s := d.Stats()
	if s.Retries != 2 || s.GaveUp != 0 || s.Delivered != 3 || s.Lag != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDelivererStallsNeverSkips(t *testing.T) {
	src := &memFeed{}
	src.push(2)
	broken := true
	var got []uint64
	snd := egress.SenderFunc(func(r store.FiringRecord, key string) error {
		if r.Seq == 1 && broken {
			return fmt.Errorf("endpoint down")
		}
		got = append(got, r.Seq)
		return nil
	})
	d := egress.NewDeliverer(src, snd, egress.DelivererOptions{
		MaxAttempts: 2,
		Sleep:       func(time.Duration) {},
	})
	n, err := d.Pump(0)
	if err == nil || n != 0 {
		t.Fatalf("Pump over a dead endpoint = %d, %v", n, err)
	}
	if s := d.Stats(); s.GaveUp != 1 || s.Pos != 0 || s.Lag != 2 {
		t.Fatalf("stats after stall: %+v", s)
	}
	if len(d.Errors()) == 0 {
		t.Fatal("stall retained no error")
	}
	// The endpoint recovers: the same record is retried, nothing was
	// skipped.
	broken = false
	if n, err := d.Pump(0); err != nil || n != 2 {
		t.Fatalf("Pump after recovery = %d, %v", n, err)
	}
	if fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("delivery order %v", got)
	}
}

func TestDelivererErrorRingBounded(t *testing.T) {
	src := &memFeed{}
	src.push(1)
	snd := egress.SenderFunc(func(store.FiringRecord, string) error {
		return fmt.Errorf("always down")
	})
	d := egress.NewDeliverer(src, snd, egress.DelivererOptions{
		MaxAttempts: 1,
		Sleep:       func(time.Duration) {},
	})
	const pumps = 100
	for i := 0; i < pumps; i++ {
		if _, err := d.Pump(0); err == nil {
			t.Fatal("dead endpoint delivered")
		}
	}
	s := d.Stats()
	if s.ErrsDropped == 0 {
		t.Fatalf("after %d failed pumps ErrsDropped = 0", pumps)
	}
	errs := d.Errors()
	if len(errs) == 0 || uint64(len(errs))+s.ErrsDropped != pumps {
		t.Fatalf("ring holds %d errors, %d dropped, want %d total", len(errs), s.ErrsDropped, pumps)
	}
}

func TestDelivererCursorResume(t *testing.T) {
	src := &memFeed{}
	src.push(5)
	path := filepath.Join(t.TempDir(), "cursor")
	cur, err := egress.OpenCursor(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var first []uint64
	d := egress.NewDeliverer(src, egress.SenderFunc(func(r store.FiringRecord, _ string) error {
		first = append(first, r.Seq)
		return nil
	}), egress.DelivererOptions{Cursor: cur})
	if n, _ := d.Pump(3); n != 3 {
		t.Fatalf("first incarnation delivered %d", n)
	}
	cur.Close() // crash: in-memory position lost, durable cursor kept

	cur2, err := egress.OpenCursor(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	var second []uint64
	d2 := egress.NewDeliverer(src, egress.SenderFunc(func(r store.FiringRecord, _ string) error {
		second = append(second, r.Seq)
		return nil
	}), egress.DelivererOptions{Cursor: cur2})
	if n, err := d2.Pump(0); err != nil || n != 2 {
		t.Fatalf("resumed incarnation delivered %d, %v", n, err)
	}
	if fmt.Sprint(first) != "[1 2 3]" || fmt.Sprint(second) != "[4 5]" {
		t.Fatalf("first %v, second %v", first, second)
	}
	if s := d2.Stats(); s.Lag != 0 || s.CursorSaves != 2 {
		t.Fatalf("resumed stats %+v", s)
	}
}

func TestSubscriptionBackfillThenLive(t *testing.T) {
	src := &memFeed{}
	src.push(4)
	sub := egress.Subscribe(src, 0)
	if got := sub.Poll(2); len(got) != 2 || got[0].Seq != 1 {
		t.Fatalf("backfill poll = %+v", got)
	}
	if sub.Lag() != 2 {
		t.Fatalf("Lag = %d, want 2", sub.Lag())
	}
	if got := sub.Poll(0); len(got) != 2 || got[1].Seq != 4 {
		t.Fatalf("catch-up poll = %+v", got)
	}
	if got := sub.Poll(0); len(got) != 0 {
		t.Fatalf("caught-up poll returned %d records", len(got))
	}
	src.push(1) // live append
	if got := sub.Poll(0); len(got) != 1 || got[0].Seq != 5 {
		t.Fatalf("live poll = %+v", got)
	}
	if sub.Pos() != 5 || sub.Lag() != 0 {
		t.Fatalf("pos=%d lag=%d", sub.Pos(), sub.Lag())
	}

	// A mid-stream subscription starts at its from position.
	late := egress.Subscribe(src, 4)
	if got := late.Poll(0); len(got) != 2 || got[0].Seq != 4 {
		t.Fatalf("late subscription poll = %+v", got)
	}
}

// --- OpenMetrics ---

// TestDelivererPromMetrics renders the deliverer's counters through
// the OpenMetrics writer and parses the exposition back: every
// ode_engine_egress_* series must be present, typed, and carry the
// stats snapshot's values.
func TestDelivererPromMetrics(t *testing.T) {
	src := &memFeed{}
	src.push(3)
	flaky := 1
	snd := egress.SenderFunc(func(r store.FiringRecord, _ string) error {
		if r.Seq == 2 && flaky > 0 {
			flaky--
			return fmt.Errorf("flake")
		}
		return nil
	})
	d := egress.NewDeliverer(src, snd, egress.DelivererOptions{Sleep: func(time.Duration) {}})
	if _, err := d.Pump(2); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	obs.WriteProm(&buf, obs.NewRegistry().Snapshot(), d.PromMetrics())
	text := buf.String()

	samples := map[string]float64{}
	typed := map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				typed[parts[2]] = parts[3]
			}
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("line %d: no value in %q", ln+1, line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			t.Fatalf("line %d: bad value %q", ln+1, line[sp+1:])
		}
		if _, ok := typed[line[:sp]]; !ok {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, line[:sp])
		}
		samples[line[:sp]] = v
	}

	s := d.Stats()
	want := map[string]struct {
		val float64
		typ string
	}{
		"ode_engine_egress_delivered_total":              {float64(s.Delivered), "counter"},
		"ode_engine_egress_delivery_attempts_total":      {float64(s.Attempts), "counter"},
		"ode_engine_egress_delivery_retries_total":       {float64(s.Retries), "counter"},
		"ode_engine_egress_delivery_gave_up_total":       {float64(s.GaveUp), "counter"},
		"ode_engine_egress_cursor_saves_total":           {float64(s.CursorSaves), "counter"},
		"ode_engine_egress_deliver_errors_dropped_total": {float64(s.ErrsDropped), "counter"},
		"ode_engine_egress_cursor":                       {float64(s.Pos), "gauge"},
		"ode_engine_egress_lag":                          {float64(s.Lag), "gauge"},
	}
	if s.Delivered != 2 || s.Lag != 1 {
		t.Fatalf("unexpected stats for the exposition check: %+v", s)
	}
	for name, w := range want {
		got, ok := samples[name]
		if !ok {
			t.Fatalf("missing series %s in:\n%s", name, text)
		}
		if got != w.val {
			t.Fatalf("%s = %g, want %g", name, got, w.val)
		}
		if typed[name] != w.typ {
			t.Fatalf("%s typed %q, want %q", name, typed[name], w.typ)
		}
	}
}

// --- concurrent subscribers over a partitioned DB ---

// bankDB opens an n-partition DB with one activated account per
// partition whose Big trigger fires on every withdrawal over 10.
func bankDB(t *testing.T, n int) (*part.DB, []store.OID) {
	t.Helper()
	db, err := part.Open(part.Options{N: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cls := &schema.Class{
		Name:   "account",
		Fields: []schema.Field{{Name: "balance", Kind: value.KindInt, Default: value.Int(0)}},
		Methods: []schema.Method{
			{Name: "withdraw", Params: []schema.Param{{Name: "a", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
		},
		Triggers: []schema.Trigger{
			{Name: "Big", Perpetual: true, Event: "after withdraw(a) && a > 10"},
		},
	}
	impl := engine.ClassImpl{
		Methods: map[string]engine.MethodImpl{
			"withdraw": func(ctx *engine.MethodCtx) (value.Value, error) {
				b, _ := ctx.Get("balance")
				return value.Null(), ctx.Set("balance", value.Int(b.AsInt()-ctx.Arg("a").AsInt()))
			},
		},
		Actions: map[string]engine.ActionFunc{
			"Big": func(*engine.ActionCtx) error { return nil },
		},
	}
	if err := db.Register(func(_ int, e *engine.Engine) error {
		_, rerr := e.RegisterClass(cls, impl, nil)
		return rerr
	}); err != nil {
		t.Fatal(err)
	}
	oids := make([]store.OID, n)
	for p := 0; p < n; p++ {
		pp := p
		err := db.Transact(p, func(tx *engine.Tx) error {
			oid, err := tx.NewObject("account", nil)
			if err != nil {
				return err
			}
			oids[pp] = oid
			return tx.Activate(oid, "Big")
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db, oids
}

// TestConcurrentSubscribersPartitioned is the -race stress test:
// producer goroutines fire triggers across all partitions while
// subscriber goroutines tail the merged feed live and a backfill
// subscriber replays from position 0 mid-stream. Every subscriber must
// observe the same prefix-consistent stream: positions strictly
// increasing, no gaps, no duplicates, and — once producers stop — the
// identical full feed.
func TestConcurrentSubscribersPartitioned(t *testing.T) {
	const (
		parts     = 4
		producers = 4
		perProd   = 50
		tails     = 3
	)
	db, oids := bankDB(t, parts)

	want := producers * perProd // every withdrawal fires Big once
	var wg sync.WaitGroup
	stop := make(chan struct{})

	type tailResult struct {
		recs []store.FiringRecord
		err  error
	}
	results := make([]tailResult, tails+1)

	// Live tails: subscribe at the current head and poll until told to
	// stop, checking stream consistency as records arrive.
	tailFrom := func(idx int, from uint64) {
		defer wg.Done()
		sub := egress.Subscribe(db, from)
		var seen []store.FiringRecord
		pos := sub.Pos()
		for {
			recs := sub.Poll(7)
			for _, r := range recs {
				p := db.FiringPos(r)
				if p <= pos {
					results[idx].err = fmt.Errorf("position went backwards: %d after %d", p, pos)
					return
				}
				pos = p
				seen = append(seen, r)
			}
			if len(recs) == 0 {
				select {
				case <-stop:
					// Final drain, then report.
					for {
						recs := sub.Poll(0)
						if len(recs) == 0 {
							results[idx].recs = seen
							return
						}
						seen = append(seen, recs...)
					}
				default:
				}
			}
		}
	}
	for i := 0; i < tails; i++ {
		wg.Add(1)
		go tailFrom(i, 0)
	}

	// Producers: concurrent withdrawals routed across every partition.
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProd; i++ {
				oid := oids[(p+i)%parts]
				if _, err := db.Call(oid, "withdraw", value.Int(int64(20+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	pwg.Wait()

	// Backfill racing the live tail: started only after the feed has
	// grown, replaying from 0.
	wg.Add(1)
	go tailFrom(tails, 0)

	close(stop)
	wg.Wait()

	full, head := db.FiringsAfter(0, 0)
	if len(full) != want || head != uint64(want) {
		t.Fatalf("feed holds %d records (head %d), want %d", len(full), head, want)
	}
	for i, res := range results {
		if res.err != nil {
			t.Fatalf("subscriber %d: %v", i, res.err)
		}
		if len(res.recs) != want {
			t.Fatalf("subscriber %d saw %d records, want %d", i, len(res.recs), want)
		}
		for j, r := range res.recs {
			if r != full[j] {
				t.Fatalf("subscriber %d diverged at %d: %+v != %+v", i, j, r, full[j])
			}
		}
	}
}

// --- Run: woken by publication, retried at the poll cadence ---

// TestRunWakesOnPublish: with a poll of an hour, only a publication's
// wake can make Run deliver a firing committed after its first Pump,
// on a single engine's feed and on a 2-partition DB's merged feed.
func TestRunWakesOnPublish(t *testing.T) {
	db, oids := bankDB(t, 2)
	for _, src := range []egress.Source{db.Partition(0).Engine(), db} {
		got := make(chan store.FiringRecord, 4)
		d := egress.NewDeliverer(src, egress.SenderFunc(func(r store.FiringRecord, _ string) error {
			got <- r
			return nil
		}), egress.DelivererOptions{From: src.FiringHead() + 1})
		stop, done := make(chan struct{}), make(chan struct{})
		go func() { defer close(done); d.Run(stop, time.Hour) }()
		for i := 0; i < 2; i++ { // the first may be the first Pump's, the second is a wake's
			if _, err := db.Call(oids[0], "withdraw", value.Int(20)); err != nil {
				t.Fatal(err)
			}
			select {
			case r := <-got:
				if r.Trigger != "Big" || r.OID != oids[0] {
					t.Fatalf("%T delivered %+v", src, r)
				}
			case <-time.After(time.Second):
				t.Fatalf("%T: firing %d not delivered within 1s of its commit", src, i+1)
			}
		}
		close(stop)
		<-done
	}
}

// TestRunRetriesAtThePollCadence: a record the sender always refuses
// is retried once per poll tick, however many publications wake the
// deliverer meanwhile.
func TestRunRetriesAtThePollCadence(t *testing.T) {
	const (
		poll        = 20 * time.Millisecond
		maxAttempts = 2
		pubs        = 200
	)
	src := &memFeed{}
	d := egress.NewDeliverer(src, egress.SenderFunc(func(store.FiringRecord, string) error {
		return errors.New("endpoint down")
	}), egress.DelivererOptions{MaxAttempts: maxAttempts, Sleep: func(time.Duration) {}})
	stop, done := make(chan struct{}), make(chan struct{})
	start := time.Now()
	go func() { defer close(done); d.Run(stop, poll) }()
	for i := 0; i < pubs; i++ {
		src.push(1)
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	<-done
	elapsed := time.Since(start)
	s := d.Stats()
	// One Pump at start, at most one a tick since, each of MaxAttempts.
	bound := (uint64(elapsed/poll) + 2) * maxAttempts
	t.Logf("%d attempts in %v for %d publications (bound %d)", s.Attempts, elapsed, pubs, bound)
	if s.Delivered != 0 || s.Attempts == 0 {
		t.Fatalf("stats %+v", s)
	}
	if s.Attempts > bound {
		t.Fatalf("%d send attempts in %v at a %v poll: the stalled record was retried per publication (bound %d)",
			s.Attempts, elapsed, poll, bound)
	}
}
