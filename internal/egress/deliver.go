package egress

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ode/internal/fault"
	"ode/internal/obs"
	"ode/internal/store"
)

// Sender delivers one firing record to the outside world. Send is
// invoked at least once per record; the idempotency key is stable
// across retries, crashes and resumes, so a receiver that dedupes on
// it observes the firing's effect exactly once.
type Sender interface {
	Send(rec store.FiringRecord, idemKey string) error
}

// SenderFunc adapts a function to the Sender interface.
type SenderFunc func(rec store.FiringRecord, idemKey string) error

// Send implements Sender.
func (f SenderFunc) Send(rec store.FiringRecord, idemKey string) error { return f(rec, idemKey) }

// errRingCap bounds retained delivery errors, mirroring the engine's
// timer-error ring: a persistently failing endpoint must not grow
// memory without bound. Overwritten errors count into ErrsDropped.
const errRingCap = 64

// DelivererOptions configures a Deliverer. The zero value is usable:
// resume from the cursor (or the feed start), 4 attempts per record,
// 10ms..2s exponential backoff, real sleeping.
type DelivererOptions struct {
	// Cursor optionally persists delivery progress; nil keeps the
	// cursor in memory only (a restart redelivers from From).
	Cursor *Cursor
	// From is the starting position when no cursor entry exists
	// (0 and 1 both mean the beginning of the feed).
	From uint64
	// MaxAttempts bounds delivery attempts per record per Pump pass
	// (default 4). When exhausted the deliverer records the error and
	// stalls at the record — it never skips, so no effect is lost; the
	// next Pump retries from the same position.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// attempts (defaults 10ms and 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Sleep replaces time.Sleep between retries — the simulation
	// harness injects a no-op to stay deterministic.
	Sleep func(time.Duration)
	// Batch bounds records fetched per poll (default 256).
	Batch int
	// Faults optionally installs the fault registry consulted at
	// fault.EgressDeliver before every send attempt.
	Faults *fault.Registry
}

// DelivererStats is a snapshot of delivery counters.
type DelivererStats struct {
	// Delivered counts records acknowledged by the sender.
	Delivered uint64
	// Attempts counts send attempts; Retries counts the subset that
	// were re-attempts after a failure.
	Attempts uint64
	Retries  uint64
	// GaveUp counts Pump passes that exhausted MaxAttempts on a record
	// and stalled (the record stays next in line; nothing is skipped).
	GaveUp uint64
	// CursorSaves counts successful durable cursor writes;
	// CursorErrs counts failed ones (delivery proceeds — a lost cursor
	// write only means redelivery after restart).
	CursorSaves uint64
	CursorErrs  uint64
	// ErrsDropped counts errors evicted from the bounded error ring.
	ErrsDropped uint64
	// Pos is the position consumed through; Lag is FiringHead - Pos.
	Pos uint64
	Lag uint64
}

// Deliverer pumps a Source's firing records through a Sender with
// bounded retries, exponential backoff and durable cursor tracking.
// Delivery is at-least-once — a crash between send and cursor save
// redelivers — and every delivery carries the record's idempotency
// key, so receivers dedupe to exactly-once effects.
type Deliverer struct {
	src  Source
	snd  Sender
	opts DelivererOptions

	mu        sync.Mutex
	pos       uint64 // positions consumed through
	delivered uint64
	attempts  uint64
	retries   uint64
	gaveUp    uint64
	curSaves  uint64
	curErrs   uint64

	errMu       sync.Mutex
	errs        []error
	errAt       int
	errsDropped uint64
}

// NewDeliverer builds a deliverer over src. If opts.Cursor holds a
// saved record, delivery resumes just past it; otherwise it starts at
// opts.From.
func NewDeliverer(src Source, snd Sender, opts DelivererOptions) *Deliverer {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 10 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	if opts.Batch <= 0 {
		opts.Batch = 256
	}
	d := &Deliverer{src: src, snd: snd, opts: opts}
	if opts.From > 0 {
		d.pos = opts.From - 1
	}
	if opts.Cursor != nil {
		if rec, ok := opts.Cursor.Last(); ok {
			if p := src.FiringPos(rec); p > d.pos {
				d.pos = p
			}
		}
	}
	return d
}

// Pos returns the position consumed through.
func (d *Deliverer) Pos() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pos
}

// Pump delivers up to max records (<= 0 means drain to the current
// feed head), returning how many were delivered. On a record whose
// delivery exhausts MaxAttempts, Pump records the error and returns
// it; the deliverer stays positioned at the failed record and the
// next Pump retries it.
func (d *Deliverer) Pump(max int) (int, error) {
	done := 0
	for max <= 0 || done < max {
		want := d.opts.Batch
		if max > 0 && max-done < want {
			want = max - done
		}
		d.mu.Lock()
		pos := d.pos
		d.mu.Unlock()
		recs, _ := d.src.FiringsAfter(pos, want)
		if len(recs) == 0 {
			return done, nil
		}
		for _, rec := range recs {
			if err := d.deliverOne(rec); err != nil {
				return done, err
			}
			done++
			if max > 0 && done >= max {
				break
			}
		}
	}
	return done, nil
}

// deliverOne sends rec with bounded retries, then advances the cursor.
func (d *Deliverer) deliverOne(rec store.FiringRecord) error {
	key := KeyFor(rec)
	var lastErr error
	for attempt := 0; attempt < d.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			backoff := d.opts.BaseBackoff << (attempt - 1)
			if backoff > d.opts.MaxBackoff {
				backoff = d.opts.MaxBackoff
			}
			d.opts.Sleep(backoff)
			d.mu.Lock()
			d.retries++
			d.mu.Unlock()
		}
		d.mu.Lock()
		d.attempts++
		d.mu.Unlock()
		lastErr = d.send(rec, key)
		if lastErr == nil {
			d.mu.Lock()
			d.delivered++
			d.pos = d.src.FiringPos(rec)
			d.mu.Unlock()
			if d.opts.Cursor != nil {
				if err := d.opts.Cursor.Save(rec); err != nil {
					// A failed cursor save is survivable: delivery
					// happened, and a restart redelivers from the last
					// durable entry — the receiver's dedupe absorbs it.
					d.mu.Lock()
					d.curErrs++
					d.mu.Unlock()
					d.recordErr(fmt.Errorf("egress: cursor save at seq %d: %w", rec.Seq, err))
				} else {
					d.mu.Lock()
					d.curSaves++
					d.mu.Unlock()
				}
			}
			return nil
		}
	}
	d.mu.Lock()
	d.gaveUp++
	d.mu.Unlock()
	err := fmt.Errorf("egress: delivery of seq %d gave up after %d attempts: %w",
		rec.Seq, d.opts.MaxAttempts, lastErr)
	d.recordErr(err)
	return err
}

func (d *Deliverer) send(rec store.FiringRecord, key string) error {
	if d.opts.Faults != nil {
		// EgressDeliver models the endpoint failing before the payload
		// is accepted: the record was not delivered and must be
		// retried.
		if err := d.opts.Faults.Check(fault.EgressDeliver); err != nil {
			return err
		}
	}
	return d.snd.Send(rec, key)
}

// Run pumps until stop closes. It registers with the source before
// its first Pump, so it drains whatever each publication makes readable
// as soon as the source announces it (Source.NotifyFirings). poll is the
// fallback cadence (default 50ms): Run also pumps on every tick, and
// after a Pump that gave up on a record it ignores wakes until the next
// tick, so a stalled record is retried once per poll, not once per
// commit. Delivery errors are retained in the bounded ring (see
// Errors); Run keeps going.
func (d *Deliverer) Run(stop <-chan struct{}, poll time.Duration) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	wake := make(chan struct{}, 1)
	defer d.src.NotifyFirings(wake)()
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		woken := (<-chan struct{})(wake)
		if _, err := d.Pump(0); err != nil {
			woken = nil
		}
		select {
		case <-stop:
			return
		case <-woken:
		case <-t.C:
		}
	}
}

// recordErr retains err in the bounded ring, evicting the oldest entry
// once full.
func (d *Deliverer) recordErr(err error) {
	d.errMu.Lock()
	if len(d.errs) < errRingCap {
		d.errs = append(d.errs, err)
	} else {
		d.errs[d.errAt] = err
		d.errAt = (d.errAt + 1) % errRingCap
		d.errsDropped++
	}
	d.errMu.Unlock()
}

// Errors returns the retained delivery errors, oldest first.
func (d *Deliverer) Errors() []error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	out := make([]error, 0, len(d.errs))
	out = append(out, d.errs[d.errAt:]...)
	out = append(out, d.errs[:d.errAt]...)
	return out
}

// Stats returns a snapshot of the delivery counters.
func (d *Deliverer) Stats() DelivererStats {
	head := d.src.FiringHead()
	d.mu.Lock()
	s := DelivererStats{
		Delivered:   d.delivered,
		Attempts:    d.attempts,
		Retries:     d.retries,
		GaveUp:      d.gaveUp,
		CursorSaves: d.curSaves,
		CursorErrs:  d.curErrs,
		Pos:         d.pos,
	}
	d.mu.Unlock()
	d.errMu.Lock()
	s.ErrsDropped = d.errsDropped
	d.errMu.Unlock()
	if head > s.Pos {
		s.Lag = head - s.Pos
	}
	return s
}

// PromMetrics renders the deliverer's counters as OpenMetrics series
// in the ode_engine_egress_* family, alongside the engine's feed
// gauges.
func (d *Deliverer) PromMetrics() []obs.PromMetric {
	s := d.Stats()
	return []obs.PromMetric{
		{Name: "ode_engine_egress_delivered_total", Help: "Firing records acknowledged by the delivery sender.", Value: float64(s.Delivered)},
		{Name: "ode_engine_egress_delivery_attempts_total", Help: "Delivery send attempts.", Value: float64(s.Attempts)},
		{Name: "ode_engine_egress_delivery_retries_total", Help: "Delivery re-attempts after a failure.", Value: float64(s.Retries)},
		{Name: "ode_engine_egress_delivery_gave_up_total", Help: "Delivery passes that exhausted bounded retries and stalled.", Value: float64(s.GaveUp)},
		{Name: "ode_engine_egress_cursor_saves_total", Help: "Durable delivery-cursor writes.", Value: float64(s.CursorSaves)},
		{Name: "ode_engine_egress_deliver_errors_dropped_total", Help: "Delivery errors evicted from the bounded error ring.", Value: float64(s.ErrsDropped)},
		{Name: "ode_engine_egress_cursor", Help: "Delivery position consumed through.", Type: "gauge", Value: float64(s.Pos)},
		{Name: "ode_engine_egress_lag", Help: "Feed positions the deliverer trails the head by.", Type: "gauge", Value: float64(s.Lag)},
	}
}

// HTTPSender POSTs each firing record as JSON to a webhook URL with
// the idempotency key in the Idempotency-Key header. Any non-2xx
// response is an error (and will be retried by the deliverer).
type HTTPSender struct {
	URL    string
	Client *http.Client
}

// Send implements Sender.
func (h *HTTPSender) Send(rec store.FiringRecord, idemKey string) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("egress: encode webhook body: %w", err)
	}
	req, err := http.NewRequest(http.MethodPost, h.URL, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("egress: build webhook request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", idemKey)
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("egress: webhook post: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("egress: webhook status %s", resp.Status)
	}
	return nil
}
