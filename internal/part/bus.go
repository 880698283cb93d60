package part

import (
	"sort"

	"ode/internal/engine"
	"ode/internal/store"
	"ode/internal/value"
)

// The sequenced cross-partition bus. Composite events whose automata
// reference events on objects in different partitions (`prior`,
// `relative`, `sequence` spanning partitions) are fed by forwarding
// the primitive occurrence to the referencing object's partition as a
// bus message. Each message carries a (source partition, sequence)
// stamp; the receiving loop collects its pending inbox between jobs
// and executes the messages in ascending (seq, source) order, each in
// its own transaction.
//
// Determinism argument: within one source, stamps are assigned in send
// order, so messages from the same source never reorder. Across
// sources, the (seq, source) sort is a fixed total order over whatever
// set of messages is pending at a drain point — so for a fixed
// schedule (the sim harness submits jobs synchronously and inserts
// Drain barriers), the pending set at every drain point, and therefore
// the merged order, is a pure function of the schedule. The trace
// checker (internal/oracle) models each (object, trigger) instance and
// sees exactly the per-instance subsequence this order induces, so it
// passes on multi-partition runs unchanged.

// ExternalSource is the Relay source id for senders that are not a
// partition (tests, adapters). Its messages sort after any
// partition's at equal sequence numbers.
const ExternalSource = 1 << 30

// busMsg is one forwarded occurrence on the bus.
type busMsg struct {
	src int
	seq uint64
	fn  func(*engine.Engine) error
}

// Relay forwards work to oid's owning partition, stamped with src's
// next bus sequence number. fn runs inside the owning loop (its own
// transaction boundary is up to fn); errors are recorded on the
// receiving partition (RelayErrors). Relay never blocks on the target
// loop, so a trigger action may relay to any partition — including its
// own, where the message is deferred until after the current job (and
// its transaction) finishes. src is the sending partition's id, or
// ExternalSource for non-partition senders.
func (db *DB) Relay(src int, oid store.OID, fn func(*engine.Engine) error) {
	if db.closed.Load() {
		return
	}
	var seqSrc *Partition
	if src >= 0 && src < len(db.parts) {
		seqSrc = db.parts[src]
	} else {
		src = ExternalSource
		seqSrc = db.parts[0] // external senders share partition 0's counter
	}
	tgt := db.parts[db.PartitionOf(oid)]
	m := busMsg{src: src, seq: seqSrc.seqOut.Add(1), fn: fn}
	db.pending.Add(1)
	tgt.busMu.Lock()
	tgt.inbox = append(tgt.inbox, m)
	tgt.busMu.Unlock()
	// Nudge the loop in case it is idle; a full wake channel means a
	// nudge is already pending.
	select {
	case tgt.wake <- struct{}{}:
	default:
	}
}

// RelayCall forwards a primitive occurrence — a method call on oid —
// to oid's owning partition, where it posts in its own transaction.
// This is the bus's canonical payload: the forwarded call's happenings
// drive the cross-partition composite automata on the target object.
func (db *DB) RelayCall(src int, oid store.OID, method string, args ...value.Value) {
	db.Relay(src, oid, func(e *engine.Engine) error {
		return e.Transact(func(tx *engine.Tx) error {
			_, err := tx.Call(oid, method, args...)
			return err
		})
	})
}

// drainBus executes every pending bus message, merging in (seq,
// source) order; it loops because executing a message can enqueue more
// (including to this partition). Runs on the loop goroutine only.
func (p *Partition) drainBus() {
	for {
		p.busMu.Lock()
		msgs := p.inbox
		p.inbox = nil
		p.busMu.Unlock()
		if len(msgs) == 0 {
			return
		}
		sort.Slice(msgs, func(i, j int) bool {
			if msgs[i].seq != msgs[j].seq {
				return msgs[i].seq < msgs[j].seq
			}
			return msgs[i].src < msgs[j].src
		})
		for _, m := range msgs {
			if err := m.fn(p.eng); err != nil {
				p.recordRelayErr(err)
			}
			p.db.pending.Add(-1)
		}
	}
}

func (p *Partition) recordRelayErr(err error) {
	p.relayMu.Lock()
	p.relayErrs = append(p.relayErrs, err)
	p.relayMu.Unlock()
}

// RelayErrors returns the errors bus messages delivered to this
// partition have produced (empty in healthy runs).
func (p *Partition) RelayErrors() []error {
	p.relayMu.Lock()
	defer p.relayMu.Unlock()
	out := make([]error, len(p.relayErrs))
	copy(out, p.relayErrs)
	return out
}

// RelayErrors returns the relay errors of every partition, in
// partition order.
func (db *DB) RelayErrors() []error {
	var out []error
	for _, pt := range db.parts {
		out = append(out, pt.RelayErrors()...)
	}
	return out
}
