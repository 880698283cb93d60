package main

import "fmt"

// ledger records which triggers fired on which object, in order: one
// order-sensitive hash per object plus a count per (object, trigger).
// The model fills one while generating; the trigger actions fill
// another while the program runs; the run is correct when they are
// equal. An object is only ever written by the goroutine that owns it
// (the single producer, or its partition's loop), so no locking.
type ledger struct {
	nTrig int
	hash  []uint64
	count []uint32 // [obj*nTrig+slot]
}

func newLedger(nObj, nTrig int) *ledger {
	return &ledger{nTrig: nTrig, hash: make([]uint64, nObj), count: make([]uint32, nObj*nTrig)}
}

func (l *ledger) fire(obj, slot int) {
	l.hash[obj] = l.hash[obj]*0x100000001b3 ^ uint64(slot+1)
	l.count[obj*l.nTrig+slot]++
}

func (l *ledger) total() uint64 {
	var n uint64
	for _, c := range l.count {
		n += uint64(c)
	}
	return n
}

// diff returns the number of objects whose firings differ from want's
// and a description of the first.
func (l *ledger) diff(want *ledger) (int, string) {
	bad, first := 0, ""
	for obj := range l.hash {
		lo, hi := obj*l.nTrig, (obj+1)*l.nTrig
		same := l.hash[obj] == want.hash[obj]
		for i := lo; same && i < hi; i++ {
			same = l.count[i] == want.count[i]
		}
		if !same {
			if bad == 0 {
				first = fmt.Sprintf("object %d fired %v per trigger, model says %v", obj, l.count[lo:hi], want.count[lo:hi])
			}
			bad++
		}
	}
	return bad, first
}

// model is the plain-Go reference for the account triggers: it is fed
// the generated calls in each object's history order and keeps, per
// object, only what the event forms need — never the history. An
// object's history points are, per transaction that touches it:
// after tbegin, then before m / after m per call, then before
// tcomplete and after tcommit. No generated transaction aborts.
type model struct {
	masked  bool
	led     *ledger
	balance []int64
	obj     []modelObj
	touched []uint32 // objects the open transaction has accessed
}

type modelObj struct {
	deps, wdrs uint32 // mask-accepted deposits / withdrawals so far
	faArmed    bool   // an accepted deposit with no accepted withdrawal or commit since
	txDeposit  bool   // an accepted deposit already in the open transaction
	inTx       bool
}

func newModel(masked bool, nObj int) *model {
	nTrig := len(durableTriggers())
	if masked {
		nTrig = len(maskedTriggers())
	}
	return &model{masked: masked, led: newLedger(nObj, nTrig), balance: make([]int64, nObj), obj: make([]modelObj, nObj)}
}

func (m *model) call(obj uint32, method uint8, amount int64) {
	o := &m.obj[obj]
	if !o.inTx {
		o.inTx = true
		m.touched = append(m.touched, obj)
	}
	if method == mDeposit {
		m.balance[obj] += amount
	} else {
		m.balance[obj] -= amount
	}
	if m.masked {
		m.maskedCall(int(obj), o, method, amount > rareOver)
	} else {
		m.durableCall(int(obj), o, method, amount > commonOver)
	}
}

// maskedCall fires maskedTriggers' slots in slot order.
func (m *model) maskedCall(obj int, o *modelObj, method uint8, accepted bool) {
	if !accepted {
		return
	}
	if method == mDeposit {
		o.deps++
		m.led.fire(obj, 0) // Big
		if o.wdrs > 0 {
			m.led.fire(obj, 2) // Prior: an accepted withdrawal came earlier
		}
		if o.deps == 3 {
			m.led.fire(obj, 4) // Choose3
		}
		if !o.txDeposit {
			m.led.fire(obj, 7) // TxFirst: first accepted deposit since tbegin
		}
		o.txDeposit = true
		o.faArmed = true
		return
	}
	o.wdrs++
	if o.deps > 0 {
		m.led.fire(obj, 1) // Rel: an accepted deposit came earlier
	}
	m.led.fire(obj, 3) // Seq: before withdraw is always followed by after withdraw
	if o.wdrs%5 == 0 {
		m.led.fire(obj, 5) // Every5
	}
	if o.faArmed {
		m.led.fire(obj, 6) // Fa: first accepted withdrawal after a deposit, no commit between
	}
	o.faArmed = false
}

// durableCall fires durableTriggers' slots in slot order.
func (m *model) durableCall(obj int, o *modelObj, method uint8, accepted bool) {
	if !accepted {
		return
	}
	if method == mDeposit {
		o.deps++
		m.led.fire(obj, 0) // Big
		return
	}
	o.wdrs++
	if o.wdrs%5 == 0 {
		m.led.fire(obj, 1) // Every5
	}
	if o.deps > 0 {
		m.led.fire(obj, 2) // Rel
	}
}

// commit ends the open transaction: after tcommit reaches every object
// it touched.
func (m *model) commit() {
	for _, obj := range m.touched {
		o := &m.obj[obj]
		o.inTx, o.txDeposit, o.faArmed = false, false, false
	}
	m.touched = m.touched[:0]
}
