package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// rng is splitmix64: the whole input of a run is a pure function of
// -seed, independent of the Go release's math/rand.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in (0, 1].
func (r *rng) float() float64 { return float64(r.next()>>11+1) / (1 << 53) }

// calls is a flat run of generated method calls: entry i invokes
// methodNames[method[i]] on object obj[i] with amount[i].
type calls struct {
	obj    []uint32
	method []uint8
	amount []int32
}

func newCalls(n int) calls {
	return calls{obj: make([]uint32, 0, n), method: make([]uint8, 0, n), amount: make([]int32, 0, n)}
}

func (c *calls) add(obj uint32, method uint8, amount int32) {
	c.obj = append(c.obj, obj)
	c.method = append(c.method, method)
	c.amount = append(c.amount, amount)
}

func (c *calls) len() int { return len(c.obj) }

func (c *calls) hashInto(h hash.Hash) {
	var b [9]byte
	for i := range c.obj {
		binary.LittleEndian.PutUint32(b[0:], c.obj[i])
		b[4] = c.method[i]
		binary.LittleEndian.PutUint32(b[5:], uint32(c.amount[i]))
		h.Write(b[:])
	}
}

func digestOf(parts ...interface{ hashInto(hash.Hash) }) string {
	h := sha256.New()
	for _, p := range parts {
		p.hashInto(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ordinary draws the common case: a fair method and an amount in
// 1..1000.
func ordinary(r *rng) (uint8, int32) {
	return uint8(r.intn(2)), int32(1 + r.intn(1000))
}

// Every plantEvery-th transaction of single_masked (on average) carries
// rare amounts on one of hotObjects objects, so the composite triggers
// complete now and then while ≥ 99.9 % of mask evaluations reject.
const (
	txCalls     = 4
	hotObjects  = 64
	plantEvery  = 500
	rareAmount  = rareOver + 1
	plantShapes = 4
)

// genMasked generates nTx transactions of txCalls calls for
// single_masked and runs the model over them.
func genMasked(seed uint64, nObj, nTx, plantEvery int) (calls, *model) {
	r := &rng{s: seed}
	c := newCalls(nTx * txCalls)
	m := newModel(true, nObj)
	hot := hotObjects
	if hot > nObj {
		hot = nObj
	}
	for t := 0; t < nTx; t++ {
		base := c.len()
		for k := 0; k < txCalls; k++ {
			method, amount := ordinary(r)
			c.add(uint32(r.intn(nObj)), method, amount)
		}
		if r.intn(plantEvery) == 0 {
			h := uint32(r.intn(hot))
			at := base + r.intn(txCalls-1)
			switch r.intn(plantShapes) {
			case 0: // one rare deposit
				c.obj[at], c.method[at], c.amount[at] = h, mDeposit, rareAmount
			case 1: // one rare withdrawal
				c.obj[at], c.method[at], c.amount[at] = h, mWithdraw, rareAmount
			case 2: // rare deposit then rare withdrawal, same transaction
				c.obj[at], c.method[at], c.amount[at] = h, mDeposit, rareAmount
				c.obj[at+1], c.method[at+1], c.amount[at+1] = h, mWithdraw, rareAmount
			case 3: // two rare deposits, same transaction
				c.obj[at], c.method[at], c.amount[at] = h, mDeposit, rareAmount
				c.obj[at+1], c.method[at+1], c.amount[at+1] = h, mDeposit, rareAmount
			}
		}
		for i := base; i < c.len(); i++ {
			m.call(c.obj[i], c.method[i], int64(c.amount[i]))
		}
		m.commit()
	}
	return c, m
}

const batchLen = 256

// genBatches generates, for each of nProd producers, nSweep + nBatch
// batches of batchLen calls: first a sweep that makes one accepted
// deposit and one accepted withdrawal on every one of the producer's
// objects, in order, then nBatch batches of uniform picks. The sweep is
// the warm-up: an object's first accepted events allocate its
// provenance rings, so random picks would leave the heap growing — and
// the collector's cycles lengthening — all through the measured
// windows. Producer k owns the objects i with
// (i/2)%nProd == k, so each object's history is written by one producer
// in a fixed order and the expected firings do not depend on how the
// producers interleave; i%2 still spreads every producer's batch over
// both partitions.
func genBatches(seed uint64, nObj, nProd, nBatch int) (in []calls, nSweep int, m *model) {
	m = newModel(false, nObj)
	in = make([]calls, nProd)
	groups := nObj / (2 * nProd)
	nSweep = (2*2*groups + batchLen - 1) / batchLen
	for k := range in {
		r := &rng{s: seed + uint64(k)*0x51ed270b}
		c := newCalls((nSweep + nBatch) * batchLen)
		for i := 0; i < (nSweep+nBatch)*batchLen; i++ {
			method, amount := ordinary(r)
			var own int // which of the producer's 2*groups objects
			if i < nSweep*batchLen {
				own, method, amount = i/2%(2*groups), uint8(i%2), 1000
			} else {
				own = r.intn(2 * groups)
			}
			obj := uint32(2*nProd*(own/2) + 2*k + own%2)
			c.add(obj, method, amount)
			m.call(obj, method, int64(amount))
			if (i+1)%batchLen == 0 {
				m.commit()
			}
		}
		in[k] = c
	}
	return in, nSweep, m
}

// openTx is webhook_open's generated schedule: transaction i deposits
// dep[i] into and withdraws wdr[i] from object obj[i], due dueNs[i]
// after the rung starts. It fires exactly one trigger (Big) when
// dep[i] > commonOver; ordinal[i] is then the 1-based rank of that
// firing among the object's firings, which is how the receiver's
// effects are matched back to transactions.
type openTx struct {
	obj     []uint32
	dep     []int32
	wdr     []int32
	dueNs   []int64
	ordinal []uint32
}

func (o *openTx) hashInto(h hash.Hash) {
	var b [20]byte
	for i := range o.obj {
		binary.LittleEndian.PutUint32(b[0:], o.obj[i])
		binary.LittleEndian.PutUint32(b[4:], uint32(o.dep[i]))
		binary.LittleEndian.PutUint32(b[8:], uint32(o.wdr[i]))
		binary.LittleEndian.PutUint64(b[12:], uint64(o.dueNs[i]))
		h.Write(b[:])
	}
}

// genOpen appends one rung of n transactions at rate tx/s to o and the
// model: Poisson arrivals (independent clients), uniform objects, and
// exactly every second transaction — in a seeded shuffle — firing.
func genOpen(r *rng, o *openTx, m *model, fireCount []uint32, nObj, n int, rate float64) {
	fires := make([]bool, n)
	for i := range fires {
		fires[i] = i%2 == 0
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		fires[i], fires[j] = fires[j], fires[i]
	}
	var at float64
	for i := 0; i < n; i++ {
		at += -math.Log(r.float()) / rate
		obj := uint32(r.intn(nObj))
		dep := int32(1 + r.intn(commonOver))
		var ord uint32
		if fires[i] {
			dep = int32(commonOver + 1 + r.intn(1000-commonOver))
			fireCount[obj]++
			ord = fireCount[obj]
		}
		wdr := int32(1 + r.intn(commonOver))
		o.obj = append(o.obj, obj)
		o.dep = append(o.dep, dep)
		o.wdr = append(o.wdr, wdr)
		o.dueNs = append(o.dueNs, int64(at*1e9))
		o.ordinal = append(o.ordinal, ord)
		m.call(obj, mDeposit, int64(dep))
		m.call(obj, mWithdraw, int64(wdr))
		m.commit()
	}
}

const reportsPerTick = 1000

// genReports generates timer_storm's report calls: reportsPerTick per
// tick, uniform objects.
func genReports(seed uint64, nObj, nTicks int) calls {
	r := &rng{s: seed}
	c := newCalls(nTicks * reportsPerTick)
	for i := 0; i < nTicks*reportsPerTick; i++ {
		c.add(uint32(r.intn(nObj)), 0, int32(1+r.intn(1000)))
	}
	return c
}
