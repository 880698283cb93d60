package mask

import "ode/internal/value"

// Batch evaluation support: the posting engine's PostBatch hot path
// evaluates many compiled programs per batch and cannot afford the
// per-evaluation atomic metric updates (or per-row allocations) the
// one-at-a-time path pays. EvalBits runs one trigger's mask bits and
// reports counts for a deferred flush.

// EvalBits evaluates the compiled program of every mask bit set in
// used over the dense event and trigger parameter slices, returning
// the verdict bits. evals and falses report how many programs ran and
// how many returned false, so callers can batch their metric updates
// instead of paying one atomic add per bit. progs[bit] must be
// non-nil for every used bit (the engine compiles exactly the used
// bits at registration). The first evaluation error aborts the scan;
// the erroring evaluation is included in evals.
func EvalBits(progs []*Program, used uint32, ev, trig []value.Value, h Host) (bits uint32, evals, falses uint32, err error) {
	for bit := range progs {
		if used&(1<<uint(bit)) == 0 {
			continue
		}
		evals++
		ok, perr := progs[bit].EvalBool(ev, trig, h)
		if perr != nil {
			return 0, evals, falses, perr
		}
		if ok {
			bits |= 1 << uint(bit)
		} else {
			falses++
		}
	}
	return bits, evals, falses, nil
}
