package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// traceCapacity bounds the spans one run keeps (32 bytes each).
const traceCapacity = 1 << 20

// Span names. A span is recorded by the harness around one of its own
// calls into a layer's public function; nothing inside the program is
// instrumented.
const (
	spWindow      = iota // one measured window; its self time is the unsampled work
	spTx                 // one sampled request, root of its layer spans
	spBegin              // engine.Begin
	spCall               // Tx.Call that the model says fires nothing
	spCallFiring         // Tx.Call that the model says fires
	spCommit             // Tx.Commit
	spSplit              // part.DB.SplitBatch
	spSubmitLag          // due time → DoAsync call: the scheduler was late or still blocked
	spInboxWait          // DoAsync call → first line of the submitted fn
	spPostBatch          // Tx.PostBatch
	spAckWait            // fn returned → submitter received the result
	spAdvance            // Clock().Advance(period)
	spPublishWait        // commit ack → deliverer starts Send for the firing
	spSend               // HTTPSender.Send
	spCheckpoint         // part.DB.Checkpoint
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spWindow: "bench.window", spTx: "bench.request", spBegin: "engine.Begin", spCall: "engine.Tx.Call",
	spCallFiring: "engine.Tx.Call(firing)", spCommit: "engine.Tx.Commit", spSplit: "part.DB.SplitBatch",
	spSubmitLag: "gen.submit_lag", spInboxWait: "part.inbox_wait", spPostBatch: "engine.Tx.PostBatch",
	spAckWait: "part.ack_wait", spAdvance: "clock.Advance", spPublishWait: "egress.publish_to_send",
	spSend: "egress.HTTPSender.Send", spCheckpoint: "part.DB.Checkpoint",
}

// span is one timed interval. Parent is the 1-based index of the span
// that caused it (0 for a root); spans of one request share Req.
type span struct {
	Name       uint16
	Parent     int32
	Req        uint32
	Start, End int64 // ns on the harness clock
}

// tracer holds spans in memory until the run ends. Slots are reserved
// with one atomic add, so the producer goroutines, the partition loops
// and the deliverer record without a lock; a full buffer drops (and
// counts) further spans.
type tracer struct {
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, capacity)}
}

// now is the harness clock: spans and the workloads' own latency
// samples share one time base.
func (t *tracer) now() int64 { return nowNs() }

// record stores a finished span and returns its reference for use as a
// parent (0 when dropped).
func (t *tracer) record(name int, parent int32, req uint32, start, end int64) int32 {
	i := t.n.Add(1)
	if int(i) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[i-1] = span{Name: uint16(name), Parent: parent, Req: req, Start: start, End: end}
	return int32(i)
}

// begin reserves a span that starts now; finish closes it.
func (t *tracer) begin(name int, parent int32, req uint32) int32 {
	return t.record(name, parent, req, t.now(), 0)
}

func (t *tracer) finish(ref int32) {
	if t != nil && ref > 0 {
		t.spans[ref-1].End = t.now()
	}
}

func (t *tracer) recorded() []span {
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// durations returns the durations (ns) of every span with the name.
func (t *tracer) durations(name int) []int64 { return spanDurations(t.recorded(), name) }

// selfRow is one line of the self-time table.
type selfRow struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	SelfMs   float64 `json:"self_ms"`
	Share    float64 `json:"share"`
	MedianNs float64 `json:"median_ns"`
}

// selfTimes computes each span's self time and totals it per name. A
// span's self time is the wall time during which it was running and no
// child of it was; where several spans are in that position at once —
// two partitions working on one batch, requests overlapping on the open
// loop — the instant is shared equally among them. Every instant
// covered by a span is thus counted exactly once, and the self times
// sum to the traced wall time (wallNs: the union of the root spans).
func (t *tracer) selfTimes() (rows []selfRow, wallNs int64) {
	spans := t.recorded()
	type event struct {
		at    int64
		start bool
		span  int32
	}
	events := make([]event, 0, 2*len(spans))
	var roots [][2]int64
	for i, s := range spans {
		if s.End > s.Start {
			events = append(events, event{s.Start, true, int32(i)}, event{s.End, false, int32(i)})
		}
		if s.Parent == 0 {
			roots = append(roots, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return !events[a].start && events[b].start // ends first
	})
	sort.Slice(roots, func(a, b int) bool { return roots[a][0] < roots[b][0] })
	edge := int64(0)
	for _, r := range roots {
		if r[0] > edge {
			edge = r[0]
		}
		if r[1] > edge {
			wallNs += r[1] - edge
			edge = r[1]
		}
	}

	// A span is a leaf while it runs with no counted child running.
	// credit is the integral of dt / (number of leaves); a span's self
	// time is the credit that accrued while it was a leaf.
	var (
		active  = make([]bool, len(spans))
		counted = make([]bool, len(spans)) // this span is in its parent's kids
		leaf    = make([]bool, len(spans))
		kids    = make([]int32, len(spans))
		since   = make([]float64, len(spans))
		self    = make([]float64, len(spans))
		credit  float64
		leaves  int
		last    int64
	)
	enter := func(i int32) { leaf[i], since[i] = true, credit; leaves++ }
	exit := func(i int32) { self[i] += credit - since[i]; leaf[i] = false; leaves-- }
	for _, e := range events {
		if leaves > 0 {
			credit += float64(e.at-last) / float64(leaves)
		}
		last = e.at
		i := e.span
		p := spans[i].Parent - 1
		if e.start {
			active[i] = true
			if p >= 0 && active[p] {
				counted[i] = true
				kids[p]++
				if leaf[p] {
					exit(p)
				}
			}
			enter(i)
			continue
		}
		if leaf[i] {
			exit(i)
		}
		active[i] = false
		if counted[i] && active[p] {
			if kids[p]--; kids[p] == 0 {
				enter(p)
			}
		}
	}

	total := make([]float64, numSpanNames)
	count := make([]int, numSpanNames)
	for i, s := range spans {
		total[s.Name] += self[i]
		count[s.Name]++
	}
	for name := 0; name < numSpanNames; name++ {
		if count[name] == 0 {
			continue
		}
		row := selfRow{Name: spanNames[name], Count: count[name], SelfMs: total[name] / 1e6,
			MedianNs: quantile(sortedCopy(t.durations(name)), 0.5)}
		if wallNs > 0 {
			row.Share = total[name] / float64(wallNs)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].SelfMs > rows[b].SelfMs })
	return rows, wallNs
}

// write flushes the spans as JSON: {name, start, end, parent, req} with
// times in ns since the epoch.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"epoch_unix_ns\":%d,\"dropped\":%d,\"spans\":[", workload, epoch.UnixNano(), t.dropped.Load())
	for i, s := range t.recorded() {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"req\":%d}",
			i+1, spanNames[s.Name], s.Start, s.End, s.Parent, s.Req)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
