package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"lbrm"
	"lbrm/internal/wire"
)

// rxState is the application behind one receiver: it checks every
// delivery and keeps only what the report needs. The window's
// first-transmission latencies go into a fixed-size histogram, recoveries
// (a few per cent of deliveries) are kept one by one, and the per-slice
// delivery counts are read from count. OnData and OnLost run inside the
// receiver's serialized callbacks; count, first and from are the only
// fields other goroutines touch before the node closes.
type rxState struct {
	now    func() int64
	seen   bitset
	nData  int64
	dups   int64
	bad    int64
	badErr error
	lost   uint64 // sequence numbers reported by OnLost
	// from is the first sequence number sent inside the timed window
	// (math.MaxUint64 until the window opens). Nothing is sent after the
	// window, so seq >= from marks a window packet.
	from      atomic.Uint64
	firstLat  *latHist // window first transmissions; may be shared (netsim)
	recovered []int64  // send→deliver latency (ns) of window recoveries
	count     atomic.Int64
	first     chan struct{} // closed at the first delivery
	tr        *tracer       // traced run only
}

func newRxState(now func() int64, lat *latHist) *rxState {
	r := &rxState{now: now, firstLat: lat, first: make(chan struct{})}
	r.from.Store(math.MaxUint64)
	return r
}

func (r *rxState) onData(e lbrm.Event) {
	var t0 int64
	if r.tr != nil {
		t0 = mono()
	}
	at := r.now()
	stamp, err := checkPayload(e.Seq, e.Payload)
	if err != nil {
		r.bad++
		if r.badErr == nil {
			r.badErr = fmt.Errorf("seq %d: %w", e.Seq, err)
		}
	}
	if r.seen.set(e.Seq) {
		r.dups++
	}
	r.nData++
	if e.Seq >= r.from.Load() {
		if e.Retransmitted {
			r.recovered = append(r.recovered, at-stamp)
		} else {
			r.firstLat.add(at - stamp)
		}
	}
	if r.count.Add(1) == 1 {
		close(r.first)
	}
	if r.tr != nil {
		d := mono() - t0
		r.tr.acc[kOnData][0].add(d)
		r.tr.child += d
	}
}

func (r *rxState) onLost(_ lbrm.StreamKey, rg wire.SeqRange) {
	r.lost += rg.Count()
	if r.tr != nil && r.tr.rec != nil {
		r.tr.rec.lost(rg)
	}
}

// check reports the first application-level correctness failure:
// a corrupted or misnumbered payload, a seq delivered twice, or an OnData
// count that disagrees with the receiver's own DataDelivered.
func (r *rxState) check(name string, dataDelivered uint64) error {
	if r.bad > 0 {
		return fmt.Errorf("%s: %d bad payloads, first %v", name, r.bad, r.badErr)
	}
	if r.dups > 0 {
		return fmt.Errorf("%s: %d sequence numbers delivered twice", name, r.dups)
	}
	if uint64(r.nData) != dataDelivered {
		return fmt.Errorf("%s: OnData ran %d times but Stats().DataDelivered = %d", name, r.nData, dataDelivered)
	}
	return nil
}

// deliveredIn counts how many of seqs [lo, hi] this receiver delivered.
func (r *rxState) deliveredIn(lo, hi uint64) int64 {
	var n int64
	for s := lo; s <= hi; s++ {
		if r.seen.has(s) {
			n++
		}
	}
	return n
}

// bookkeepingMB is the memory the receivers' application state holds:
// delivered-seq bitsets, recoveries and hists latency histograms.
func bookkeepingMB(rx []*rxState, hists int) float64 {
	n := hists * int(unsafe.Sizeof(latHist{}))
	for _, r := range rx {
		n += cap(r.seen)*8 + cap(r.recovered)*8
	}
	return float64(n) / (1 << 20)
}
