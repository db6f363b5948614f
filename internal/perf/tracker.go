package perf

import (
	"fmt"
	"testing"

	"lbrm/internal/seqtrack"
	"lbrm/internal/wire"
)

// TrackerArrival measures one receiver arrival — seqtrack Mark plus the
// AppendMissing the gap check runs after it — with a recovery episode
// holding the given number of out-of-order arrivals above the contiguity
// watermark. Four gaps stay open at every size, so the sub-benchmarks
// differ only in pending count and the per-arrival cost must stay flat.
func TrackerArrival(b *testing.B) {
	for _, pending := range []uint64{16, 256, 4096} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			lossEvery := pending / 4
			var tr seqtrack.Tracker
			for seq := uint64(1); seq <= pending; seq++ {
				if seq%lossEvery != 0 {
					tr.Mark(seq)
				}
			}
			dst := make([]wire.SeqRange, 0, wire.MaxNackRanges)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq := pending + uint64(i) + 1
				if seq%lossEvery == 0 {
					// A new loss at the head; repair the oldest one so the
					// episode keeps its size.
					tr.Mark(seq - pending)
				} else {
					tr.Mark(seq)
				}
				dst = tr.AppendMissing(dst[:0], 0, wire.MaxNackRanges)
			}
			// A loss at the head counts as a gap once the next seq lands.
			if n := len(dst); n < 3 || n > 4 {
				b.Fatalf("%d gaps open, want 3 or 4", n)
			}
		})
	}
}

// MeasureTrackerAllocs returns the average allocations of one tracker
// cycle after warm-up: a head mark that opens a gap, a repair that splits
// it, an in-order head mark, AppendMissing into a reused slice, a repair
// at the gap's front and an Advance past everything.
func MeasureTrackerAllocs(runs int) float64 {
	var tr seqtrack.Tracker
	dst := make([]wire.SeqRange, 0, wire.MaxNackRanges)
	cycle := func() {
		head := tr.Highest()
		tr.Mark(head + 100)
		tr.Mark(head + 50)
		tr.Mark(head + 101)
		dst = tr.AppendMissing(dst[:0], head+200, wire.MaxNackRanges)
		if len(dst) != 3 {
			panic(fmt.Sprintf("perf: tracker cycle missing %v, want 3 ranges", dst))
		}
		tr.Mark(head + 1)
		tr.Advance(head + 101)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	return testing.AllocsPerRun(runs, cycle)
}
