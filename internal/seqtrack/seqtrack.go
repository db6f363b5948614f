// Package seqtrack implements the sequence-number bookkeeping shared by
// every LBRM endpoint that watches a stream: the contiguity watermark, the
// set of missing ranges above it, the late-join base (history a
// mid-stream joiner deliberately skips), and gap (missing-range)
// computation. The log store, the receiver, and the SRM baseline all track
// streams through this one type.
//
// Representation: the tracker holds the missing sequence numbers, not the
// received ones — a sorted, disjoint list of ranges inside
// (Contiguous, Highest]. Memory and every operation's cost scale with the
// number of gaps, never with how many packets arrived out of order or how
// wide a gap is: an in-order Mark is amortised O(1), a repair or a Seen
// query is a binary search over the gaps, and AppendMissing copies at most
// maxRanges ranges. A forged sequence number far ahead of the stream opens
// one range.
//
// Semantics: sequence numbers start at 1; 0 is never valid. The first
// Mark or SetBase establishes "contact"; SetBase after contact is a no-op,
// so a late joiner adopts the stream position exactly once.
package seqtrack

import (
	"slices"
	"sort"

	"lbrm/internal/wire"
)

// Tracker tracks one stream. The zero value is ready to use.
type Tracker struct {
	contacted bool
	base      uint64
	contig    uint64
	highest   uint64
	// gaps are the unmarked ranges in (contig, highest]: sorted, disjoint,
	// separated by at least one marked seq, with gaps[0].From == contig+1
	// whenever gaps is non-empty. highest itself is always marked (or
	// implied by SetBase/Advance), so no gap reaches it.
	gaps []wire.SeqRange
}

// Contacted reports whether the stream has been seen at all (any Mark or
// SetBase).
func (t *Tracker) Contacted() bool { return t.contacted }

// Base returns the late-join watermark: history ≤ Base is neither tracked
// nor reported missing.
func (t *Tracker) Base() uint64 { return t.base }

// Contiguous returns the highest c such that every sequence number in
// (Base, c] has been marked (Base when nothing has).
func (t *Tracker) Contiguous() uint64 { return t.contig }

// Highest returns the largest sequence number marked or implied (via
// SetBase).
func (t *Tracker) Highest() uint64 { return t.highest }

// SetBase declares history up to and including seq as deliberately
// skipped. It applies only on first contact and reports whether it did.
func (t *Tracker) SetBase(seq uint64) bool {
	if t.contacted {
		return false
	}
	t.contacted = true
	t.base = seq
	t.contig = seq
	t.highest = seq
	return true
}

// Mark records seq as seen. It returns false for 0, for duplicates, and
// for sequence numbers at or below the base watermark. A mark past the
// head is amortised O(1) (it opens at most one gap); a repair inside a gap
// is a binary search plus shrinking, removing or splitting that gap.
func (t *Tracker) Mark(seq uint64) bool {
	if seq <= t.contig { // 0, or at/below the watermark
		return false
	}
	if seq > t.highest {
		t.contacted = true
		if seq > t.highest+1 {
			t.gaps = append(t.gaps, wire.SeqRange{From: t.highest + 1, To: seq - 1})
		}
		t.highest = seq
		if len(t.gaps) == 0 {
			t.contig = seq
		}
		return true
	}
	i, ok := t.gapOf(seq)
	if !ok {
		return false
	}
	switch g := &t.gaps[i]; {
	case g.From == g.To:
		t.gaps = slices.Delete(t.gaps, i, i+1)
	case seq == g.From:
		g.From++
	case seq == g.To:
		g.To--
	default:
		tail := wire.SeqRange{From: seq + 1, To: g.To}
		g.To = seq - 1
		t.gaps = slices.Insert(t.gaps, i+1, tail)
	}
	if i == 0 {
		t.resetContig()
	}
	return true
}

// gapOf returns the index of the gap holding seq, and whether one does.
func (t *Tracker) gapOf(seq uint64) (int, bool) {
	i := sort.Search(len(t.gaps), func(i int) bool { return t.gaps[i].To >= seq })
	return i, i < len(t.gaps) && t.gaps[i].From <= seq
}

// resetContig re-derives the contiguity watermark from the first gap.
func (t *Tracker) resetContig() {
	if len(t.gaps) == 0 {
		t.contig = t.highest
	} else {
		t.contig = t.gaps[0].From - 1
	}
}

// Seen reports whether seq has been marked (or skipped by the base).
func (t *Tracker) Seen(seq uint64) bool {
	_, missing := t.gapOf(seq)
	return seq <= t.highest && !missing
}

// Missing returns up to maxRanges ranges of unmarked sequence numbers in
// (Contiguous, hi]. hi of 0 means Highest(); maxRanges ≤ 0 means
// wire.MaxNackRanges. Cost is O(min(gaps, maxRanges)), independent of the
// width of the gaps — a forged sequence number cannot make this expensive.
func (t *Tracker) Missing(hi uint64, maxRanges int) []wire.SeqRange {
	return t.AppendMissing(nil, hi, maxRanges)
}

// AppendMissing appends the missing ranges to dst and returns the extended
// slice (see Missing for the range semantics): the tracked gaps up to hi,
// the last one clipped to hi, then (Highest, hi] when hi is past the head.
// Callers on hot paths pass a reused dst (typically dst[:0]) to make gap
// computation allocation-free.
func (t *Tracker) AppendMissing(dst []wire.SeqRange, hi uint64, maxRanges int) []wire.SeqRange {
	if hi == 0 {
		hi = t.highest
	}
	if maxRanges <= 0 {
		maxRanges = wire.MaxNackRanges
	}
	if hi <= t.contig {
		return dst
	}
	base := len(dst)
	for _, g := range t.gaps {
		if g.From > hi {
			return dst
		}
		g.To = min(g.To, hi)
		dst = append(dst, g)
		if len(dst)-base == maxRanges {
			return dst
		}
	}
	if hi > t.highest {
		dst = append(dst, wire.SeqRange{From: t.highest + 1, To: hi})
	}
	return dst
}

// Advance force-skips history: every sequence number up to and including
// seq counts as seen (without having been delivered). Endpoints use it to
// bound how far behind they are willing to chase — receiver-reliable
// semantics prefer adopting the stream's current position over unbounded
// recovery, and it defuses forged sequence numbers.
func (t *Tracker) Advance(seq uint64) {
	if seq <= t.contig {
		return
	}
	t.contacted = true
	if seq >= t.highest {
		t.highest = seq
		t.gaps = t.gaps[:0]
		t.contig = seq
		return
	}
	drop := sort.Search(len(t.gaps), func(i int) bool { return t.gaps[i].To > seq })
	t.gaps = slices.Delete(t.gaps, 0, drop)
	if len(t.gaps) > 0 && t.gaps[0].From <= seq {
		t.gaps[0].From = seq + 1
	}
	t.resetContig()
}

// Pending returns the number of marked sequence numbers held above the
// contiguity watermark (how far arrivals ran ahead of the in-order point).
// It is derived from the gaps, so it costs O(gaps).
func (t *Tracker) Pending() int {
	n := t.highest - t.contig
	for _, g := range t.gaps {
		n -= g.Count()
	}
	return int(n)
}
