package seqtrack

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"lbrm/internal/wire"
)

func TestZeroValueUsable(t *testing.T) {
	var tr Tracker
	if tr.Contacted() || tr.Contiguous() != 0 || tr.Highest() != 0 {
		t.Fatal("zero value not pristine")
	}
	if !tr.Mark(1) {
		t.Fatal("Mark(1) on zero value failed")
	}
	if tr.Contiguous() != 1 {
		t.Fatalf("Contiguous = %d", tr.Contiguous())
	}
}

func TestMarkRejectsZeroAndDuplicates(t *testing.T) {
	var tr Tracker
	if tr.Mark(0) {
		t.Fatal("Mark(0) accepted")
	}
	if !tr.Mark(3) || tr.Mark(3) {
		t.Fatal("duplicate handling wrong")
	}
}

func TestContiguityAdvancesThroughSparse(t *testing.T) {
	var tr Tracker
	for _, q := range []uint64{2, 4, 5} {
		tr.Mark(q)
	}
	if tr.Contiguous() != 0 || tr.Pending() != 3 {
		t.Fatalf("contig=%d pending=%d", tr.Contiguous(), tr.Pending())
	}
	tr.Mark(1)
	if tr.Contiguous() != 2 {
		t.Fatalf("contig = %d, want 2", tr.Contiguous())
	}
	tr.Mark(3)
	if tr.Contiguous() != 5 || tr.Pending() != 0 {
		t.Fatalf("contig=%d pending=%d, want 5,0", tr.Contiguous(), tr.Pending())
	}
}

func TestSetBaseOnlyOnFirstContact(t *testing.T) {
	var tr Tracker
	if !tr.SetBase(10) {
		t.Fatal("first SetBase rejected")
	}
	if tr.SetBase(20) {
		t.Fatal("second SetBase applied")
	}
	if tr.Base() != 10 || tr.Contiguous() != 10 {
		t.Fatalf("base=%d contig=%d", tr.Base(), tr.Contiguous())
	}
	// Below-base marks are rejected (already "seen" as skipped history).
	if tr.Mark(5) {
		t.Fatal("Mark below base accepted")
	}
	if !tr.Mark(11) || tr.Contiguous() != 11 {
		t.Fatal("post-base mark broken")
	}
	// Mark-then-SetBase: contact came from the mark.
	var tr2 Tracker
	tr2.Mark(3)
	if tr2.SetBase(7) {
		t.Fatal("SetBase applied after Mark contact")
	}
}

func TestMissingRangesAndCaps(t *testing.T) {
	var tr Tracker
	for _, q := range []uint64{1, 4, 5, 9} {
		tr.Mark(q)
	}
	got := tr.Missing(0, 0)
	want := []wire.SeqRange{{From: 2, To: 3}, {From: 6, To: 8}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	if got := tr.Missing(12, 0); got[len(got)-1] != (wire.SeqRange{From: 10, To: 12}) {
		t.Fatalf("Missing(12) tail = %v", got)
	}
	if got := tr.Missing(0, 1); len(got) != 1 {
		t.Fatalf("cap ignored: %v", got)
	}
}

// Property: marking any permutation of (base, base+n] yields full
// contiguity, no pending state, and no missing ranges.
func TestPermutationProperty(t *testing.T) {
	f := func(seed int64, baseRaw uint16, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		base := uint64(baseRaw)
		n := int(nRaw%80) + 1
		var tr Tracker
		if base > 0 {
			tr.SetBase(base)
		}
		perm := rng.Perm(n)
		for _, i := range perm {
			if !tr.Mark(base + uint64(i) + 1) {
				return false
			}
		}
		return tr.Contiguous() == base+uint64(n) &&
			tr.Pending() == 0 &&
			len(tr.Missing(0, 0)) == 0 &&
			tr.Highest() == base+uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Missing exactly complements Seen over (Base, Highest].
func TestComplementProperty(t *testing.T) {
	f := func(raw []uint16, baseRaw uint8) bool {
		var tr Tracker
		base := uint64(baseRaw % 20)
		if base > 0 {
			tr.SetBase(base)
		}
		for _, q := range raw {
			tr.Mark(base + uint64(q%150) + 1)
		}
		missing := map[uint64]bool{}
		for _, r := range tr.Missing(0, 0) {
			for q := r.From; q <= r.To; q++ {
				missing[q] = true
			}
		}
		for q := base + 1; q <= tr.Highest(); q++ {
			if tr.Seen(q) == missing[q] {
				return false
			}
		}
		// Nothing below or at base is ever missing.
		for q := range missing {
			if q <= base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: invariants hold under arbitrary interleavings: contig ≤
// highest, Seen(contig) true (when above base), ranges sorted and
// non-overlapping.
func TestInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		var tr Tracker
		for _, op := range ops {
			seq := uint64(op%300) + 1
			if op%7 == 0 {
				tr.SetBase(seq)
			} else {
				tr.Mark(seq)
			}
			if tr.Contiguous() > tr.Highest() || tr.Base() > tr.Contiguous() {
				return false
			}
			prev := uint64(0)
			for _, r := range tr.Missing(0, 0) {
				if r.From <= prev || r.To < r.From {
					return false
				}
				prev = r.To
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMissingIsCheapForHugeGaps(t *testing.T) {
	var tr Tracker
	tr.Mark(1)
	tr.Mark(1 << 60) // forged/hostile head
	// Must return instantly (one range, O(gaps)) with the capped range set.
	got := tr.Missing(0, 3)
	if len(got) != 1 || got[0].From != 2 || got[0].To != (1<<60)-1 {
		t.Fatalf("Missing = %v", got)
	}
}

func TestAdvanceSkipsHistory(t *testing.T) {
	var tr Tracker
	tr.Mark(1)
	tr.Mark(5)
	tr.Mark(100)
	tr.Advance(50)
	if tr.Contiguous() != 50 {
		t.Fatalf("Contiguous = %d, want 50", tr.Contiguous())
	}
	if !tr.Seen(30) || !tr.Seen(5) {
		t.Fatal("skipped seqs not Seen")
	}
	if tr.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (seq 100)", tr.Pending())
	}
	// Advance through retained sparse marks compacts.
	tr.Advance(99)
	if tr.Contiguous() != 100 || tr.Pending() != 0 {
		t.Fatalf("contig=%d pending=%d, want 100,0", tr.Contiguous(), tr.Pending())
	}
	// No-op backwards.
	tr.Advance(10)
	if tr.Contiguous() != 100 {
		t.Fatal("backward Advance mutated state")
	}
}

// mapTracker is the reference model: the original representation, which
// keeps every out-of-order arrival in a map and rebuilds the gap list by
// scanning and sorting it. It is kept only to pin the range-set Tracker to
// the same observable behaviour.
type mapTracker struct {
	contacted bool
	base      uint64
	contig    uint64
	highest   uint64
	seen      map[uint64]bool
}

func (t *mapTracker) SetBase(seq uint64) bool {
	if t.contacted {
		return false
	}
	t.contacted = true
	t.base, t.contig, t.highest = seq, seq, seq
	return true
}

func (t *mapTracker) Seen(seq uint64) bool { return seq <= t.contig || t.seen[seq] }

func (t *mapTracker) Mark(seq uint64) bool {
	if seq == 0 || t.Seen(seq) {
		return false
	}
	t.contacted = true
	t.highest = max(t.highest, seq)
	if seq == t.contig+1 {
		t.contig++
		for t.seen[t.contig+1] {
			t.contig++
			delete(t.seen, t.contig)
		}
		return true
	}
	if t.seen == nil {
		t.seen = make(map[uint64]bool)
	}
	t.seen[seq] = true
	return true
}

func (t *mapTracker) AppendMissing(dst []wire.SeqRange, hi uint64, maxRanges int) []wire.SeqRange {
	if hi == 0 {
		hi = t.highest
	}
	if maxRanges <= 0 {
		maxRanges = wire.MaxNackRanges
	}
	if hi <= t.contig {
		return dst
	}
	var keys []uint64
	for q := range t.seen {
		if q > t.contig && q <= hi {
			keys = append(keys, q)
		}
	}
	slices.Sort(keys)
	base := len(dst)
	next := t.contig + 1
	for _, k := range keys {
		if k > next {
			dst = append(dst, wire.SeqRange{From: next, To: k - 1})
			if len(dst)-base == maxRanges {
				return dst
			}
		}
		next = k + 1
	}
	// next wraps to 0 after a mark at MaxUint64; nothing lies above it.
	if next != 0 && next <= hi {
		dst = append(dst, wire.SeqRange{From: next, To: hi})
	}
	return dst
}

func (t *mapTracker) Advance(seq uint64) {
	if seq <= t.contig {
		return
	}
	t.contacted = true
	t.contig = seq
	t.highest = max(t.highest, seq)
	for q := range t.seen {
		if q <= seq {
			delete(t.seen, q)
		}
	}
	for t.seen[t.contig+1] {
		t.contig++
		delete(t.seen, t.contig)
	}
}

func (t *mapTracker) Pending() int { return len(t.seen) }

// trackerOp is one step of a differential run.
type trackerOp struct {
	kind byte // 0 Mark, 1 SetBase, 2 Advance
	seq  uint64
}

// diffCheck applies op to both trackers and compares every accessor,
// including AppendMissing for hi below, at, inside and above the head with
// caps of 1, 2, the default and MaxNackRanges.
func diffCheck(t *testing.T, got *Tracker, want *mapTracker, op trackerOp, probes []uint64) {
	t.Helper()
	switch op.kind % 3 {
	case 0:
		if g, w := got.Mark(op.seq), want.Mark(op.seq); g != w {
			t.Fatalf("Mark(%d) = %v, model %v", op.seq, g, w)
		}
	case 1:
		if g, w := got.SetBase(op.seq), want.SetBase(op.seq); g != w {
			t.Fatalf("SetBase(%d) = %v, model %v", op.seq, g, w)
		}
	case 2:
		got.Advance(op.seq)
		want.Advance(op.seq)
	}
	if got.Contacted() != want.contacted || got.Base() != want.base ||
		got.Contiguous() != want.contig || got.Highest() != want.highest ||
		got.Pending() != want.Pending() {
		t.Fatalf("after %+v: contacted/base/contig/highest/pending = %v/%d/%d/%d/%d, model %v/%d/%d/%d/%d",
			op, got.Contacted(), got.Base(), got.Contiguous(), got.Highest(), got.Pending(),
			want.contacted, want.base, want.contig, want.highest, want.Pending())
	}
	his := []uint64{0, want.contig, want.highest, want.highest / 2, want.contig + 1}
	if want.highest < ^uint64(0) {
		his = append(his, want.highest+1, want.highest+1000)
	}
	if want.highest > 3 {
		his = append(his, want.highest-3)
	}
	his = append(his, probes...)
	var dg, dw []wire.SeqRange
	for _, hi := range his {
		for _, cap := range []int{1, 2, 0, wire.MaxNackRanges} {
			dg = got.AppendMissing(dg[:0], hi, cap)
			dw = want.AppendMissing(dw[:0], hi, cap)
			if !slices.Equal(dg, dw) {
				t.Fatalf("after %+v: AppendMissing(hi=%d, cap=%d) = %v, model %v", op, hi, cap, dg, dw)
			}
		}
	}
	for _, q := range append(probes, want.contig, want.contig+1, want.highest, want.highest+1) {
		if got.Seen(q) != want.Seen(q) {
			t.Fatalf("after %+v: Seen(%d) = %v, model %v", op, q, got.Seen(q), want.Seen(q))
		}
	}
}

// randomOp draws an op that mostly lands near the stream head (in-order
// arrivals, short and long skips, repairs, duplicates) with occasional
// SetBase, Advance and forged sequence numbers near 2^64.
func randomOp(rng *rand.Rand, head uint64) trackerOp {
	near := func(span uint64) uint64 {
		lo := uint64(0)
		if head > span {
			lo = head - span
		}
		return lo + uint64(rng.Int63n(int64(2*span+1)))
	}
	switch r := rng.Intn(100); {
	case r < 2:
		return trackerOp{kind: 1, seq: near(20)}
	case r < 6:
		return trackerOp{kind: 2, seq: near(40)}
	case r < 7:
		return trackerOp{kind: 0, seq: ^uint64(0) - uint64(rng.Intn(4))}
	case r < 8:
		return trackerOp{kind: 2, seq: ^uint64(0) - uint64(rng.Intn(4))}
	case r < 40:
		return trackerOp{kind: 0, seq: head + 1}
	case r < 55:
		return trackerOp{kind: 0, seq: head + 2 + uint64(rng.Intn(5))}
	default:
		return trackerOp{kind: 0, seq: near(60)}
	}
}

// TestTrackerMatchesMapModel drives the range-set Tracker and the map
// reference model through the same randomized interleavings of Mark,
// SetBase and Advance and requires every accessor to agree after each op.
func TestTrackerMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got Tracker
		var want mapTracker
		for i := 0; i < 300; i++ {
			op := randomOp(rng, want.highest)
			probes := []uint64{op.seq, uint64(rng.Int63n(int64(want.highest%1000 + 2)))}
			diffCheck(t, &got, &want, op, probes)
		}
	}
}

// FuzzTracker is the differential check under coverage guidance: each
// nine-byte record is an op kind and a sequence number, interpreted
// relative to the model's head so the fuzzer reaches gaps, repairs and
// the top of the sequence space. Inputs are cut at 64 ops, which keeps
// each execution (and minimization) short.
func FuzzTracker(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 10, 0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Tracker
		var want mapTracker
		for ops := 0; ops < 64 && len(data) >= 9; ops++ {
			kind, raw := data[0], binary.LittleEndian.Uint64(data[1:9])
			data = data[9:]
			seq := raw
			if kind&0x80 == 0 {
				// Relative form: land within ±128 of the head.
				seq = want.highest + raw%256 - min(want.highest, 128)
			}
			diffCheck(t, &got, &want, trackerOp{kind: kind & 0x7f, seq: seq}, []uint64{seq, raw})
		}
	})
}
