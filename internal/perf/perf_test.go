package perf

import (
	"testing"

	"lbrm/internal/obs"
)

// TestDatapathZeroAlloc is the allocation gate: the steady-state
// data→log→ack pipeline of a secondary logger must not allocate — bare,
// and with a live observability sink attached (per-class tx counters,
// protocol counters, epoch gauge, and a flight-record emission per step
// all firing). Any regression — a timer re-wrap, a map that stopped being
// pooled, an escape-analysis break, a metric that allocates — fails this
// test, not just a benchmark report.
func TestDatapathZeroAlloc(t *testing.T) {
	if allocs := MeasureDatapathAllocs(5000, nil); allocs != 0 {
		t.Fatalf("steady-state datapath allocates %.2f allocs/op, want 0", allocs)
	}
	if allocs := MeasureDatapathAllocs(5000, obs.NewSink()); allocs != 0 {
		t.Fatalf("instrumented datapath allocates %.2f allocs/op, want 0", allocs)
	}
	if allocs := MeasureDatapathAllocsSampled(5000); allocs != 0 {
		t.Fatalf("datapath with live series sampler allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestRecoveryZeroAlloc pins the end-to-end recovery episode — gap
// detect, NACK arm/fire, request decode, retransmit lookup, redelivery —
// at zero steady-state allocations. It guards the episode pools (reqCount
// recycling, persistent nack/retry timers, decoder Ranges reuse, scratch
// slices) the same way TestDatapathZeroAlloc guards the logging pipeline.
func TestRecoveryZeroAlloc(t *testing.T) {
	if allocs := MeasureRecoveryAllocs(2000); allocs != 0 {
		t.Fatalf("steady-state recovery episode allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestTrackerZeroAlloc pins the sequence tracker's per-arrival work —
// head marks that open gaps, repairs that split them, AppendMissing into a
// reused slice, Advance — at zero allocations once its gap list has grown
// to the working size. Every receiver and logger runs it per packet.
func TestTrackerZeroAlloc(t *testing.T) {
	if allocs := MeasureTrackerAllocs(2000); allocs != 0 {
		t.Fatalf("steady-state tracker allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestPrimaryOpenGapZeroAlloc pins the primary's data path at zero
// allocations while its own log has an open gap: the per-packet gap probe
// must read the contiguity watermark, not build a missing-range list.
func TestPrimaryOpenGapZeroAlloc(t *testing.T) {
	if allocs := MeasurePrimaryOpenGapAllocs(2000); allocs != 0 {
		t.Fatalf("primary data path with an open gap allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestQuorumHopZeroAlloc pins the quorum-mode ring revolution — token
// launch at the primary, payload apply + watermark append at each replica
// hop, and the return fold with the quorum-gated source ack — at zero
// steady-state allocations, bare and fully instrumented. Quorum mode's
// bookkeeping must ride the existing zero-allocation logger hot path.
func TestQuorumHopZeroAlloc(t *testing.T) {
	if allocs := MeasureQuorumHopAllocs(2000, nil); allocs != 0 {
		t.Fatalf("steady-state ring revolution allocates %.2f allocs/op, want 0", allocs)
	}
	if allocs := MeasureQuorumHopAllocs(2000, obs.NewSink()); allocs != 0 {
		t.Fatalf("instrumented ring revolution allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestUDPLoopbackZeroAlloc pins the real-socket round-trip — egress
// coalescing, sendmmsg/GSO flush, recvmmsg dispatch with address
// interning — at zero steady-state allocations, on the batched path and
// on the forced portable fallback (the path every non-Linux build runs).
func TestUDPLoopbackZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fallback bool
	}{{"batched", false}, {"fallback", true}} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := MeasureUDPLoopbackAllocs(1000, tc.fallback)
			if allocs < 0 {
				t.Skip("udp unavailable")
			}
			if allocs != 0 {
				t.Fatalf("steady-state loopback round-trip allocates %.2f allocs/op, want 0", allocs)
			}
		})
	}
}

func BenchmarkStorePut(b *testing.B)           { StorePut(b) }
func BenchmarkStorePutUnbounded(b *testing.B)  { StorePutUnbounded(b) }
func BenchmarkStoreGet(b *testing.B)           { StoreGet(b) }
func BenchmarkStoreEvictByBytes(b *testing.B)  { StoreEvictByBytes(b) }
func BenchmarkStoreMissingSteady(b *testing.B) { StoreMissingSteady(b) }
func BenchmarkDatapathAllocs(b *testing.B)     { DatapathAllocs(b) }
func BenchmarkDatapathAllocsObs(b *testing.B)  { DatapathAllocsObs(b) }
func BenchmarkObsCounterInc(b *testing.B)      { ObsCounterInc(b) }
func BenchmarkObsClassRecord(b *testing.B)     { ObsClassRecord(b) }
func BenchmarkObsTraceEmit(b *testing.B)       { ObsTraceEmit(b) }
func BenchmarkObsFlightEmit(b *testing.B)      { ObsFlightEmit(b) }
func BenchmarkSeriesSample(b *testing.B)       { SeriesSample(b) }
func BenchmarkRecoveryRTT(b *testing.B)        { RecoveryRTT(b) }
func BenchmarkUDPLoopback(b *testing.B)        { UDPLoopback(b) }
func BenchmarkUDPEgress(b *testing.B)          { UDPEgress(b) }
func BenchmarkUDPEgressFallback(b *testing.B)  { UDPEgressFallback(b) }
func BenchmarkUDPEgressB1(b *testing.B)        { udpEgressB(1)(b) }
func BenchmarkUDPEgressB8(b *testing.B)        { udpEgressB(8)(b) }
func BenchmarkUDPEgressB64(b *testing.B)       { udpEgressB(64)(b) }
func BenchmarkShardedEgress(b *testing.B)      { ShardedEgress(b) }
func BenchmarkTrackerArrival(b *testing.B)     { TrackerArrival(b) }
