package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"lbrm/internal/transport"
	"lbrm/internal/wire"
)

// TestBenchmarkJSONMatchesMetrics keeps ../BENCHMARK.json and the metric
// and workload tables in this package in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name].why != w.Why {
			t.Errorf("workload %s: why differs between BENCHMARK.json and main.go", w.Name)
		}
	}
}

// sink counts what reaches it.
type sink struct{ n int }

func (s *sink) Start(transport.Env)         {}
func (s *sink) Recv(transport.Addr, []byte) { s.n++ }

func datagram(t wire.Type, flags wire.Flags, seq uint64) []byte {
	b := make([]byte, wire.HeaderLen)
	b[3] = byte(t)
	binary.BigEndian.PutUint16(b[4:6], uint16(flags))
	binary.BigEndian.PutUint64(b[16:24], seq)
	return b
}

func TestDropShimDropsOnlyFirstTransmissionData(t *testing.T) {
	const n = 20000
	inner := &sink{}
	s := newDropShim(inner, 0.02, 7, 3)
	s.armed.Store(true)
	var others int
	for seq := uint64(1); seq <= n; seq++ {
		s.Recv(nil, datagram(wire.TypeData, 0, seq))
		for _, d := range [][]byte{
			datagram(wire.TypeData, wire.FlagRetransmission, seq),
			datagram(wire.TypeRetrans, wire.FlagRetransmission|wire.FlagFromLogger, seq),
			datagram(wire.TypeHeartbeat, 0, seq),
			datagram(wire.TypeNack, 0, seq),
		} {
			s.Recv(nil, d)
			others++
		}
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	if got := inner.n; got != n+others-int(s.dropped()) {
		t.Fatalf("inner saw %d datagrams, want %d", got, n+others-int(s.dropped()))
	}
	if d := s.dropped(); d < 300 || d > 500 {
		t.Fatalf("dropped %d of %d, want about 400", d, n)
	}
	// The same seed, node and seq always decide the same way.
	again := newDropShim(&sink{}, 0.02, 7, 3)
	again.armed.Store(true)
	for seq := uint64(n); seq >= 1; seq-- {
		again.Recv(nil, datagram(wire.TypeData, 0, seq))
	}
	if again.dropped() != s.dropped() {
		t.Fatalf("reversed arrival order dropped %d, forward %d", again.dropped(), s.dropped())
	}
	// A rate far from the configured one fails the check.
	s.p = 0.2
	if s.check() == nil {
		t.Fatal("check accepted a drop rate ten times below the configured one")
	}
}

func TestPayloadCheck(t *testing.T) {
	g := newPayloadGen(1, 64, 1024)
	for seq := uint64(1); seq < 100; seq++ {
		p := g.next(seq, int64(seq)*1000)
		stamp, err := checkPayload(seq, p)
		if err != nil || stamp != int64(seq)*1000 {
			t.Fatalf("seq %d: stamp %d, err %v", seq, stamp, err)
		}
		if _, err := checkPayload(seq+1, p); !errors.Is(err, errSeq) {
			t.Fatalf("wrong seq: err %v", err)
		}
		p[len(p)-1] ^= 1
		if _, err := checkPayload(seq, p); !errors.Is(err, errChecksum) {
			t.Fatalf("flipped byte: err %v", err)
		}
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	if h.quantile(0.5) != 0 {
		t.Fatal("empty histogram: quantile not 0")
	}
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 1000)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		want := q*99999*1000 + 1000
		if got := h.quantile(q); math.Abs(got-want) > want/(2*histSub)+1 {
			t.Errorf("q%.2f = %.0f, want %.0f within 1/%d", q, got, want, 2*histSub)
		}
	}
	for v := int64(0); v < histSub; v++ {
		if got := histMid(histIndex(v)); got != float64(v) {
			t.Errorf("small value %d reads %.1f", v, got)
		}
	}
	var m latHist
	m.merge(&h)
	m.merge(&h)
	if m.n != 2*h.n || m.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merge: n %d, median %.0f; want %d, %.0f", m.n, m.quantile(0.5), 2*h.n, h.quantile(0.5))
	}
	if i := histIndex(math.MaxInt64); i >= len(h.b) {
		t.Errorf("histIndex(MaxInt64) = %d, outside %d buckets", i, len(h.b))
	}
}
