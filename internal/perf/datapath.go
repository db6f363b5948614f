package perf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"lbrm/internal/logger"
	"lbrm/internal/obs"
	"lbrm/internal/obs/series"
	"lbrm/internal/transport"
	"lbrm/internal/vtime"
	"lbrm/internal/wire"
)

// nullAddr is a comparable no-op transport address.
type nullAddr string

func (nullAddr) Network() string  { return "null" }
func (a nullAddr) String() string { return "null:" + string(a) }

// nullEnv is a transport.Env that discards transmissions. It exists so the
// allocation gate measures the protocol handler alone: any allocation
// observed on top of it belongs to the handler, not the transport.
type nullEnv struct {
	clock *vtime.Sim
	rng   *rand.Rand
}

func newNullEnv() *nullEnv {
	return &nullEnv{clock: vtime.NewSim(benchStart), rng: rand.New(rand.NewSource(1))}
}

func (e *nullEnv) Now() time.Time { return e.clock.Now() }
func (e *nullEnv) AfterFunc(d time.Duration, fn func()) vtime.Timer {
	return e.clock.AfterFunc(d, fn)
}
func (e *nullEnv) Send(to transport.Addr, data []byte) error            { return nil }
func (e *nullEnv) Multicast(g wire.GroupID, ttl int, data []byte) error { return nil }
func (e *nullEnv) Join(g wire.GroupID) error                            { return nil }
func (e *nullEnv) Leave(g wire.GroupID) error                           { return nil }
func (e *nullEnv) LocalAddr() transport.Addr                            { return nullAddr("logger") }
func (e *nullEnv) ParseAddr(s string) (transport.Addr, error) {
	rest, ok := strings.CutPrefix(s, "null:")
	if !ok {
		return nil, fmt.Errorf("perf: bad address %q", s)
	}
	return nullAddr(rest), nil
}
func (e *nullEnv) Rand() *rand.Rand { return e.rng }

// datapath drives the steady-state secondary-logger pipeline the paper
// identifies as the hot one ("every secondary logging server logs every
// packet", §2.2): marshal a data packet, Recv it, log it in the store
// (evicting at capacity), and emit the Designated-Acker ACK.
type datapath struct {
	sec     *logger.Secondary
	sink    *obs.Sink
	src     transport.Addr
	pkt     wire.Packet
	buf     []byte
	seq     uint64
	payload []byte
}

func newDatapath(sink *obs.Sink) *datapath {
	d := &datapath{
		sink:    sink,
		src:     nullAddr("sender"),
		payload: make([]byte, 128),
	}
	d.sec = logger.NewSecondary(logger.SecondaryConfig{
		Group:     1,
		Retention: logger.Retention{MaxPackets: 4096},
		Obs:       sink,
	})
	d.sec.Start(newNullEnv())
	// Volunteer this logger as Designated Acker with certainty (PAck 1),
	// so every logged data packet also exercises ACK emission.
	sel := wire.Packet{
		Type: wire.TypeAckerSelect, Source: 7, Group: 1, Epoch: 1, PAck: 1, K: 1,
	}
	buf, err := sel.Marshal()
	if err != nil {
		panic(err)
	}
	d.sec.Recv(d.src, buf)
	if d.sec.Stats().AckerSelections != 1 {
		panic("perf: datapath logger did not take acker duty")
	}
	return d
}

// step pushes one data packet through the pipeline.
func (d *datapath) step() {
	d.seq++
	d.pkt = wire.Packet{
		Type: wire.TypeData, Source: 7, Group: 1, Seq: d.seq, Epoch: 1,
		Payload: d.payload,
	}
	var err error
	d.buf, err = d.pkt.AppendMarshal(d.buf[:0])
	if err != nil {
		panic(err)
	}
	d.sec.Recv(d.src, d.buf)
	// Flight-record emission rides the same step so the alloc gate covers
	// the recorder's hot path (a recovery chain emits a handful of these).
	d.sink.EmitFlight(int64(d.seq), obs.KindDeliver, d.seq, uint64(wire.PathLocal), 0)
}

// warm runs the pipeline past its growth phase: ring at capacity, arena
// chunks recycling, scratch buffers at their steady size.
func (d *datapath) warm() {
	for i := 0; i < 8192; i++ {
		d.step()
	}
	logged := d.sec.Stats().PacketsLogged
	acked := d.sec.Stats().AcksSent
	if logged != d.seq || acked != d.seq {
		panic(fmt.Sprintf("perf: datapath warmup logged %d acked %d of %d", logged, acked, d.seq))
	}
}

// DatapathAllocs benchmarks the steady-state data→log→ack pipeline. The
// companion gate TestDatapathZeroAlloc asserts it allocates nothing.
func DatapathAllocs(b *testing.B) {
	d := newDatapath(nil)
	d.warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.step()
	}
}

// DatapathAllocsObs is the same pipeline with a live observability sink
// attached: per-class tx counters, protocol counters and the epoch gauge
// all firing. The zero-allocation contract must survive instrumentation —
// that is the whole point of the obs design (DESIGN.md §9).
func DatapathAllocsObs(b *testing.B) {
	d := newDatapath(obs.NewSink())
	d.warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.step()
	}
}

// MeasureDatapathAllocs returns the average allocations per steady-state
// pipeline step over runs iterations, with metrics attached when sink is
// non-nil.
func MeasureDatapathAllocs(runs int, sink *obs.Sink) float64 {
	d := newDatapath(sink)
	d.warm()
	return testing.AllocsPerRun(runs, d.step)
}

// MeasureDatapathAllocsSampled is the instrumented pipeline with the
// series sampler live on the same registry: every step also takes a full
// time-series sample (the control plane's per-tick cost, compressed to
// per-step so AllocsPerRun sees it deterministically). The registry's
// track set is stable after warmup, so sampling must stay on the
// steady-state zero-allocation path too.
func MeasureDatapathAllocsSampled(runs int) float64 {
	sink := obs.NewSink()
	d := newDatapath(sink)
	d.warm()
	smp := series.NewSampler(sink.Registry(), 256)
	smp.Sample(0) // one-time track scan, off the measured path
	var tick int64
	return testing.AllocsPerRun(runs, func() {
		d.step()
		tick++
		smp.Sample(tick)
	})
}

// MeasurePrimaryOpenGapAllocs returns the average allocations per data
// packet a primary logs while a gap below it stays open: seq 1 is never
// delivered, so every arrival runs the gap check against a live hole
// (the recovery timer is armed once and the clock never fires it).
func MeasurePrimaryOpenGapAllocs(runs int) float64 {
	pri := logger.NewPrimary(logger.PrimaryConfig{
		Group: 1, Retention: logger.Retention{MaxPackets: 4096},
	})
	pri.Start(newNullEnv())
	var src transport.Addr = nullAddr("sender")
	payload := make([]byte, 128)
	var buf []byte
	p := wire.Packet{Type: wire.TypeData, Source: 7, Group: 1, Seq: 1, Epoch: 1, Payload: payload}
	step := func() {
		p.Seq++
		var err error
		if buf, err = p.AppendMarshal(buf[:0]); err != nil {
			panic(err)
		}
		pri.Recv(src, buf)
	}
	for i := 0; i < 8192; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(runs, step)
	if st := pri.Stats(); st.PacketsLogged != p.Seq-1 {
		panic(fmt.Sprintf("perf: primary logged %d of %d packets", st.PacketsLogged, p.Seq-1))
	}
	return allocs
}
