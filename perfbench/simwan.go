package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"time"

	"lbrm"
	"lbrm/internal/wire"
)

// The sim-wan workload: lbrm.NewTestbed in the paper's §2.2.2 shape, every
// site's tail-down link carrying Gilbert–Elliott burst loss and a small
// seeded jitter, the source sending at a fixed virtual rate. Latencies are
// virtual time and repeat exactly for a seed; throughput and CPU are wall
// and process CPU.
const (
	simSites    = 50
	simPerSite  = 20
	simWindow   = 10 * time.Second // virtual time measured per repetition
	simDrain    = 12 * time.Second // virtual time to finish recovery after the window
	simJitter   = 2 * time.Millisecond
	simWarmStep = 10 * time.Millisecond
)

// simRep is one build-and-run of the fleet.
type simRep struct {
	setupS      float64
	wallNS      int64
	cpuNS       int64
	delivered   int64 // deliveries inside the virtual window
	events      uint64
	rt0, rt1    rtSample
	sends       sendCount
	pairs       outcome
	fingerprint uint64 // delivery count and recovery-latency multiset
	stats       protoStats
	paths       pathCounts
	// bookkeepingMB is the receivers' application state after the drain.
	bookkeepingMB float64
	// traced repetition only
	roles  roles // window
	rxRec  *recording
	secRec *recording
}

func runSimRep(w workload, seed int64, traced bool) (*simRep, error) {
	r := &simRep{}
	t0 := time.Now()
	n := simSites * simPerSite
	rx := make([]*rxState, n)
	var vnow func() int64
	// The simulator is single-threaded, so every receiver records into
	// one histogram.
	firstLat := &latHist{}
	tb, err := lbrm.NewTestbed(lbrm.TestbedConfig{
		Seed: seed, Sites: simSites, ReceiversPerSite: simPerSite,
		ConfigureReceiver: func(site, idx int, cfg *lbrm.ReceiverConfig) {
			st := newRxState(func() int64 { return vnow() }, firstLat) // vnow is set once the clock exists
			rx[site*simPerSite+idx] = st
			cfg.OnData, cfg.OnLost = st.onData, st.onLost
		},
	})
	if err != nil {
		return nil, err
	}
	clock := tb.Net.Clock()
	v0 := clock.Now()
	vnow = func() int64 { return int64(clock.Now().Sub(v0)) }
	for _, s := range tb.Sites {
		down := s.Site.TailDown()
		down.SetLoss(&lbrm.GilbertElliott{PGoodToBad: 0.01, PBadToGood: 0.3, LossBad: 0.8})
		down.SetJitter(simJitter)
	}
	var sendTr *tracer
	var fold func() roles
	if traced {
		r.rxRec, r.secRec = newRecording(recordLimit), newRecording(recordLimit)
		sendTr, fold = wrapSim(tb, rx, r.rxRec, r.secRec)
	}

	gen := newPayloadGen(seed, w.minSize, w.maxSize)
	interval := time.Second / time.Duration(w.rate)
	var sending, inWindow bool = true, false
	var tick func()
	tick = func() {
		if !sending {
			return
		}
		seq := tb.Sender.LastSeq() + 1
		pl := gen.next(seq, vnow())
		var got uint64
		var err error
		if sendTr != nil {
			s0 := mono()
			got, err = tb.Send(pl)
			sendTr.acc[kSend][0].add(mono() - s0)
		} else {
			got, err = tb.Send(pl)
		}
		r.sends.note(seq, got, err, inWindow)
		clock.AfterFunc(interval, tick)
	}
	clock.AfterFunc(0, tick)
	for warm := false; !warm; {
		if vnow() > int64(10*time.Second) {
			return nil, errors.New("sim-wan warm-up: a receiver delivered nothing in 10s of virtual time")
		}
		tb.Run(simWarmStep)
		warm = true
		for _, st := range rx {
			if st.count.Load() == 0 {
				warm = false
				break
			}
		}
	}
	r.setupS = time.Since(t0).Seconds()

	first := tb.Sender.LastSeq() + 1
	for _, st := range rx {
		st.from.Store(first)
	}
	var spans0 roles
	if traced {
		spans0 = fold()
	}
	runtime.GC() // start the window from a collected heap
	inWindow = true
	d0 := deliveries(rx)
	u0, rt0, ev0, w0 := readUsage(), readRuntime(), tb.Net.LogicalEvents(), mono()
	tb.Run(simWindow)
	w1, ev1, rt1, u1 := mono(), tb.Net.LogicalEvents(), readRuntime(), readUsage()
	r.delivered = deliveries(rx) - d0
	inWindow = false
	last := tb.Sender.LastSeq()
	if traced {
		spans1 := fold()
		for i := range r.roles {
			r.roles[i] = spans1[i].sub(&spans0[i])
		}
	}
	sending = false
	tb.Run(simDrain)

	r.wallNS, r.cpuNS, r.events, r.rt0, r.rt1 = w1-w0, u1.cpuNS-u0.cpuNS, ev1-ev0, rt0, rt1
	r.pairs = windowOutcome(first, last, r.sends, rx)
	r.pairs.firstLat = *firstLat
	r.fingerprint = fingerprint(r)
	r.bookkeepingMB = bookkeepingMB(rx, 1)

	// Correctness: payloads, duplicates, OnData against the receivers' own
	// counts, and the sender's count against accepted sends.
	var errs []error
	if r.sends.err != nil {
		errs = append(errs, r.sends.err)
	}
	if ds := tb.Sender.Stats().DataSent; ds != uint64(r.sends.accepted) {
		errs = append(errs, fmt.Errorf("sender: Stats().DataSent = %d, accepted sends = %d", ds, r.sends.accepted))
	}
	i := 0
	for si, s := range tb.Sites {
		for j, rcv := range s.Receivers {
			st := rcv.Stats()
			if err := rx[i].check(fmt.Sprintf("site %d receiver %d", si, j), st.DataDelivered); err != nil {
				errs = append(errs, err)
			}
			r.stats.addReceiver(st)
			c := recoveryPaths(s.ReceiverCfgs[j].Obs.Registry().Snapshot())
			r.paths.local += c.local
			r.paths.all += c.all
			i++
		}
		r.stats.secNacksUp += s.Secondary.Stats().NacksToPrimary
	}
	r.stats.retransServed = tb.Primary.Stats().RetransServed
	r.stats.secExpected = tb.Sender.LastSeq() * simSites
	if traced {
		all := fold()
		r.stats.secTypeData = uint64(all[roleSecondary].total(kRecv, wire.TypeData).n)
	}
	tb.StopAll()
	return r, errors.Join(errs...)
}

// deliveries sums the receivers' OnData calls so far.
func deliveries(rx []*rxState) int64 {
	var n int64
	for _, st := range rx {
		n += st.count.Load()
	}
	return n
}

// fingerprint hashes what must repeat exactly for a seed: the window's
// delivery count, failed pairs, and the sorted recovery-latency multiset.
func fingerprint(r *simRep) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(r.delivered))
	put(uint64(r.pairs.failed))
	lat := slices.Clone(r.pairs.recLat)
	slices.Sort(lat)
	for _, v := range lat {
		put(uint64(v))
	}
	return h.Sum64()
}

// wrapSim times every handler's Recv after the testbed started it. The
// testbed starts its handlers itself, so the wrappers cannot hand them a
// timing Env: on netsim, timer callbacks and transmissions stay inside
// the engine's share. It returns the sender's tracer and a function that
// sums the span tables by role (sender, secondary, primary, receivers).
func wrapSim(tb *lbrm.Testbed, rx []*rxState, rxRec, secRec *recording) (*tracer, func() roles) {
	// The simulator is single-threaded, so nodes of one role share a
	// tracer; the two recorded nodes get their own.
	shared := [4]*tracer{{}, {}, {}, {}}
	recSec, recRx := &tracer{rec: secRec}, &tracer{rec: rxRec}
	wrap := func(node *lbrm.SimNode, h lbrm.Handler, tr *tracer) {
		node.SetHandler(&tracedHandler{inner: h, tr: tr, started: true})
	}
	wrap(tb.SenderNode, tb.Sender, shared[roleSender])
	wrap(tb.PrimaryNode, tb.Primary, shared[rolePrimary])
	i := 0
	for si, s := range tb.Sites {
		secTr := shared[roleSecondary]
		if si == 0 {
			secTr = recSec
		}
		wrap(s.SecondaryNode, s.Secondary, secTr)
		for j, rcv := range s.Receivers {
			tr := shared[roleReceiver]
			if si == 0 && j == 0 {
				tr = recRx
			}
			wrap(s.ReceiverNodes[j], rcv, tr)
			rx[i].tr = tr
			i++
		}
	}
	return shared[roleSender], func() roles {
		var out roles
		for k := range out {
			out[k] = shared[k].acc
		}
		out[roleSecondary].addAll(&recSec.acc)
		out[roleReceiver].addAll(&recRx.acc)
		return out
	}
}

// simRepSeconds is about the wall time one repetition takes on a 2-core
// host; runSim runs seconds/simRepSeconds repetitions (at least two). The
// count depends on --seconds only, so a seed fixes every figure that is
// not a wall or CPU time.
const simRepSeconds = 3

// repSeed is the fleet seed of repetition i. Repetitions 0 and 1 share
// the run's seed, so determinism is checked on every run; the others
// draw fresh loss realizations, which the figures pool or take the
// median over.
func repSeed(seed int64, i int) int64 {
	if i <= 1 {
		return seed
	}
	return seed ^ int64(splitmix64(uint64(i))>>1)
}

// runSim builds and runs the fleet repeatedly, then runs one traced
// repetition of the run's own seed when asked.
func runSim(rep *report, w workload, seed int64, seconds int, traced bool) error {
	var reps []*simRep
	for i := 0; i < max(2, seconds/simRepSeconds); i++ {
		runtime.GC() // free the previous fleet before building the next
		r, err := runSimRep(w, repSeed(seed, i), false)
		if r == nil {
			return err
		}
		rep.fail(err)
		reps = append(reps, r)
	}
	r0 := reps[0]
	if r := reps[1]; r.fingerprint != r0.fingerprint {
		rep.fail(fmt.Errorf("sim-wan: a second run of seed %d differs: %d vs %d window deliveries, %d vs %d failed pairs, %d vs %d recoveries",
			seed, r.delivered, r0.delivered, r.pairs.failed, r0.pairs.failed, len(r.pairs.recLat), len(r0.pairs.recLat)))
	}
	// Latencies and failures pool the distinct realizations; wall and CPU
	// figures take the median over every repetition.
	var pool outcome
	for i, r := range reps {
		if i == 1 {
			continue
		}
		pool.firstLat.merge(&r.pairs.firstLat)
		pool.recLat = append(pool.recLat, r.pairs.recLat...)
		pool.attempted += r.pairs.attempted
		pool.failed += r.pairs.failed
		pool.refused += r.pairs.refused
		pool.lostReported += r.pairs.lostReported
	}
	var setups, pps, cpu, evs []float64
	for _, r := range reps {
		setups = append(setups, r.setupS)
		pps = append(pps, float64(r.delivered)/(float64(r.wallNS)/1e9))
		cpu = append(cpu, ratio(float64(r.cpuNS), float64(r.delivered)))
		evs = append(evs, float64(r.events)/(float64(r.wallNS)/1e9))
	}
	nReps := int64(len(reps))
	rep.addE2E("setup_s", "s", median(setups), nReps, "median of repetitions (NewTestbed → every receiver delivered)")
	rep.addE2E("delivered_pps", "pkt/s", median(pps), r0.delivered, fmt.Sprintf("wall clock; median of %d repetitions of %v virtual", nReps, simWindow))
	rep.addE2E("cpu_ns_per_delivered", "ns", median(cpu), r0.delivered, fmt.Sprintf("getrusage user+sys; median of %d repetitions", nReps))
	rep.notef("per repetition: delivered_pps %.0f; cpu_ns_per_delivered %.0f", pps, cpu)
	rep.addE2E("max_rss_mb", "MB", float64(readUsage().rssKB)/1024, 0, "getrusage peak RSS")
	addOutcome(rep, &pool, fmt.Sprintf("virtual time, %d loss realizations pooled", nReps-1))
	rep.notef("receiver bookkeeping (seq bitsets, recoveries, latency histogram): %.2f MB per repetition, of max_rss_mb", r0.bookkeepingMB)
	if !traced {
		return nil
	}

	runtime.GC()
	tr, err := runSimRep(w, seed, true)
	if tr == nil {
		return err
	}
	rep.fail(err)
	if tr.fingerprint != r0.fingerprint {
		rep.fail(fmt.Errorf("sim-wan traced repetition differs from the untraced ones on the same seed"))
	}
	rep.addLayer("gen.late_p99_us", "us", 0, r0.sends.attempts, "virtual clock: sends run exactly on schedule")
	rep.addLayer("sender.refused", "count", float64(r0.sends.refused), 0, "ErrRetainLimit")
	rep.addLayer("sender.retained_max", "count", 0, 0, "not sampled on netsim")
	for _, m := range []string{"udp.lock_wait_ns", "udp.flush_ns", "udp.rx_ns"} {
		rep.addLayer(m, "ns", 0, 0, "n/a: netsim")
	}
	rep.addLayer("udp.tx_per_syscall", "dgram/call", 0, 0, "n/a: netsim")
	rep.addLayer("udp.rx_per_syscall", "dgram/call", 0, 0, "n/a: netsim")
	rep.addLayer("udp.gso_share", "ratio", 0, 0, "n/a: netsim")
	rep.addLayer("udp.transit_p50_us", "us", 0, 0, "n/a: netsim")
	addRecoveryLayers(rep, r0.stats)
	addServeRatio(rep, r0.paths)
	addRuntimeLayers(rep, r0.rt0, r0.rt1, r0.delivered)
	rep.addLayer("sim.events_per_s", "1/s", median(evs), int64(r0.events), "Network.LogicalEvents per wall second; median of repetitions")

	D := tr.delivered
	addSpanLayers(rep, &tr.roles, D, tr.stats, ", including netsim egress")
	rep.addLayer("recv.timer_ns", "ns", 0, 0, "n/a: netsim timers run inside sim.engine")
	replayAll(rep, tr.rxRec, tr.secRec).add(rep)

	rows := append([]budgetRow{
		row("core Sender.Send (+ netsim egress)", tr.roles[roleSender].total(kSend), D, ""),
	}, handlerRows(&tr.roles, D)...)
	var spanNS float64
	for _, r := range rows {
		spanNS += r.perDelNS * float64(D)
	}
	engineNS := float64(tr.wallNS) - spanNS
	rows = append(rows, budgetRow{layer: "vtime/netsim engine", calls: int64(tr.events), perCallNS: ratio(engineNS, float64(tr.events)),
		perDelNS: ratio(engineNS, float64(D)), note: "window wall minus handler spans: scheduler, routing, timers"})
	rep.addLayer("sim.engine_ns_per_event", "ns", ratio(engineNS, float64(tr.events)), int64(tr.events), "(wall − handler self time) ÷ logical events")
	closeBudget(rep, rows, ratio(float64(tr.cpuNS), float64(D)), median(cpu), D,
		"CPU beyond the single simulator goroutine's wall time: GC workers on the second core")
	return nil
}
