package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// metric is one reported figure with the samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int64 // samples behind the figure (0 when it is a count or not applicable)
	note  string
}

// budgetRow is one line of the traced run's layer budget.
type budgetRow struct {
	layer     string
	calls     int64
	perCallNS float64
	perDelNS  float64 // ns of this layer per delivered packet
	note      string
}

// report collects one run's results.
type report struct {
	workload, why     string
	e2e, layer        []metric
	budget            []budgetRow
	attempted, failed int64
	errs              []error
	notes             []string
}

func (r *report) addE2E(name, unit string, v float64, n int64, note string) {
	r.e2e = append(r.e2e, metric{name, v, unit, n, note})
}

func (r *report) addLayer(name, unit string, v float64, n int64, note string) {
	r.layer = append(r.layer, metric{name, v, unit, n, note})
}

func (r *report) fail(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer name every metric BENCHMARK.json declares, with
// its unit; the JSON result line carries exactly these.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"delivered_pps", "pkt/s"},
	{"cpu_ns_per_delivered", "ns"},
	{"max_rss_mb", "MB"},
}

// perLayer also carries the end-to-end latency and failure figures that
// BENCHMARK.json cannot gate: a gated metric must never be 0 and must vary
// between runs by less than its bound (at most 0.25), but recovery latency
// and failed_ratio are 0 on steady and loopback delivery latency varies
// more than that (see README.md).
var perLayer = []struct{ name, unit string }{
	{"deliver_p50_us", "us"},
	{"deliver_p99_us", "us"},
	{"recover_p50_ms", "ms"},
	{"recover_p99_ms", "ms"},
	{"failed_ratio", "ratio"},
	{"gen.late_p99_us", "us"},
	{"sender.send_ns", "ns"},
	{"sender.recv_ns", "ns"},
	{"sender.refused", "count"},
	{"sender.retained_max", "count"},
	{"udp.lock_wait_ns", "ns"},
	{"udp.flush_ns", "ns"},
	{"udp.tx_per_syscall", "dgram/call"},
	{"udp.rx_per_syscall", "dgram/call"},
	{"udp.gso_share", "ratio"},
	{"udp.transit_p50_us", "us"},
	{"udp.rx_ns", "ns"},
	{"recv.data_ns", "ns"},
	{"recv.timer_ns", "ns"},
	{"recv.gaps", "count"},
	{"recv.nacks_per_recovered", "ratio"},
	{"recv.escalation_ratio", "ratio"},
	{"recv.abandoned", "count"},
	{"seqtrack.arrival_ns", "ns"},
	{"secondary.data_ns", "ns"},
	{"secondary.nack_ns", "ns"},
	{"secondary.local_serve_ratio", "ratio"},
	{"secondary.upstream_nacks_per_loss", "ratio"},
	{"primary.data_ns", "ns"},
	{"primary.nack_ns", "ns"},
	{"primary.retrans_served", "count"},
	{"store.put_ns", "ns"},
	{"store.get_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"sim.events_per_s", "1/s"},
	{"sim.engine_ns_per_event", "ns"},
	{"runtime.allocs_per_delivered", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"budget.residual_ns_per_delivered", "ns"},
	{"trace.overhead_ratio", "ratio"},
}

// print writes the human-readable report.
func (r *report) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "== workload %s: %s\n", r.workload, r.why)
	fmt.Fprintln(w, "-- end-to-end (untraced run)")
	printMetrics(w, r.e2e)
	if traced {
		fmt.Fprintln(w, "-- per layer")
		printMetrics(w, r.layer)
		if len(r.budget) > 0 {
			fmt.Fprintln(w, "-- layer budget (traced run): self time per delivered packet, summed against cpu_ns_per_delivered")
			fmt.Fprintf(w, "   %-34s %12s %12s %14s  %s\n", "layer", "calls", "ns/call", "ns/delivered", "")
			for _, b := range r.budget {
				fmt.Fprintf(w, "   %-34s %12d %12.1f %14.1f  %s\n", b.layer, b.calls, b.perCallNS, b.perDelNS, b.note)
			}
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintf(w, "-- (packet, receiver) pairs attempted %d, refused %d (failed_ratio counts the undelivered ones)\n", r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Fprintf(w, "CHECK FAILED: %v\n", e)
	}
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Fprintf(w, "   %-34s %16s %-10s %-12s %s\n", m.name, formatValue(m.value), m.unit, n, m.note)
	}
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine builds the JSON result: the end-to-end metrics untraced, the
// per-layer metrics traced. Every figure is looked up by name in both
// sections of the report. A declared metric the run did not produce is
// a bug in the benchmark and is reported as such.
func (r *report) resultLine(traced bool) (string, error) {
	want := endToEnd
	if traced {
		want = perLayer
	}
	byName := make(map[string]metric)
	for _, m := range append(slices.Clone(r.e2e), r.layer...) {
		byName[m.name] = m
	}
	res := result{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	var missing []string
	for _, d := range want {
		m, ok := byName[d.name]
		if !ok || m.unit != d.unit || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics not produced: %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(res)
	return string(b), err
}
