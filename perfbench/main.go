// Command perfbench is the end-to-end LBRM pipeline benchmark. It runs the
// real sender → primary → secondary → receivers pipeline through the
// public API, either over UDP multicast on the loopback interface (steady,
// lossy) or over the deterministic network simulator (sim-wan), checks
// every delivery, and prints the end-to-end metrics; with -trace 1 it
// instead times each layer from outside and prints the per-layer metrics
// and a layer budget. The last line of standard output is one JSON
// object. See README.md in this directory.
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// workload is one named input set.
type workload struct {
	name string
	why  string
	// rate is packets per second: wall clock on loopback (a multiple of
	// 1000, paced in 1 ms frames), virtual on netsim.
	rate             int
	minSize, maxSize int // payload bytes, drawn uniformly per packet
	receivers        int // loopback receivers
	rxDrop, secDrop  float64
	sim              bool
}

var workloads = map[string]workload{
	"steady": {
		rate: 2000, minSize: 144, maxSize: 144, receivers: 4,
		why: "loopback multicast, 2k pps of 144 B DIS PDUs paced in 1 ms frames, no loss: sender, egress batching, recvmmsg ingress, delivery and log Put; no recovery",
	},
	"lossy": {
		rate: 1000, minSize: 64, maxSize: 1024, receivers: 4, rxDrop: 0.02, secDrop: 0.005,
		why: "loopback at 1k pps, 64-1024 B, seeded 2% drops at receivers and 0.5% at the secondary: gap tracking, NACK timers, log Get and serve, primary callback",
	},
	"sim-wan": {
		rate: 100, minSize: 144, maxSize: 144, sim: true,
		why: "netsim 50 sites x 20 receivers, Gilbert-Elliott tail loss: vtime/netsim engine, correlated site loss, secondary fetching from the primary",
	},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: steady, lossy or sim-wan")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		return 2
	}
	w.name = *name
	traced := *trace == 1

	rep := &report{workload: w.name, why: w.why}
	var err error
	if w.sim {
		err = runSim(rep, w, *seed, *seconds, traced)
	} else {
		err = runLoopback(rep, w, *seed, *seconds, traced)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(os.Stdout, traced)
	line, err := rep.resultLine(traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(line)
	if len(rep.errs) > 0 {
		return 1
	}
	return 0
}
