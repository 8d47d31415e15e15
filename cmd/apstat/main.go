// Command apstat prints Table II-style structural statistics for a
// built-in application, an ANML file, or the whole generated suite.
//
//	apstat -list                 # names of the 26 built-in applications
//	apstat -app CAV4k            # one application's statistics
//	apstat -anml rules.anml      # statistics of an ANML automaton
//	apstat -all                  # the full Table II
//	apstat -all -worstcase       # certified bounds, witnesses and the suite's gap gates
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"sparseap"
	"sparseap/internal/cli"
	"sparseap/internal/exp"
	"sparseap/internal/graph"
	"sparseap/internal/hotness"
	"sparseap/internal/metrics"
	"sparseap/internal/sim"
	"sparseap/internal/workloads"
	"sparseap/internal/worstcase"
)

func main() {
	src := cli.Command("apstat", cli.Spec{Sources: cli.App | cli.All | cli.ANML, Scale: true})
	var (
		list  = flag.Bool("list", false, "list built-in application names")
		hot   = flag.Bool("hotness", false, "also show the static hotness analysis (predicted hot fraction, per-NFA cut layers; with -app, accuracy vs the actual hot set)")
		worst = flag.Bool("worstcase", false, "also show the certified worst-case analysis (frontier/report bounds by layer, adversarial witness, bound/witness gap); with -all, the whole-suite table and its gap geomean. Exits nonzero on a soundness violation; with -all also on a witness below the canonical input's peak or a gap geomean above 4")
	)
	src.Parse()

	switch {
	case *list:
		for _, n := range workloads.Names() {
			fmt.Println(n)
		}
	case src.All && *worst:
		if err := printWorstTable(src.Targets()); err != nil {
			fail(err)
		}
	case src.All:
		res, err := exp.Table2(exp.NewSuite(src.Workloads, src.AP))
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	default:
		t := src.Targets()[0]
		name := t.Name
		if t.App != nil {
			name = t.App.Name
		}
		printStats(name, t.Net)
		if *hot {
			printHotness(t.Net, t.Input)
		}
		if *worst && !printWorstCase(t.Net, t.Input) {
			fail(fmt.Errorf("apstat: worst-case analysis unsound for %s", name))
		}
	}
}

func printStats(name string, net *sparseap.Network) {
	st := net.ComputeStats()
	topo := graph.TopoOrder(net)
	maxTopo, sumTopo := int32(0), int64(0)
	for _, m := range topo.MaxPerNFA {
		if m > maxTopo {
			maxTopo = m
		}
		sumTopo += int64(m)
	}
	maxSCC := int32(0)
	for _, s := range topo.SCC.Size {
		if s > maxSCC {
			maxSCC = s
		}
	}
	t := metrics.NewTable("Metric", "Value")
	t.AddRowf("states", st.States)
	t.AddRowf("NFAs", st.NFAs)
	t.AddRowf("edges", st.Edges)
	t.AddRowf("reporting states", st.Reporting)
	t.AddRowf("start states", st.Starts)
	t.AddRowf("start-of-data", fmt.Sprint(st.StartOfData))
	t.AddRowf("max topological order", maxTopo)
	t.AddRowf("avg max topo per NFA", float64(sumTopo)/float64(st.NFAs))
	t.AddRowf("largest SCC", maxSCC)
	fmt.Printf("%s\n%s", name, t)
}

// printHotness renders the static hotness analysis: predicted hot
// fraction, score distribution and the per-NFA static cut summary. With a
// non-nil input it also scores the prediction against the actual hot set
// that input enables (accuracy, and the two error directions separately —
// a miss costs an intermediate report, a false alarm only wastes hot
// capacity).
func printHotness(net *sparseap.Network, input []byte) {
	a := hotness.Analyze(net, hotness.Config{})
	pred := a.Hot()
	k := a.Layers()
	sumK, sumMax := int64(0), int64(0)
	full := 0
	for u, ku := range k {
		sumK += int64(ku)
		sumMax += int64(a.Topo.MaxPerNFA[u])
		if ku == a.Topo.MaxPerNFA[u] {
			full++
		}
	}
	t := metrics.NewTable("Hotness", "Value")
	t.AddRowf("predicted hot states", pred.Count())
	t.AddRowf("predicted hot fraction", a.HotFrac())
	t.AddRowf("mean static cut k/max", fmt.Sprintf("%.2f/%.2f",
		float64(sumK)/float64(len(k)), float64(sumMax)/float64(len(k))))
	t.AddRowf("NFAs cut fully hot", fmt.Sprintf("%d of %d", full, len(k)))
	if input != nil {
		actual := sim.HotStates(net, input)
		agree, misses, alarms := 0, 0, 0
		for s := 0; s < net.Len(); s++ {
			p, h := pred.Get(s), actual.Get(s)
			switch {
			case p == h:
				agree++
			case h:
				misses++
			default:
				alarms++
			}
		}
		t.AddRowf("actual hot states", actual.Count())
		t.AddRowf("prediction accuracy", float64(agree)/float64(net.Len()))
		t.AddRowf("missed hot (cost: intermediates)", misses)
		t.AddRowf("false alarms (cost: capacity)", alarms)
	}
	fmt.Print(t)
}

// printWorstCase renders the certified worst-case analysis of one
// network: the frontier bound with each refinement layer's contribution,
// the report bound, and the adversarial witness certification. A non-nil
// input seeds the witness portfolio (so the witness is never worse than
// the canonical input) and its length caps the search. Returns false on
// a soundness violation — the witness replay out-running the bound.
func printWorstCase(net *sparseap.Network, input []byte) bool {
	a := worstcase.Analyze(net, worstcase.Config{})
	opts := worstcase.WitnessOptions{}
	if input != nil {
		opts.MaxLen = len(input)
		opts.Seeds = [][]byte{input}
	}
	w, rep := a.Certify(opts)
	t := metrics.NewTable("Worst case", "Value")
	t.AddRowf("frontier bound", a.FrontierBound)
	t.AddRowf("  layer 1 (per-symbol)", a.Bound1)
	t.AddRowf("  layer 2 (anti-chain)", a.BoundPair)
	t.AddRowf("  layer 3 (k-gram)", a.BoundGram)
	t.AddRowf("start-of-data width", a.StartWidth)
	t.AddRowf("trackable states", a.Trackable)
	t.AddRowf("frontier fraction", a.FrontierFraction())
	t.AddRowf("report bound/cycle", a.ReportBound)
	t.AddRowf("witness peak frontier", rep.PeakFrontier)
	t.AddRowf("witness length", len(w.Input))
	t.AddRowf("bound/witness gap", rep.Gap)
	t.AddRowf("sound (replay ≤ bound)", rep.Sound)
	fmt.Print(t)
	return rep.Sound
}

// gapCeiling is the precision gate of the whole-suite table: the geomean
// of FrontierBound / witness peak over the 26 apps. It reads 3.78 at the
// default 1/8 scale and 3.01 at -divisor 32 -input 8192.
const gapCeiling = 4.0

// worstRow is what the suite gates read of one application.
type worstRow struct {
	app            string
	witness, canon int // peak frontier of the witness and of the canonical input
	gap            float64
	sound          bool // witness and canonical replays both stayed within the bounds
}

// gapGeomean is the suite's bound/witness gap. An app whose bound is 0
// has gap 0 and counts as 1: nothing to be loose about.
func gapGeomean(rows []worstRow) float64 {
	gaps := make([]float64, len(rows))
	for i, r := range rows {
		gaps[i] = math.Max(r.gap, 1)
	}
	return metrics.GeoMean(gaps)
}

// worstGates fails on a replay that out-ran its static bound, on a
// witness weaker than the canonical input it was seeded with, and on a
// gap geomean above gapCeiling.
func worstGates(rows []worstRow) error {
	var failures []string
	for _, r := range rows {
		if !r.sound {
			failures = append(failures, fmt.Sprintf("%s: a replay exceeded the static bounds", r.app))
		}
		if r.witness < r.canon {
			failures = append(failures, fmt.Sprintf(
				"%s: witness peak %d below the canonical input's %d", r.app, r.witness, r.canon))
		}
	}
	if geo := gapGeomean(rows); geo > gapCeiling {
		failures = append(failures, fmt.Sprintf("gap geomean %.3f exceeds ceiling %.1f", geo, gapCeiling))
	}
	if len(failures) > 0 {
		return fmt.Errorf("apstat: worst-case gates failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// printWorstTable renders the whole-suite worst-case table: per-app
// bounds, witness and canonical-input peaks, gaps and their geomean. Its
// error is worstGates' verdict on those rows.
func printWorstTable(apps []cli.Target) error {
	t := metrics.NewTable("App", "Bound", "L1", "L2", "L3", "Report", "Witness", "Canon", "Gap", "Sound")
	rows := make([]worstRow, 0, len(apps))
	for _, app := range apps {
		a := worstcase.Analyze(app.Net, worstcase.Config{})
		_, rep := a.Certify(worstcase.WitnessOptions{
			MaxLen: len(app.Input),
			Seeds:  [][]byte{app.Input},
		})
		canon := a.Validate(app.Input)
		row := worstRow{
			app: app.Name, witness: rep.PeakFrontier, canon: canon.PeakFrontier,
			gap: rep.Gap, sound: rep.Sound && canon.Sound,
		}
		rows = append(rows, row)
		t.AddRowf(app.Name, a.FrontierBound, a.Bound1, a.BoundPair, a.BoundGram,
			a.ReportBound, row.witness, row.canon, row.gap, row.sound)
	}
	t.AddRow("geomean", "", "", "", "", "", "", "", fmt.Sprintf("%.3f", gapGeomean(rows)))
	fmt.Print(t)
	return worstGates(rows)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
