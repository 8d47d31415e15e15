package sparseap_test

import (
	"fmt"

	"sparseap"
)

// ExampleMatch demonstrates plain functional matching.
func ExampleMatch() {
	net, _ := sparseap.CompileRegex([]string{"ab+c"})
	for _, r := range sparseap.Match(net, []byte("xx abc abbbc")) {
		fmt.Println("match ends at", r.Pos)
	}
	// Output:
	// match ends at 5
	// match ends at 11
}

// ExampleEngine_RunBaseAPSpAP walks the paper's full pipeline: baseline
// batched execution, profiling-based partitioning, and the two-mode
// BaseAP/SpAP run.
func ExampleEngine_RunBaseAPSpAP() {
	net, _ := sparseap.CompileRegex([]string{"alpha[0-9]", "beta[0-9]", "gamma[0-9]"})
	input := []byte("noise alpha7 noise beta3 noise")

	// A 12-STE half-core: the 18-state application needs 2 batches.
	eng := sparseap.NewEngine(sparseap.DefaultAPConfig().WithCapacity(12))
	base, _ := eng.RunBaseline(net, input)
	part, _ := eng.Partition(net, input[:6]) // profile on "noise "
	res, _ := eng.RunBaseAPSpAP(part, input)

	fmt.Println("baseline batches:", base.Batches)
	fmt.Println("matches preserved:", res.NumReports == base.Reports)
	// Output:
	// baseline batches: 2
	// matches preserved: true
}

// ExampleAnalyze shows the hot/cold characterization of Figure 1.
func ExampleAnalyze() {
	net, _ := sparseap.CompileRegex([]string{"abcdefgh"})
	a := sparseap.Analyze(net, []byte("abab abab"))
	fmt.Printf("states=%d hot=%d\n", a.States, a.Hot)
	// Output:
	// states=8 hot=3
}

// ExampleHammingNFA builds a bounded-mismatch motif automaton.
func ExampleHammingNFA() {
	m := sparseap.HammingNFA([]byte("GATTACA"), 1)
	net := sparseap.NewNetwork(m)
	fmt.Println("hits:", len(sparseap.Match(net, []byte("GATCACA"))))
	// Output:
	// hits: 1
}

// ExampleMinimize shows compile-time prefix sharing across rules.
func ExampleMinimize() {
	net, _ := sparseap.CompileRegex([]string{"prefix-one", "prefix-two"})
	_, stats, _ := sparseap.Minimize(net)
	fmt.Println("states saved:", stats.StatesRemoved())
	// Output:
	// states saved: 7
}
