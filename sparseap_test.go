package sparseap_test

import (
	"bytes"
	"strings"
	"testing"

	"sparseap"
	"sparseap/internal/anml"
)

func TestQuickstartPipeline(t *testing.T) {
	net, err := sparseap.CompileRegex([]string{"needle[0-9]{2}", "hay.{3}stack"})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("find the needle42 in the hayBIGstack today needle07")
	reports := sparseap.Match(net, input)
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3 (%v)", len(reports), reports)
	}

	eng := sparseap.NewEngine(sparseap.DefaultAPConfig())
	base, err := eng.RunBaseline(net, input)
	if err != nil {
		t.Fatal(err)
	}
	if base.Batches != 1 || base.Reports != 3 {
		t.Fatalf("baseline = %+v", base)
	}

	part, err := eng.Partition(net, input[:10])
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunBaseAPSpAP(part, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumReports != 3 {
		t.Fatalf("partitioned reports = %d, want 3", res.NumReports)
	}
	cpuRes, err := eng.RunAPCPU(part, input)
	if err != nil {
		t.Fatal(err)
	}
	if cpuRes.NumReports != 3 {
		t.Fatalf("AP-CPU reports = %d, want 3", cpuRes.NumReports)
	}
}

func TestANMLRoundTripFacade(t *testing.T) {
	net, err := sparseap.CompileRegex([]string{"abc+d"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := anml.Write(&buf, net, "demo"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "state-transition-element") {
		t.Fatal("ANML output missing STEs")
	}
	back, err := sparseap.ReadANML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("xabcccd")
	if got, want := len(sparseap.Match(back, in)), len(sparseap.Match(net, in)); got != want {
		t.Fatalf("round-tripped network disagrees: %d vs %d", got, want)
	}
}

func TestHammingNFAFacade(t *testing.T) {
	m := sparseap.HammingNFA([]byte("GATTACA"), 1)
	net := sparseap.NewNetwork(m)
	if len(sparseap.Match(net, []byte("GATCACA"))) == 0 {
		t.Fatal("distance-1 variant not matched")
	}
	if len(sparseap.Match(net, []byte("GGGTACA"))) != 0 {
		t.Fatal("distance-2 variant matched with d=1")
	}
}

func TestAnalyzeFacade(t *testing.T) {
	net, err := sparseap.CompileRegex([]string{"abcdef"})
	if err != nil {
		t.Fatal(err)
	}
	a := sparseap.Analyze(net, []byte("abq abq"))
	if a.States != 6 || a.NFAs != 1 || a.Reporting != 1 || a.MaxTopo != 6 {
		t.Fatalf("analysis = %+v", a)
	}
	if a.Hot != 3 { // a, b hot via enablement; c enabled after ab
		t.Fatalf("hot = %d, want 3", a.Hot)
	}
}

func TestSpeedupFacade(t *testing.T) {
	if sparseap.Speedup(100, 25) != 4 {
		t.Fatal("Speedup wrong")
	}
}
