package ap

import (
	"math/rand"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/symset"
)

// makeNet builds a network of nfas chains with the given sizes; each chain
// matches 'a'+ and reports at its tail.
func makeNet(sizes ...int) *automata.Network {
	nfas := make([]*automata.NFA, len(sizes))
	for i, sz := range sizes {
		m := automata.NewNFA()
		prev := m.Add(symset.Single('a'), automata.StartAllInput, false)
		for k := 1; k < sz; k++ {
			cur := m.Add(symset.Single('a'), automata.StartNone, k == sz-1)
			m.Connect(prev, cur)
			prev = cur
		}
		if sz == 1 {
			m.States[0].Report = true
		}
		nfas[i] = m
	}
	return automata.NewNetwork(nfas...)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Fatalf("PaperConfig invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Capacity = 0
	if bad.Validate() == nil {
		t.Error("zero capacity validated")
	}
	bad = DefaultConfig()
	bad.Blocks = 1
	if bad.Validate() == nil {
		t.Error("undersized hierarchy validated")
	}
	bad = DefaultConfig()
	bad.ReportQueueLen = 0
	if bad.Validate() == nil {
		t.Error("zero report queue validated")
	}
}

func TestWithCapacity(t *testing.T) {
	c := DefaultConfig().WithCapacity(6000)
	if c.Capacity != 6000 {
		t.Fatalf("capacity = %d", c.Capacity)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	if c.Blocks != 24 { // 6000 / 256 rounded up
		t.Errorf("blocks = %d, want 24", c.Blocks)
	}
}

// TestScaled pins the one capacity rule every command and the service
// read: the paper's 24K-STE half-core divided by the workload divisor,
// with the default 1/8 scale landing exactly on DefaultConfig.
func TestScaled(t *testing.T) {
	if got := Scaled(8); got != DefaultConfig() {
		t.Errorf("Scaled(8) = %+v, want DefaultConfig %+v", got, DefaultConfig())
	}
	for _, d := range []int{1, 4, 8, 64} {
		c := Scaled(d)
		if c.Capacity != 24000/d {
			t.Errorf("Scaled(%d).Capacity = %d, want %d", d, c.Capacity, 24000/d)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("Scaled(%d): %v", d, err)
		}
	}
}

// TestScaledPanicsOnNonPositiveDivisor: no divisor <= 0 names a scale, so
// Scaled refuses it rather than return a negative capacity (or divide by
// zero).
func TestScaledPanicsOnNonPositiveDivisor(t *testing.T) {
	for _, d := range []int{0, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scaled(%d) returned", d)
				}
			}()
			Scaled(d)
		}()
	}
}

func TestAddressRoundTrip(t *testing.T) {
	c := PaperConfig()
	for _, i := range []int{0, 1, 255, 256, 4095, 23999} {
		a, err := c.AddressOf(i)
		if err != nil {
			t.Fatalf("AddressOf(%d): %v", i, err)
		}
		w, err := c.EncodeAddress(a)
		if err != nil {
			t.Fatalf("EncodeAddress(%+v): %v", a, err)
		}
		if got := c.DecodeAddress(w); got != a {
			t.Fatalf("decode(encode(%+v)) = %+v", a, got)
		}
	}
	if _, err := c.AddressOf(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := c.AddressOf(24000); err == nil {
		t.Error("out-of-capacity index accepted")
	}
	if _, err := c.EncodeAddress(Address{Block: 999}); err == nil {
		t.Error("out-of-hierarchy address encoded")
	}
}

func TestAddressOfHierarchy(t *testing.T) {
	c := PaperConfig()
	a, _ := c.AddressOf(16*16 + 16 + 3) // block 1, row 1, ste 3
	want := Address{Block: 1, Row: 1, STE: 3}
	if a != want {
		t.Fatalf("AddressOf = %+v, want %+v", a, want)
	}
}

func TestPartitionNFAsFirstFit(t *testing.T) {
	net := makeNet(6, 3, 3, 2)
	batches, err := PartitionNFAs(net, 7)
	if err != nil {
		t.Fatal(err)
	}
	// FFD: 6 -> batch0; 3 -> batch1; 3 -> batch1 (3+3=6<=7); 2 -> batch0? 6+2>7, batch1? 6+2>7 -> batch2.
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3 (%+v)", len(batches), batches)
	}
	total := 0
	seen := map[int]bool{}
	for _, b := range batches {
		if b.States > 7 {
			t.Errorf("batch exceeds capacity: %+v", b)
		}
		sum := 0
		for _, idx := range b.NFAs {
			if seen[idx] {
				t.Errorf("NFA %d in multiple batches", idx)
			}
			seen[idx] = true
			sum += net.NFASize(idx)
		}
		if sum != b.States {
			t.Errorf("batch state count mismatch: %+v", b)
		}
		total += sum
	}
	if total != net.Len() {
		t.Errorf("states covered = %d, want %d", total, net.Len())
	}
}

func TestPartitionNFAsOversized(t *testing.T) {
	net := makeNet(10)
	if _, err := PartitionNFAs(net, 5); err == nil {
		t.Error("oversized NFA accepted")
	}
}

func TestRunBaseline(t *testing.T) {
	net := makeNet(4, 4, 4) // 12 states
	cfg := DefaultConfig().WithCapacity(8)
	input := []byte("aaaaaaaaaa") // 10 a's: chains of 4 report at pos>=3
	res, err := RunBaseline(net, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 2 {
		t.Fatalf("batches = %d, want 2", res.Batches)
	}
	if res.Cycles != 20 {
		t.Fatalf("cycles = %d, want 20", res.Cycles)
	}
	// Each chain reports at positions 3..9 = 7 reports, 3 chains = 21.
	if res.Reports != 21 {
		t.Fatalf("reports = %d, want 21", res.Reports)
	}
	if res.TimeNS != 20*cfg.CycleNS {
		t.Fatalf("time = %v", res.TimeNS)
	}
}

func TestBaselineCyclesMatchesTableIVRatios(t *testing.T) {
	// An app with 47 units of states on a 1-unit AP takes 47 batches,
	// mirroring CAV4k's 47 baseline executions.
	sizes := make([]int, 470)
	for i := range sizes {
		sizes[i] = 10
	}
	net := makeNet(sizes...)
	batches, cycles, err := BaselineCycles(net, 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if batches != 47 {
		t.Fatalf("batches = %d, want 47", batches)
	}
	if cycles != 47000 {
		t.Fatalf("cycles = %d", cycles)
	}
}

func TestThroughputAndPerfPerSTE(t *testing.T) {
	if Throughput(100, 200) != 0.5 {
		t.Error("Throughput wrong")
	}
	if Throughput(100, 0) != 0 {
		t.Error("Throughput div-by-zero")
	}
	if PerfPerSTE(100, 100, 10) != 0.1 {
		t.Error("PerfPerSTE wrong")
	}
}

// Property: first-fit-decreasing batching never exceeds capacity, covers
// every NFA exactly once, and uses at most 2× the optimal bin count.
func TestPropPartitionNFAs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(40)
		capacity := 10 + r.Intn(90)
		sizes := make([]int, n)
		total := 0
		for i := range sizes {
			sizes[i] = 1 + r.Intn(capacity)
			total += sizes[i]
		}
		net := makeNet(sizes...)
		batches, err := PartitionNFAs(net, capacity)
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for _, b := range batches {
			if b.States > capacity {
				t.Fatalf("batch over capacity: %+v", b)
			}
			covered += b.States
		}
		if covered != total {
			t.Fatalf("covered %d != total %d", covered, total)
		}
		lower := (total + capacity - 1) / capacity
		if len(batches) > 2*lower {
			t.Fatalf("FFD used %d batches, lower bound %d", len(batches), lower)
		}
	}
}
