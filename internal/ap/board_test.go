package ap

import "testing"

func TestBoardValidate(t *testing.T) {
	chip := Board{HalfCore: DefaultConfig(), HalfCores: 2}
	if err := chip.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := chip
	bad.HalfCores = 0
	if bad.Validate() == nil {
		t.Fatal("zero half-cores validated")
	}
	bad = chip
	bad.HalfCore.Capacity = 0
	if bad.Validate() == nil {
		t.Fatal("invalid half-core validated")
	}
}

func TestBoardRounds(t *testing.T) {
	b := Board{HalfCore: DefaultConfig(), HalfCores: 2}
	cases := [][2]int{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {47, 24}}
	for _, c := range cases {
		if got := b.Rounds(c[0]); got != c[1] {
			t.Errorf("Rounds(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestBoardBaselineCycles(t *testing.T) {
	net := makeNet(4, 4, 4, 4) // 16 states
	b := Board{HalfCore: DefaultConfig().WithCapacity(4), HalfCores: 2}
	rounds, cycles, err := b.BaselineCycles(net, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 || cycles != 200 { // 4 batches on 2 half-cores
		t.Fatalf("rounds=%d cycles=%d", rounds, cycles)
	}
	// A wide board collapses to one round.
	b.HalfCores = 8
	rounds, cycles, err = b.BaselineCycles(net, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 || cycles != 100 {
		t.Fatalf("wide board rounds=%d cycles=%d", rounds, cycles)
	}
	// Oversized NFA propagates the batching error.
	b.HalfCore = DefaultConfig().WithCapacity(2)
	if _, _, err := b.BaselineCycles(net, 100); err == nil {
		t.Fatal("oversized NFA accepted")
	}
	b.HalfCores = 0
	if _, _, err := b.BaselineCycles(net, 100); err == nil {
		t.Fatal("invalid board accepted")
	}
}
