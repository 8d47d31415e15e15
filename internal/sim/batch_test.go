package sim

import (
	"math/bits"
	"math/rand"
	"testing"

	"sparseap/internal/automata"
	"sparseap/internal/oracle"
)

// randomLaneInputs builds 1..64 ragged inputs over a small alphabet.
func randomLaneInputs(r *rand.Rand, lanes int) [][]byte {
	alphabet := []byte("abcdx")
	out := make([][]byte, lanes)
	for l := range out {
		in := make([]byte, r.Intn(150)) // may be empty
		for i := range in {
			in[i] = alphabet[r.Intn(len(alphabet))]
		}
		out[l] = in
	}
	return out
}

func requireLaneEqualsSolo(t *testing.T, trial int, lane int, got, want []Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d lane %d: %d reports, solo %d", trial, lane, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trial %d lane %d: report[%d] = %+v, solo %+v",
				trial, lane, i, got[i], want[i])
		}
	}
}

// Property (the tentpole invariant): for random networks, random lane
// counts 1–64 with ragged lengths, and every kernel, each lane of a batch
// run produces a report stream bit-identical to a solo Run over the same
// input — same positions, same canonical within-cycle order.
func TestPropBatchLanesIdenticalToSolo(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	kernels := []Kernel{KernelSparse, KernelDense, KernelAuto}
	for trial := 0; trial < 60; trial++ {
		net := oracle.Network(r, 24)
		lanes := 1 + r.Intn(MaxLanes)
		inputs := randomLaneInputs(r, lanes)
		threshold := 1 + r.Intn(4)
		solo := make([][]Report, lanes)
		for l, in := range inputs {
			solo[l] = Run(net, in, Options{CollectReports: true}).Reports
		}
		for _, k := range kernels {
			results := RunBatch(net, inputs, BatchOptions{
				CollectReports: true, Kernel: k, DenseThreshold: threshold,
			})
			for l, res := range results {
				requireLaneEqualsSolo(t, trial, l, res.Reports, solo[l])
				if res.NumReports != int64(len(solo[l])) {
					t.Fatalf("trial %d lane %d kernel %v: NumReports %d, solo %d",
						trial, l, k, res.NumReports, len(solo[l]))
				}
				if res.Symbols != int64(len(inputs[l])) {
					t.Fatalf("trial %d lane %d: consumed %d symbols, input %d",
						trial, l, res.Symbols, len(inputs[l]))
				}
			}
		}
	}
}

// Property: lanes joining mid-batch (after the engine has ticked an
// arbitrary number of cycles) and lanes retiring mid-batch still produce
// solo-identical streams — a joining lane starts at its own position 0,
// a retiring lane never perturbs its neighbours.
func TestPropBatchMidBatchJoinAndRetire(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		net := oracle.Network(r, 24)
		lanes := 2 + r.Intn(MaxLanes-1)
		inputs := randomLaneInputs(r, lanes)
		threshold := 1 + r.Intn(4)
		be := AcquireBatchEngine(net, BatchOptions{CollectReports: true, DenseThreshold: threshold})
		laneOf := make(map[int]int)
		got := make([][]Report, lanes)
		nextJoin := 0
		for nextJoin < lanes || be.Running() > 0 {
			// Join a random number of pending streams at this point.
			for nextJoin < lanes && r.Intn(3) != 0 {
				lane, ok := be.Join(inputs[nextJoin])
				if !ok {
					break
				}
				laneOf[lane] = nextJoin
				nextJoin++
				if be.Done(lane) {
					got[laneOf[lane]] = append([]Report(nil), be.LaneReports(lane)...)
					be.Free(lane)
				}
			}
			if be.Running() == 0 && nextJoin < lanes {
				continue // roll the join dice again
			}
			ret := be.Tick()
			for m := ret; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				got[laneOf[lane]] = append([]Report(nil), be.LaneReports(lane)...)
				be.Free(lane)
			}
		}
		be.Release()
		for l, in := range inputs {
			want := Run(net, in, Options{CollectReports: true}).Reports
			requireLaneEqualsSolo(t, trial, l, got[l], want)
		}
	}
}

// An early Retire withdraws one lane without disturbing the others: the
// retired lane's reports are a strict prefix of its solo stream, and
// every surviving lane still matches solo exactly.
func TestBatchEarlyRetireIsolated(t *testing.T) {
	r := rand.New(rand.NewSource(7001))
	for trial := 0; trial < 40; trial++ {
		net := oracle.Network(r, 24)
		inputs := randomLaneInputs(r, 3+r.Intn(8))
		for l := range inputs {
			if len(inputs[l]) == 0 {
				inputs[l] = []byte("ab") // this test wants running lanes
			}
		}
		be := AcquireBatchEngine(net, BatchOptions{CollectReports: true, DenseThreshold: 1 + r.Intn(4)})
		laneOf := map[int]int{}
		for idx, in := range inputs {
			lane, ok := be.Join(in)
			if !ok {
				t.Fatal("join failed")
			}
			laneOf[lane] = idx
		}
		victimLane := r.Intn(len(inputs))
		retireAt := r.Intn(40)
		got := make([][]Report, len(inputs))
		retired := false
		for tick := 0; be.Running() > 0; tick++ {
			if tick == retireAt && !retired && !be.Done(victimLane) {
				got[laneOf[victimLane]] = append([]Report(nil), be.LaneReports(victimLane)...)
				be.Retire(victimLane)
				retired = true
			}
			ret := be.Tick()
			for m := ret; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				got[laneOf[lane]] = append([]Report(nil), be.LaneReports(lane)...)
			}
		}
		be.Release()
		for l, in := range inputs {
			want := Run(net, in, Options{CollectReports: true}).Reports
			if retired && l == laneOf[victimLane] {
				// Prefix property: everything emitted up to the retire
				// point matches solo.
				if len(got[l]) > len(want) {
					t.Fatalf("trial %d: retired lane emitted %d reports, solo only %d",
						trial, len(got[l]), len(want))
				}
				for i := range got[l] {
					if got[l][i] != want[i] {
						t.Fatalf("trial %d: retired lane report[%d] = %+v, solo %+v",
							trial, i, got[l][i], want[i])
					}
				}
				continue
			}
			requireLaneEqualsSolo(t, trial, l, got[l], want)
		}
	}
}

// Tick must not allocate in steady state, on any kernel: the batch step
// is the serving hot loop.
func TestBatchTickZeroAlloc(t *testing.T) {
	net := figure2()
	input := []byte("abcfacdcdfabcf")
	inputs := make([][]byte, MaxLanes)
	for l := range inputs {
		inputs[l] = input
	}
	for _, k := range []Kernel{KernelSparse, KernelDense, KernelAuto} {
		be := AcquireBatchEngine(net, BatchOptions{CollectReports: true, Kernel: k, DenseThreshold: 2})
		run := func() {
			be.Reset()
			for _, in := range inputs {
				if _, ok := be.Join(in); !ok {
					t.Fatal("join failed")
				}
			}
			for be.Running() > 0 {
				be.Tick()
			}
		}
		run() // warm up the lane, frontier, and report buffers
		allocs := testing.AllocsPerRun(10, run)
		be.Release()
		if allocs != 0 {
			t.Errorf("kernel %v: %v allocs per batch run, want 0", k, allocs)
		}
	}
}

// The pool must hand back scrubbed engines: no report callback, no stale
// lane state, and report buffers capped like the solo engine's.
func TestBatchReleaseScrubs(t *testing.T) {
	net := figure2()
	img := ImageOf(net)
	be := img.AcquireBatch(BatchOptions{CollectReports: true})
	be.OnReport = func(int, int64, automata.StateID) {}
	if _, ok := be.Join([]byte("abcfacdc")); !ok {
		t.Fatal("join failed")
	}
	be.Tick()
	be.Release()
	got := img.AcquireBatch(BatchOptions{CollectReports: true})
	defer got.Release()
	if got.OnReport != nil {
		t.Error("pooled engine kept OnReport")
	}
	if got.Running() != 0 || got.FreeLanes() != MaxLanes {
		t.Errorf("pooled engine kept lanes: running %d, free %d", got.Running(), got.FreeLanes())
	}
	for l := 0; l < MaxLanes; l++ {
		if got.Done(l) || got.LaneNumReports(l) != 0 || len(got.LaneReports(l)) != 0 {
			t.Fatalf("lane %d not scrubbed", l)
		}
	}
}

// A released engine must not pin huge per-lane report arrays in the pool.
func TestBatchReleaseCapsReportCap(t *testing.T) {
	net := figure2()
	img := ImageOf(net)
	be := img.AcquireBatch(BatchOptions{CollectReports: true})
	lane, _ := be.Join([]byte("a"))
	be.lanes[lane].reports = make([]Report, 0, maxPooledReportCap+1)
	be.Release()
	reused := img.AcquireBatch(BatchOptions{})
	defer reused.Release()
	if c := cap(reused.lanes[lane].reports); c > maxPooledReportCap {
		t.Fatalf("pooled lane report cap %d exceeds bound %d", c, maxPooledReportCap)
	}
}

// The adaptive batch kernel must actually use both passes across a run
// whose union frontier oscillates over the threshold.
func TestBatchAutoSwitches(t *testing.T) {
	net := figure2()
	be := AcquireBatchEngine(net, BatchOptions{Kernel: KernelAuto, DenseThreshold: 2})
	defer be.Release()
	for l := 0; l < 8; l++ {
		if _, ok := be.Join([]byte("abcfacdcdf")); !ok {
			t.Fatal("join failed")
		}
	}
	for be.Running() > 0 {
		be.Tick()
	}
	if be.DenseTicks()+be.SparseTicks() != be.Ticks() {
		t.Fatalf("dense %d + sparse %d != %d ticks", be.DenseTicks(), be.SparseTicks(), be.Ticks())
	}
	if be.DenseTicks() == 0 || be.SparseTicks() == 0 {
		t.Fatalf("auto batch kernel never switched: dense %d, sparse %d",
			be.DenseTicks(), be.SparseTicks())
	}
}

// RunBatch must schedule more streams than lanes by reusing retired
// slots, still solo-identical per stream.
func TestRunBatchMoreStreamsThanLanes(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	net := oracle.Network(r, 24)
	inputs := make([][]byte, MaxLanes+37)
	for i := range inputs {
		inputs[i] = randomLaneInputs(r, 1)[0]
	}
	results := RunBatch(net, inputs, BatchOptions{CollectReports: true})
	for i, res := range results {
		want := Run(net, inputs[i], Options{CollectReports: true}).Reports
		requireLaneEqualsSolo(t, 0, i, res.Reports, want)
	}
}
