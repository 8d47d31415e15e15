package main

import (
	"os"
	"sync"
	"time"
)

// The box the ledger runs on is a small virtual machine on a shared host,
// and the host's speed is not the program's: the same binary on the same
// inputs runs a third slower one hour than the next and a fifth slower one
// minute than the next, on every workload at once, and the time of an
// fsync doubles and halves on a schedule of its own. A wall-clock figure
// therefore says as much about the neighbours as about the commit. So the
// load goroutines interleave their operations with a fixed reference that
// lives in this file and calls nothing of the program: a small automaton
// run by an interpreter of its own and, where the workload saves
// checkpoints, one durable write. Every time the ledger reports is scaled
// by how long the reference took in the same window relative to its nominal
// time. A change to the program moves its operations and not the
// reference; a slow host moves both alike.
//
// The reference is an automaton and not a plain loop because the host's
// interference is not one thing. Chains of dependent loads (in the private
// cache, the shared one or memory) and a streaming sum were timed beside
// real kernel calls for ten minutes: over ten-second blocks the kernels'
// times moved together (correlation 0.94) and each of those loops followed
// them at 0.5 to 0.85, while an active-list interpreter on a random
// automaton, which branches, tests bits and appends as the kernels do,
// followed at 0.87 and took the kernels' spread between blocks from 50 %
// of their median to 16 %.

// refNominal and writeNominal are the reference's quiet-quartile times on
// the box this benchmark was written on, in one of its fast hours. They
// only pin the unit: on a host that runs the reference in exactly these
// times, a reported second is a wall-clock one.
const (
	refNominal   = 2000 * time.Microsecond
	writeNominal = 400 * time.Microsecond
)

// refEvery is how often each load goroutine stops between two operations to
// time the reference.
const refEvery = 100 * time.Millisecond

// refAutomaton is the fixed compute reference: 8192 states, each matching an
// eighth of the alphabet and leading to three others, 64 of them start
// states that are always enabled, over 4 KiB of input. All of it comes from
// one xorshift stream. It must never change: every recorded figure is
// relative to it.
type refAutomaton struct {
	sym   [][4]uint64 // per state: the symbols it matches, one bit each
	succ  [][3]uint16
	start []uint16
	input []byte
}

var reference = func() *refAutomaton {
	const states = 8192
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	r := &refAutomaton{sym: make([][4]uint64, states), succ: make([][3]uint16, states), input: make([]byte, 4<<10)}
	for i := range r.sym {
		for w := range r.sym[i] {
			r.sym[i][w] = rnd() & rnd() & rnd()
		}
		for k := range r.succ[i] {
			r.succ[i][k] = uint16(rnd() % states)
		}
	}
	for i := 0; i < 64; i++ {
		r.start = append(r.start, uint16(rnd()%states))
	}
	for i := range r.input {
		r.input[i] = byte(rnd())
	}
	return r
}()

// refScratch is one interpreter's working memory, kept between runs so the
// reference allocates nothing.
type refScratch struct {
	mark      []int32 // per state: the last position it was enabled for
	cur, next []uint16
}

// run interprets the reference automaton over its input and returns the
// time that took and the number of matches, which is always the same. The
// tables are read through once before the clock starts, so the time does
// not depend on what the caller ran just before.
func (r *refAutomaton) run(sc *refScratch) (time.Duration, uint64) {
	if sc.mark == nil {
		sc.mark = make([]int32, len(r.sym))
	}
	var warm uint64
	for i := range r.sym {
		warm += r.sym[i][0] + uint64(r.succ[i][0])
		sc.mark[i] = -1
	}
	t0 := time.Now()
	cur, next := sc.cur[:0], sc.next[:0]
	var matches uint64
	for pos, b := range r.input {
		for _, s := range r.start {
			if sc.mark[s] != int32(pos) {
				sc.mark[s] = int32(pos)
				cur = append(cur, s)
			}
		}
		next = next[:0]
		for _, s := range cur {
			if r.sym[s][b>>6]>>(b&63)&1 == 0 {
				continue
			}
			matches++
			for _, t := range r.succ[s] {
				if sc.mark[t] != int32(pos)+1 {
					sc.mark[t] = int32(pos) + 1
					next = append(next, t)
				}
			}
		}
		cur, next = next, cur
	}
	d := time.Since(t0)
	sc.cur, sc.next = cur, next
	return d, matches + warm&1
}

var refBlock [2048]byte

// refWrite is the fixed durable write, the steps of a checkpoint save on a
// slot of typical size: create, write 2 KiB, fsync, close, rename.
func refWrite(dir string) (time.Duration, error) {
	t0 := time.Now()
	f, err := os.CreateTemp(dir, "ref-*")
	if err != nil {
		return 0, err
	}
	_, err = f.Write(refBlock[:])
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), f.Name()+".slot")
	}
	d := time.Since(t0)
	os.Remove(f.Name()) // whichever of the two names exists: neither is kept
	os.Remove(f.Name() + ".slot")
	return d, err
}

// speedometer collects the reference timings of one window or set-up
// phase. With dir set, every sample also times a durable write there.
type speedometer struct {
	dir string

	mu     sync.Mutex
	loops  []float64 // ns
	writes []float64 // ns
	sink   uint64    // keeps the interpreter's result live
	err    error     // the first failed reference write
}

// sample times the reference once; sc is the calling goroutine's own.
func (s *speedometer) sample(sc *refScratch) {
	d, acc := reference.run(sc)
	var w time.Duration
	var err error
	if s.dir != "" {
		w, err = refWrite(s.dir)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loops = append(s.loops, float64(d))
	s.sink += acc
	switch {
	case err != nil && s.err == nil:
		s.err = err
	case err == nil && s.dir != "":
		s.writes = append(s.writes, float64(w))
	}
}

// loopTime is the CPU time the samples' interpreter runs took, which a
// window's own CPU figure leaves out.
func (s *speedometer) loopTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	for _, d := range s.loops {
		sum += d
	}
	return time.Duration(sum)
}

// ticker is one load goroutine's handle on a speedometer: tick, called
// between two operations, samples if refEvery has passed since this
// goroutine last did.
type ticker struct {
	sm   *speedometer
	sc   refScratch
	next time.Time
}

func (t *ticker) tick() {
	if now := time.Now(); !now.Before(t.next) {
		t.next = now.Add(refEvery)
		t.sm.sample(&t.sc)
	}
}

// hostSpeed is how fast the host ran the reference relative to nominal
// (1.0 = nominal, 0.8 = a fifth slower), for compute and for the disk.
type hostSpeed struct{ cpu, disk float64 }

// speed reads the host's speed off the quiet quartile of the reference's
// times, the quantile every figure it scales is read at: the bursts that a
// lower quartile of operations leaves out are in the reference's median.
func (s *speedometer) speed() hostSpeed {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := hostSpeed{1, 1}
	if len(s.loops) > 0 {
		h.cpu = float64(refNominal) / quantile(s.loops, quiet)
	}
	if len(s.writes) > 0 {
		h.disk = float64(writeNominal) / quantile(s.writes, quiet)
	}
	return h
}

// scale is what a measured time is multiplied by to read as it would on a
// host at nominal speed, for work of which diskShare was spent inside
// checkpoint saves and the rest computing.
func (h hostSpeed) scale(diskShare float64) float64 {
	return (1-diskShare)*h.cpu + diskShare*h.disk
}
