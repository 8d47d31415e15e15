// Quiet runs: the symbols the base kernel does not step.
//
// A network with all-input starts is never empty, so the SpAP jump never
// applies to it; but on a low-activity application most symbols find
// nothing explicitly enabled, match no state of the pending start plan and
// fire no reporting start: the step they would take changes nothing but
// which plan is pending. Whether it does is a function of the previous
// symbol and this one, which Compile tabulates (Image.quiet) and Skip
// walks, one bit a symbol. See DESIGN.md §3.
//
// This file sorts after sim.go and is called from buildStartPlans on
// purpose: LV's dense pass reads 15 % slower or faster with the addresses
// of stepDense and denseSlow modulo 64, and code added ahead of them in
// link order moves those (DESIGN.md §2).
package sim

// buildQuiet fills the quiet table from the start plans and the cut. A
// symbol is calm when it fires no reporting start and fewer starts than
// send KernelAuto to the dense pass; it is quiet after p when it is calm
// and matches no state of p's plan, and never after a plan long enough to
// go dense on its own. A network without all-input starts has no plans and
// no table: its empty frontier is the SpAP jump's case.
func (img *Image) buildQuiet() {
	img.quiet = new([257][4]uint64)
	calm := &img.quiet[256]
	for b := range img.startCount {
		if len(img.startRep[b]) == 0 && int(img.startCount[b].starts) < img.denseCut {
			calm[b>>6] |= 1 << (b & 63)
		}
	}
	for p, plan := range img.startNext {
		if len(plan) >= img.denseCut {
			continue
		}
		row := &img.quiet[p]
		*row = *calm
		for _, v := range plan {
			for w, m := range img.match[4*v : 4*v+4] {
				row[w] &^= m
			}
		}
	}
}

// Skip consumes the quiet symbols of in from index at on — each would take
// the sparse step, activate nothing and report nothing, leaving only its
// own start plan pending — and returns how many they are; the caller steps
// on from there, and bounds a run by where it cuts in. That a symbol is
// quiet is decided by the symbol before it and the image's cut
// (Image.quiet), given an empty explicit frontier. Input positions do not
// enter into it: a quiet step reports nothing. The index is a parameter so
// that, inlined, a call costs one test a symbol where the frontier is never
// empty: the slice is cut behind the test.
func (e *Engine) Skip(in []byte, at int) int {
	if e.curLen != 0 {
		return 0
	}
	return e.skip(in[at:])
}

// skip is Skip on an empty explicit frontier. It consumes nothing on an
// engine that tracks (every plan would have to be marked), runs forced
// dense, or had its cut overridden (the table is built from the image's),
// nor over an image without a table.
// What it leaves is what the sparse steps would have: pend and the step
// count; the bitmaps and lists were empty and stay so.
func (e *Engine) skip(in []byte) int {
	img := e.img
	if e.ever != nil || e.kernel == KernelDense || e.denseCut != img.denseCut || img.quiet == nil {
		return 0
	}
	row := &img.quiet[256]
	if e.pendLen != 0 {
		row = &img.quiet[e.pend]
	}
	n := 0
	for _, b := range in {
		if row[b>>6]&(1<<(b&63)) == 0 {
			break
		}
		row = &img.quiet[b]
		n++
	}
	if n != 0 {
		e.pend, e.pendLen = in[n-1], int(img.startCount[in[n-1]].plan)
		e.sparseSteps += int64(n)
	}
	return n
}

// Run steps the engine through in, whose first symbol is at position pos,
// skipping the quiet runs.
func (e *Engine) Run(pos int64, in []byte) {
	for i := 0; i < len(in); i++ {
		if i += e.Skip(in, i); i == len(in) {
			break
		}
		e.Step(pos+int64(i), in[i])
	}
}
