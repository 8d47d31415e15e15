package checkpoint

import (
	"errors"
	"fmt"
)

// manifestVersion is the manifest record format version; LoadManifest
// refuses any other with ErrMismatch.
const manifestVersion = 2

// manifestName is the store slot the manifest lives in.
const manifestName = "manifest"

// Manifest ties the checkpoint streams of one logical run together. A
// multi-NFA batched run persists several sections (baseline pass, BaseAP
// phase, per-batch SpAP progress); the manifest records what run they
// belong to, so -resume can verify it is continuing the same application
// at the same scale, seed, capacity, system, and fault plan — and refuse
// otherwise — plus how many times the run has resumed (the chaos epoch).
type Manifest struct {
	// Fingerprint identifies the run: application + generation config +
	// execution knobs, as computed by the caller.
	Fingerprint string
	// InputLen is the input stream length in symbols.
	InputLen int64
	// Resumes counts completed resume handoffs: 0 on the first run, +1
	// each time a process picks the run back up. Doubles as the chaos
	// epoch, so an injected-crash schedule re-rolls on every resume and
	// a soak loop terminates with probability 1.
	Resumes int64
}

// encode renders the manifest payload.
func (m *Manifest) encode(e *Enc) {
	e.String(m.Fingerprint)
	e.I64(m.InputLen)
	e.I64(m.Resumes)
}

// decodeManifest parses a manifest payload.
func decodeManifest(b []byte) (*Manifest, error) {
	d := NewDec(b)
	m := &Manifest{
		Fingerprint: d.String(),
		InputLen:    d.I64(),
		Resumes:     d.I64(),
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveManifest persists the manifest through the store's atomic path.
func (s *DirStore) SaveManifest(m *Manifest) error {
	var e Enc
	m.encode(&e)
	return s.Save(manifestName, manifestVersion, e.Bytes())
}

// LoadManifest returns the stored manifest, or ErrNoCheckpoint when the
// store holds none.
func (s *DirStore) LoadManifest() (*Manifest, error) {
	payload, version, _, err := s.Load(manifestName)
	if err != nil {
		return nil, err
	}
	if version != manifestVersion {
		return nil, fmt.Errorf("%w: manifest version %d, want %d", ErrMismatch, version, manifestVersion)
	}
	return decodeManifest(payload)
}

// ResumeManifest validates and advances the manifest for a resuming run:
// the stored fingerprint and input length must match, Resumes is bumped
// (the new chaos epoch) and persisted. When the store has no manifest a
// fresh one is created with Resumes 0. The returned manifest reflects the
// persisted state.
func (s *DirStore) ResumeManifest(fingerprint string, inputLen int64) (*Manifest, error) {
	m, err := s.LoadManifest()
	switch {
	case errors.Is(err, ErrNoCheckpoint):
		m = &Manifest{Fingerprint: fingerprint, InputLen: inputLen}
	case err != nil:
		return nil, err
	default:
		if m.Fingerprint != fingerprint || m.InputLen != inputLen {
			return nil, fmt.Errorf("%w: stored run %q (%d symbols), this run %q (%d symbols)",
				ErrMismatch, m.Fingerprint, m.InputLen, fingerprint, inputLen)
		}
		m.Resumes++
	}
	if err := s.SaveManifest(m); err != nil {
		return nil, err
	}
	return m, nil
}

// FreshManifest clears the store and persists a new manifest for a run
// starting from scratch (no -resume).
func (s *DirStore) FreshManifest(fingerprint string, inputLen int64) (*Manifest, error) {
	if err := s.Clear(); err != nil {
		return nil, err
	}
	m := &Manifest{Fingerprint: fingerprint, InputLen: inputLen}
	if err := s.SaveManifest(m); err != nil {
		return nil, err
	}
	return m, nil
}
