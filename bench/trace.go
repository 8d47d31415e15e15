package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparseap/internal/checkpoint"
	"sparseap/internal/replica"
)

// opHeader carries the operation id of a match request; a stream's id is
// its X-Session.
const opHeader = "X-Bench-Op"

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the id of the span that caused this one (0 for a
// root). Times are nanoseconds since the recorder was made.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// causes lists, per span name, the names of the spans that can have caused
// it, nearest first. Every instrumented boundary sits in the benchmark's
// own files, so a span cannot be handed its parent; link finds it.
var causes = map[string][]string{
	"serve.handler":     {"client.op"},
	"replica.save":      {"serve.handler"},
	"replica.remove":    {"serve.handler"},
	"replica.load":      {"serve.handler"},
	"checkpoint.save":   {"replica.save", "serve.handler"},
	"checkpoint.load":   {"replica.load", "serve.handler"},
	"checkpoint.remove": {"replica.remove", "serve.handler"},
	"replica.recv":      {"replica.save"},
	"follower.save":     {"replica.recv"},
	"sim.run":           {"offline.pass"},
	"spap.run_guarded":  {"offline.pass"},
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its handle for end. A nil recorder, which
// is what an untraced run's decorators hold, records nothing.
func (r *recorder) begin(name, op string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Op: op, Start: now})
	return len(r.spans) - 1
}

func (r *recorder) end(h, bytes int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[h].End, r.spans[h].Bytes = now, bytes
	r.mu.Unlock()
}

// add records a span whose interval the caller timed itself.
func (r *recorder) add(name, op string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Op: op,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	r.mu.Unlock()
}

// linked returns the finished spans inside [from, to] with Parent filled
// in: the nearest cause of the same operation that was open when the span
// started.
func (r *recorder) linked(from, to time.Time) []span {
	lo, hi := int64(from.Sub(r.t0)), int64(to.Sub(r.t0))
	r.mu.Lock()
	all := append([]span(nil), r.spans...)
	r.mu.Unlock()
	type key struct{ name, op string }
	byKey := map[key][]int{}
	for i, s := range all {
		if s.End != 0 {
			byKey[key{s.Name, s.Op}] = append(byKey[key{s.Name, s.Op}], i)
		}
	}
	var out []span
	for _, s := range all {
		if s.End == 0 || s.Start < lo || s.End > hi {
			continue
		}
	search:
		for _, cause := range causes[s.Name] {
			for _, i := range byKey[key{cause, s.Op}] {
				if p := all[i]; p.Start <= s.Start && s.Start <= p.End {
					s.Parent = p.ID
					break search
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover. A child is clipped to its parent: a follower's receive
// span can outlive the save that shipped it by the reply's trip back.
func selfTimes(spans []span) map[string]time.Duration {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	covered := map[int]int64{}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		start, end := max(s.Start, p.Start), min(s.End, p.End)
		if end > start {
			covered[p.ID] += end - start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += s.dur() - time.Duration(covered[s.ID])
	}
	return self
}

// durations returns the lengths of the spans called name, in µs.
func durations(spans []span, name string) []float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, us(s.dur()))
		}
	}
	return v
}

func writeSpans(path string, results []*result) error {
	type traced struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	var doc []traced
	for _, r := range results {
		doc = append(doc, traced{r.Workload, r.spans})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// tracedStore times every call into a checkpoint.Store. layer names whose
// store it is: "checkpoint" (the serving node's own disk), "replica" (the
// shipping wrapper around it) or "follower" (the receiving node's disk).
// Every run has it in place, since the time spent saving is what tells how
// much of a window the disk's speed governs (calib.go); spans and payload
// copies are a traced run's alone.
type tracedStore struct {
	inner checkpoint.Store
	rec   *recorder
	layer string
	busy  atomic.Int64 // ns spent inside Save

	mu       sync.Mutex
	payloads [][]byte // the newest few saved payloads, for the load probe
}

func opOfSlot(name string) string { return strings.TrimPrefix(name, "sess-") }

func (t *tracedStore) Save(name string, version uint32, payload []byte) error {
	t0 := time.Now()
	h := t.rec.begin(t.layer+".save", opOfSlot(name))
	err := t.inner.Save(name, version, payload)
	t.rec.end(h, len(payload))
	t.busy.Add(int64(time.Since(t0)))
	if t.rec == nil {
		return err
	}
	t.mu.Lock()
	if len(t.payloads) == 8 {
		t.payloads = t.payloads[1:]
	}
	t.payloads = append(t.payloads, append([]byte(nil), payload...))
	t.mu.Unlock()
	return err
}

func (t *tracedStore) Load(name string) ([]byte, uint32, bool, error) {
	h := t.rec.begin(t.layer+".load", opOfSlot(name))
	p, v, fb, err := t.inner.Load(name)
	t.rec.end(h, len(p))
	return p, v, fb, err
}

func (t *tracedStore) LoadPrevious(name string) ([]byte, uint32, error) {
	h := t.rec.begin(t.layer+".load", opOfSlot(name))
	p, v, err := t.inner.LoadPrevious(name)
	t.rec.end(h, len(p))
	return p, v, err
}

func (t *tracedStore) Remove(name string) error {
	h := t.rec.begin(t.layer+".remove", opOfSlot(name))
	err := t.inner.Remove(name)
	t.rec.end(h, 0)
	return err
}

func (t *tracedStore) Names() ([]string, error) { return t.inner.Names() }
func (t *tracedStore) Clear() error             { return t.inner.Clear() }

// tracedReplica is a tracedStore around a replica.Store. It forwards
// Local, so the server's receive path and migration clean-up still reach
// the node's own disk exactly as they do without the decorator.
type tracedReplica struct {
	tracedStore
	rs *replica.Store
}

func (t *tracedReplica) Local() checkpoint.Store { return t.rs.Local() }

// middleware times a node's handler from outside: one span per stream,
// match or received shipment.
func (r *recorder) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var name, op string
		switch {
		case req.URL.Path == "/v1/stream":
			name, op = "serve.handler", req.Header.Get("X-Session")
		case req.URL.Path == "/v1/match":
			name, op = "serve.handler", req.Header.Get(opHeader)
		case req.URL.Path == replica.SlotPath && req.Method == http.MethodPost:
			name, op = "replica.recv", opOfSlot(req.URL.Query().Get("name"))
		default:
			h.ServeHTTP(w, req)
			return
		}
		s := r.begin(name, op)
		h.ServeHTTP(w, req) // w is passed as is: the stream path needs its full-duplex controller
		r.end(s, int(req.ContentLength))
	})
}

// spansNamed sorts the spans called name by start time.
func spansNamed(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}
