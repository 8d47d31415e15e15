// Gauges: point-in-time values next to the monotonic counters — admitted
// bytes, queue depths — rendered in the same Prometheus text form.
package metrics

import "sync/atomic"

// Gauge is a settable instantaneous value. The zero value is ready to
// use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge returns the gauge of the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		if r.gauges == nil {
			r.gauges = map[string]*Gauge{}
		}
		r.gauges[name] = g
	}
	return g
}
