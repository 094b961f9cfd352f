package obs

import (
	"net/http"
	"sync/atomic"
)

// Registry declares each metric family once — its name, type, help text
// and how to read its samples — and writes every family, in declaration
// order, as one Prometheus text exposition. Families are declared while a
// server is built; writes may then run concurrently with metric updates.
type Registry struct {
	families []family
}

type family struct {
	name, typ, help string
	samples         func(p *PromWriter)
	// gauge, set instead of samples for an unlabeled gauge, reads its value;
	// ok == false omits the whole family from that write.
	gauge func() (v float64, ok bool)
}

// Family declares a family whose samples are written by samples: the
// general form behind the typed helpers, for histograms and for label
// sets known only at write time.
func (r *Registry) Family(name, typ, help string, samples func(p *PromWriter)) {
	r.families = append(r.families, family{name: name, typ: typ, help: help, samples: samples})
}

// Counter declares an unlabeled counter and returns it.
func (r *Registry) Counter(name, help string) *atomic.Int64 {
	c := new(atomic.Int64)
	r.Family(name, "counter", help, func(p *PromWriter) { p.IntSample(name, c.Load()) })
	return c
}

// CounterVec declares a counter with one series per value of label, every
// series present from the first write so the exposition keeps one shape.
// The returned map is keyed by label value and must not be modified.
func (r *Registry) CounterVec(name, help, label string, values ...string) map[string]*atomic.Int64 {
	cs := make(map[string]*atomic.Int64, len(values))
	for _, v := range values {
		cs[v] = new(atomic.Int64)
	}
	r.Family(name, "counter", help, func(p *PromWriter) {
		for _, v := range values {
			p.IntSample(name, cs[v].Load(), label, v)
		}
	})
	return cs
}

// Gauge declares an unlabeled gauge read from value at every write. The
// family is left out of a write while value reports ok == false.
func (r *Registry) Gauge(name, help string, value func() (v float64, ok bool)) {
	r.families = append(r.families, family{name: name, typ: "gauge", help: help, gauge: value})
}

// ServeHTTP writes the exposition in text format 0.0.4: the /metrics
// handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := NewPromWriter(w)
	for _, f := range r.families {
		if f.gauge == nil {
			p.Family(f.name, f.typ, f.help)
			f.samples(p)
			continue
		}
		if v, ok := f.gauge(); ok {
			p.Family(f.name, f.typ, f.help)
			p.Sample(f.name, v)
		}
	}
}
