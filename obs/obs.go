// Package obs is a dependency-free metrics layer for the ring-embedding
// stack: lock-free counters, gauges, and log-linear histograms behind a
// registry that snapshots to JSON (so shard-local registries can be
// merged router-side with zero re-binning error) and renders Prometheus
// text exposition for /metrics endpoints.
//
// A registry is the only store of the counts it holds: components
// resolve their counters once, increment them where the counted event
// happens and read them back with Counter.Value; collectors only set
// gauges of live state at scrape time.
//
// Hot-path cost: Counter.Add and Gauge.Set are one atomic op,
// Histogram.Observe is three; none allocate.  Callers on hot paths
// should resolve the metric pointer once (Registry lookups take a
// read lock) and hold it.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.  It is the only store
// of its count: a component resolves the counter once, increments it
// where the event happens and reads it back with Value.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
//
//ringlint:noalloc
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
//
//ringlint:noalloc
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
//
//ringlint:noalloc
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (may be negative).
//
//ringlint:noalloc
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named metrics.  Metric identity is the family name
// plus an optional ordered list of label pairs; the rendered key is
// the Prometheus sample name, e.g.
// `session_repair_ns{dir="fault",tier="local"}`.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
	collectors []func(*Registry)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		help:       map[string]string{},
	}
}

// Key renders the metric key for a family and label pairs
// ("k1", "v1", "k2", "v2", ...).  A trailing odd label is ignored.
func Key(family string, labels ...string) string {
	if len(labels) < 2 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(labels[i+1])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// Family extracts the family name from a metric key.
func Family(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// Counter returns (creating if absent) the counter for family+labels.
func (r *Registry) Counter(family string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	key := Key(family, labels...)
	r.mu.RLock()
	c := r.counters[key]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[key]; c == nil {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (creating if absent) the gauge for family+labels.
func (r *Registry) Gauge(family string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	key := Key(family, labels...)
	r.mu.RLock()
	g := r.gauges[key]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[key]; g == nil {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns (creating if absent) the histogram for
// family+labels.
func (r *Registry) Histogram(family string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	key := Key(family, labels...)
	r.mu.RLock()
	h := r.histograms[key]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[key]; h == nil {
		h = &Histogram{}
		r.histograms[key] = h
	}
	return h
}

// SetHelp attaches exposition help text to a metric family.
func (r *Registry) SetHelp(family, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[family] = text
	r.mu.Unlock()
}

// AddCollector registers fn to run at every Snapshot/WriteText, for
// setting gauges of live state owned elsewhere (cache sizes,
// replication lag) at scrape time.  Counts belong in counters
// incremented where they happen, not in collectors.
func (r *Registry) AddCollector(fn func(*Registry)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

func (r *Registry) collect() {
	r.mu.RLock()
	fns := make([]func(*Registry), len(r.collectors))
	copy(fns, r.collectors)
	r.mu.RUnlock()
	for _, fn := range fns {
		fn(r)
	}
}

// Snapshot is a point-in-time, mergeable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Help       map[string]string            `json:"help,omitempty"`
}

// Snapshot runs collectors, then captures every metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Help:       map[string]string{},
	}
	if r == nil {
		return s
	}
	r.collect()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.histograms {
		s.Histograms[k] = h.Snapshot()
	}
	for k, v := range r.help {
		s.Help[k] = v
	}
	return s
}

// Merge combines snapshots: counters and gauges sum per key,
// histograms merge exactly bucket-by-bucket, help text is
// first-writer-wins.  Merge is associative and commutative up to
// help-text ties, so router-side aggregation order does not matter.
func Merge(snaps ...Snapshot) (Snapshot, error) {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Help:       map[string]string{},
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] += v
		}
		//ringlint:allow maporder keyed merge; MergeHistograms is commutative per key
		for k, h := range s.Histograms {
			merged, err := MergeHistograms(out.Histograms[k], h)
			if err != nil {
				return out, err
			}
			out.Histograms[k] = merged
		}
		for k, v := range s.Help {
			if _, ok := out.Help[k]; !ok {
				out.Help[k] = v
			}
		}
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
