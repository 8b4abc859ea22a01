package server

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is a hand-rolled, dependency-free subset of a Prometheus
// client: counters, labeled counters and gauges, function-backed series, and
// a cumulative histogram, rendered in the text exposition format (version
// 0.0.4) that any Prometheus scraper ingests. The repo's no-new-deps rule
// is why it exists; the subset is exactly what /metrics needs.

// metric is anything the registry can render.
type metric interface {
	render(w io.Writer)
}

// Registry holds metrics in registration order and renders them.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, m)
}

// Render writes every registered metric in the Prometheus text format.
func (r *Registry) Render(w io.Writer) {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range ms {
		m.render(bw)
	}
	bw.Flush()
}

func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter is a monotonically increasing counter.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.add(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter contract; not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) render(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// CounterVec is a counter partitioned by one or more label values.
type CounterVec struct {
	name, help string
	labels     []string
	mu         sync.Mutex
	children   map[string]*atomic.Int64
}

// NewCounterVec registers a labeled counter.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	c := &CounterVec{name: name, help: help, labels: labels, children: map[string]*atomic.Int64{}}
	r.add(c)
	return c
}

// With returns the child counter for the given label values (created on
// first use), in the order the labels were registered.
func (c *CounterVec) With(values ...string) *atomic.Int64 {
	if len(values) != len(c.labels) {
		panic("server: label value count mismatch for " + c.name)
	}
	key := labelPairs(c.labels, values)
	c.mu.Lock()
	defer c.mu.Unlock()
	child, ok := c.children[key]
	if !ok {
		child = &atomic.Int64{}
		c.children[key] = child
	}
	return child
}

// Inc increments the child for the given label values.
func (c *CounterVec) Inc(values ...string) { c.With(values...).Add(1) }

// Sum returns the total over every child.
func (c *CounterVec) Sum() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, child := range c.children {
		n += child.Load()
	}
	return n
}

func (c *CounterVec) render(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	c.mu.Lock()
	keys := make([]string, 0, len(c.children))
	for k := range c.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, len(keys))
	for i, k := range keys {
		lines[i] = fmt.Sprintf("%s{%s} %d\n", c.name, k, c.children[k].Load())
	}
	c.mu.Unlock()
	for _, l := range lines {
		io.WriteString(w, l)
	}
}

// GaugeVec is a gauge partitioned by one or more label values. Children
// are atomic.Int64s (Store/Add/Load); every gauge this registry needs is
// integer-valued (byte counts, positions), so no float plumbing.
type GaugeVec struct {
	name, help string
	labels     []string
	mu         sync.Mutex
	children   map[string]*atomic.Int64
}

// NewGaugeVec registers a labeled gauge.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	g := &GaugeVec{name: name, help: help, labels: labels, children: map[string]*atomic.Int64{}}
	r.add(g)
	return g
}

// With returns the child gauge for the given label values (created on
// first use), in the order the labels were registered.
func (g *GaugeVec) With(values ...string) *atomic.Int64 {
	if len(values) != len(g.labels) {
		panic("server: label value count mismatch for " + g.name)
	}
	key := labelPairs(g.labels, values)
	g.mu.Lock()
	defer g.mu.Unlock()
	child, ok := g.children[key]
	if !ok {
		child = &atomic.Int64{}
		g.children[key] = child
	}
	return child
}

func (g *GaugeVec) render(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	g.mu.Lock()
	keys := make([]string, 0, len(g.children))
	for k := range g.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, len(keys))
	for i, k := range keys {
		lines[i] = fmt.Sprintf("%s{%s} %d\n", g.name, k, g.children[k].Load())
	}
	g.mu.Unlock()
	for _, l := range lines {
		io.WriteString(w, l)
	}
}

func labelPairs(labels, values []string) string {
	out := ""
	for i, l := range labels {
		if i > 0 {
			out += ","
		}
		out += l + "=" + strconv.Quote(values[i])
	}
	return out
}

// FuncMetric is a float gauge read at scrape time — used for live state
// (queue depth, in-flight) and derived ratios.
type FuncMetric struct {
	name, help string
	fn         func() float64
}

// NewGaugeFunc registers a function-backed gauge.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.add(&FuncMetric{name: name, help: help, fn: fn})
}

func (f *FuncMetric) render(w io.Writer) {
	writeHeader(w, f.name, f.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn()))
}

// intFunc is an integer series read at scrape time.
type intFunc struct {
	name, help string
	fn         func() int64
}

// NewIntFunc registers an integer series read at scrape time, for counts
// owned elsewhere (the durable store's, the router's per-shard sums). Its
// type follows the Prometheus naming convention: a name ending in _total
// is a counter (fn must then be monotone), any other name a gauge.
func (r *Registry) NewIntFunc(name, help string, fn func() int64) {
	r.add(&intFunc{name: name, help: help, fn: fn})
}

func (f *intFunc) render(w io.Writer) { writeInt(w, f.name, f.help, f.fn()) }

// writeInt renders one unlabeled integer series, typed by its name.
func writeInt(w io.Writer, name, help string, v int64) {
	typ := "gauge"
	if strings.HasSuffix(name, "_total") {
		typ = "counter"
	}
	writeHeader(w, name, help, typ)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// Histogram is a cumulative histogram with fixed upper bounds.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending; +Inf is implicit
	mu         sync.Mutex
	counts     []uint64 // len(bounds)+1, last is the +Inf bucket
	sum        float64
	count      uint64
}

// DefaultLatencyBuckets covers sub-millisecond cache hits through
// multi-second solver slogs.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NewHistogram registers a histogram with the given bucket upper bounds.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.add(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

func (h *Histogram) render(w io.Writer) {
	writeHeader(w, h.name, h.help, "histogram")
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, count)
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(sum))
	fmt.Fprintf(w, "%s_count %d\n", h.name, count)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
