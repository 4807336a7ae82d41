package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry collects named metric families and renders them as Prometheus
// text exposition (format version 0.0.4): one # HELP and # TYPE line per
// family, series sorted by name then labels, no timestamps — so repeated
// scrapes of an idle server are byte-identical and diffable.
//
// Families are registered once, at construction time of the component that
// owns them; registration panics on duplicate or malformed names because
// those are programmer errors, not runtime conditions. Rendering and
// instrument updates are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]collector
	reserved map[string]bool // every series name any family renders
}

// collector is one registered family (or func-backed series): it renders
// itself into a set of exposition families on demand.
type collector interface {
	collect() []familySnapshot
}

// familySnapshot is one rendered family: its metadata plus its samples in
// final exposition order.
type familySnapshot struct {
	name, help, typ string
	samples         []sample
}

// sample is one exposition line: full series name (family name plus any
// suffix), rendered label block ("" or `{k="v",...}`), value.
type sample struct {
	name, labels string
	value        float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]collector),
		reserved: make(map[string]bool),
	}
}

// register installs c under name, reserving every derived series name so
// two families can never render colliding lines.
func (r *Registry) register(name string, c collector, derived ...string) {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range append([]string{name}, derived...) {
		if r.reserved[n] {
			panic("metrics: duplicate metric name " + n)
		}
	}
	for _, n := range append([]string{name}, derived...) {
		r.reserved[n] = true
	}
	r.families[name] = c
}

// NewCounter registers a counter family with the given label names and
// returns its vector. With() on the vector yields the per-label-value
// Counter (use no label names, and With() with no values, for a plain
// scalar series).
func (r *Registry) NewCounter(name, help string, labelNames ...string) *CounterVec {
	f := newFamily(name, help, "counter", labelNames, func() any { return new(Counter) })
	r.register(name, f)
	return &CounterVec{f}
}

// NewGauge registers a gauge family and returns its vector.
func (r *Registry) NewGauge(name, help string, labelNames ...string) *GaugeVec {
	f := newFamily(name, help, "gauge", labelNames, func() any { return new(Gauge) })
	r.register(name, f)
	return &GaugeVec{f}
}

// NewHistogram registers a histogram family over the given bucket
// boundaries and returns its vector. Rendered in the standard Prometheus
// histogram shape: cumulative <name>_bucket{le="..."} series plus
// <name>_sum and <name>_count.
func (r *Registry) NewHistogram(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	f := newFamily(name, help, "histogram", labelNames, func() any { return NewHistogram(bounds) })
	r.register(name, f, name+"_bucket", name+"_sum", name+"_count")
	return &HistogramVec{f}
}

// NewMoments registers a moments family and returns its vector. Prometheus
// has no native moments type, so the family renders as five derived
// scalar families — <name>_count (counter) and <name>_mean, _stddev,
// _min, _max (gauges) — each with the family's labels.
func (r *Registry) NewMoments(name, help string, labelNames ...string) *MomentsVec {
	f := newFamily(name, help, "moments", labelNames, func() any { return new(Moments) })
	r.register(name, f, name+"_count", name+"_mean", name+"_stddev", name+"_min", name+"_max")
	return &MomentsVec{f}
}

// GaugeFunc registers a label-less gauge whose value is read from fn at
// render time — the hook for values that already live elsewhere (queue
// depth, resident graphs, uptime).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &funcCollector{name: name, help: help, typ: "gauge", fn: fn})
}

// CounterFunc registers a label-less counter whose value is read from fn
// at render time. fn must be monotone non-decreasing over the life of the
// process (Prometheus counter semantics).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, &funcCollector{name: name, help: help, typ: "counter", fn: fn})
}

// FuncSample is one rendered series from a series-func collector: the
// label values (matching the registered label names, in order) and the
// value read at scrape time.
type FuncSample struct {
	LabelValues []string
	Value       float64
}

// GaugeSeriesFunc registers a labeled gauge family whose full series set is
// read from fn at render time — the hook for values that live elsewhere and
// are naturally per-key (per-lane queue depth, per-client quota usage). fn
// must return one FuncSample per series, each with exactly len(labelNames)
// label values; series order need not be stable, rendering sorts them.
func (r *Registry) GaugeSeriesFunc(name, help string, fn func() []FuncSample, labelNames ...string) {
	for _, l := range labelNames {
		mustValidLabel(l)
	}
	r.register(name, &seriesFuncCollector{
		name: name, help: help, typ: "gauge", labelNames: labelNames, fn: fn})
}

// CounterSeriesFunc registers a labeled counter family whose series are
// read from fn at render time. Each series' value must be monotone
// non-decreasing over the life of the process (Prometheus counter
// semantics); series may appear as new keys arise but must not disappear
// while the process lives.
func (r *Registry) CounterSeriesFunc(name, help string, fn func() []FuncSample, labelNames ...string) {
	for _, l := range labelNames {
		mustValidLabel(l)
	}
	r.register(name, &seriesFuncCollector{
		name: name, help: help, typ: "counter", labelNames: labelNames, fn: fn})
}

// RegisterHistogram registers an existing label-less Histogram instance —
// the hook for components (like the solver executor) that own their
// instrument but should still appear on /metrics.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.register(name, &histCollector{name: name, help: help, h: h},
		name+"_bucket", name+"_sum", name+"_count")
}

// WriteText renders the full registry as Prometheus text exposition,
// families sorted by name. It never writes timestamps.
func (r *Registry) WriteText(w io.Writer) error {
	for _, fam := range r.snapshotFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			fam.name, escapeHelp(fam.help), fam.name, fam.typ); err != nil {
			return err
		}
		for _, s := range fam.samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, formatValue(s.value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot returns every series the registry would render, keyed by its
// exposition identity (name plus rendered label block) — the programmatic
// scrape used by tests and by servebench, which diffs it across a run.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, fam := range r.snapshotFamilies() {
		for _, s := range fam.samples {
			out[s.name+s.labels] = s.value
		}
	}
	return out
}

// snapshotFamilies collects every family, sorted by name. Collectors are
// invoked outside the registry lock — they take their own instrument
// locks — so a slow GaugeFunc never blocks registration.
func (r *Registry) snapshotFamilies() []familySnapshot {
	r.mu.Lock()
	collectors := make([]collector, 0, len(r.families))
	for _, c := range r.families {
		collectors = append(collectors, c)
	}
	r.mu.Unlock()
	var fams []familySnapshot
	for _, c := range collectors {
		fams = append(fams, c.collect()...)
	}
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })
	return fams
}

// family is the shared labeled-children implementation behind every vec:
// a lazily grown map from rendered label values to one instrument.
type family struct {
	name, help, typ string
	labelNames      []string
	newMetric       func() any

	mu       sync.RWMutex
	children map[string]any
}

func newFamily(name, help, typ string, labelNames []string, newMetric func() any) *family {
	for _, l := range labelNames {
		mustValidLabel(l)
	}
	return &family{
		name: name, help: help, typ: typ,
		labelNames: labelNames, newMetric: newMetric,
		children: make(map[string]any),
	}
}

// with returns the instrument for the given label values, creating it on
// first use. The rendered label block doubles as the map key, so lookup is
// one string build plus a read-locked map access.
func (f *family) with(values []string) any {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := renderLabels(f.labelNames, values)
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m = f.newMetric()
	f.children[key] = m
	return m
}

// sortedChildren returns (key, instrument) pairs in exposition order.
func (f *family) sortedChildren() ([]string, []any) {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ms := make([]any, len(keys))
	for i, k := range keys {
		ms[i] = f.children[k]
	}
	f.mu.RUnlock()
	return keys, ms
}

func (f *family) collect() []familySnapshot {
	keys, ms := f.sortedChildren()
	switch f.typ {
	case "counter", "gauge":
		fam := familySnapshot{name: f.name, help: f.help, typ: f.typ}
		for i, m := range ms {
			v := 0.0
			switch m := m.(type) {
			case *Counter:
				v = float64(m.Value())
			case *Gauge:
				v = float64(m.Value())
			}
			fam.samples = append(fam.samples, sample{name: f.name, labels: keys[i], value: v})
		}
		return []familySnapshot{fam}
	case "histogram":
		fam := familySnapshot{name: f.name, help: f.help, typ: f.typ}
		for i, m := range ms {
			fam.samples = append(fam.samples, histogramSamples(f.name, keys[i], m.(*Histogram).Snapshot())...)
		}
		return []familySnapshot{fam}
	case "moments":
		parts := []struct{ suffix, typ, help string }{
			{"_count", "counter", f.help + " (observations)"},
			{"_mean", "gauge", f.help + " (streaming mean)"},
			{"_stddev", "gauge", f.help + " (streaming stddev)"},
			{"_min", "gauge", f.help + " (minimum observed)"},
			{"_max", "gauge", f.help + " (maximum observed)"},
		}
		fams := make([]familySnapshot, len(parts))
		snaps := make([]MomentsSnapshot, len(ms))
		for i, m := range ms {
			snaps[i] = m.(*Moments).Snapshot()
		}
		for pi, p := range parts {
			fam := familySnapshot{name: f.name + p.suffix, help: p.help, typ: p.typ}
			for i, s := range snaps {
				var v float64
				switch p.suffix {
				case "_count":
					v = float64(s.Count)
				case "_mean":
					v = s.Mean
				case "_stddev":
					v = s.StdDev
				case "_min":
					v = s.Min
				case "_max":
					v = s.Max
				}
				fam.samples = append(fam.samples, sample{name: fam.name, labels: keys[i], value: v})
			}
			fams[pi] = fam
		}
		return fams
	}
	panic("metrics: unknown family type " + f.typ)
}

// histogramSamples renders one histogram child in cumulative Prometheus
// shape. The _count line uses the cumulative bucket total so one rendered
// child is always internally consistent, even if observations landed
// between the bucket reads and the count read.
func histogramSamples(name, labels string, s HistogramSnapshot) []sample {
	out := make([]sample, 0, len(s.Counts)+2)
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatValue(s.Bounds[i])
		}
		out = append(out, sample{
			name:   name + "_bucket",
			labels: appendLabel(labels, "le", le),
			value:  float64(cum),
		})
	}
	out = append(out,
		sample{name: name + "_sum", labels: labels, value: s.Sum},
		sample{name: name + "_count", labels: labels, value: float64(cum)})
	return out
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (in registration
// order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values).(*Counter) }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.with(values).(*Gauge) }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.with(values).(*Histogram) }

// MomentsVec is a labeled moments family.
type MomentsVec struct{ f *family }

// With returns the moments accumulator for the given label values.
func (v *MomentsVec) With(values ...string) *Moments { return v.f.with(values).(*Moments) }

// funcCollector renders one label-less series from a callback.
type funcCollector struct {
	name, help, typ string
	fn              func() float64
}

func (c *funcCollector) collect() []familySnapshot {
	return []familySnapshot{{
		name: c.name, help: c.help, typ: c.typ,
		samples: []sample{{name: c.name, value: c.fn()}},
	}}
}

// seriesFuncCollector renders a labeled family from a callback returning
// the full series set at scrape time.
type seriesFuncCollector struct {
	name, help, typ string
	labelNames      []string
	fn              func() []FuncSample
}

func (c *seriesFuncCollector) collect() []familySnapshot {
	fam := familySnapshot{name: c.name, help: c.help, typ: c.typ}
	for _, s := range c.fn() {
		if len(s.LabelValues) != len(c.labelNames) {
			panic(fmt.Sprintf("metrics: %s series func wants %d label values, got %d",
				c.name, len(c.labelNames), len(s.LabelValues)))
		}
		fam.samples = append(fam.samples, sample{
			name:   c.name,
			labels: renderLabels(c.labelNames, s.LabelValues),
			value:  s.Value,
		})
	}
	sort.Slice(fam.samples, func(a, b int) bool { return fam.samples[a].labels < fam.samples[b].labels })
	return []familySnapshot{fam}
}

// histCollector renders one externally owned label-less histogram.
type histCollector struct {
	name, help string
	h          *Histogram
}

func (c *histCollector) collect() []familySnapshot {
	return []familySnapshot{{
		name: c.name, help: c.help, typ: "histogram",
		samples: histogramSamples(c.name, "", c.h.Snapshot()),
	}}
}

// renderLabels builds the exposition label block for the given names and
// values ("" when the family has no labels). Names keep registration
// order, so the block is canonical and doubles as a child key.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// appendLabel adds one more label pair to an already rendered block — how
// histogram buckets get their le label after the family labels.
func appendLabel(labels, name, value string) string {
	pair := name + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a sample value the way Prometheus expects: shortest
// round-trip float, with infinities spelled +Inf/-Inf.
func formatValue(v float64) string {
	switch {
	case v > -1e15 && v < 1e15 && v == float64(int64(v)):
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// mustValidName panics unless name is a legal Prometheus metric name.
func mustValidName(name string) {
	if !validName(name, true) {
		panic("metrics: invalid metric name " + strconv.Quote(name))
	}
}

// mustValidLabel panics unless name is a legal Prometheus label name.
func mustValidLabel(name string) {
	if !validName(name, false) {
		panic("metrics: invalid label name " + strconv.Quote(name))
	}
}

// validName checks [a-zA-Z_:][a-zA-Z0-9_:]* (colons only in metric names).
func validName(name string, colonOK bool) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && colonOK:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
