// Package metrics is the expvar-backed instrumentation of the pfpl serve
// daemon. A Registry is a self-contained set of
// named counters and histograms — nothing is registered globally, so tests
// and embedded servers can hold as many registries as they like — that
// renders to the same JSON shape the standard expvar handler emits, and can
// optionally be published into the process-wide expvar namespace exactly
// once.
//
// Counters are expvar.Int (an atomic int64 with a JSON String method).
// Histograms are power-of-two-bucketed: cheap enough for per-request
// latencies on the serving hot path, precise enough for the percentile
// summaries an operator actually reads.
package metrics

import (
	"expvar"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Registry is an ordered collection of named metrics.
type Registry struct {
	mu   sync.Mutex
	vars map[string]expvar.Var
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{vars: make(map[string]expvar.Var)}
}

// Counter returns the counter with the given name, creating it on first
// use. Names are dot-separated paths ("route.compress.ok").
func (r *Registry) Counter(name string) *expvar.Int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		if c, ok := v.(*expvar.Int); ok {
			return c
		}
		panic(fmt.Sprintf("metrics: %q already registered as a non-counter", name))
	}
	c := new(expvar.Int)
	r.vars[name] = c
	return c
}

// Histogram returns the histogram with the given name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		if h, ok := v.(*Histogram); ok {
			return h
		}
		panic(fmt.Sprintf("metrics: %q already registered as a non-histogram", name))
	}
	h := new(Histogram)
	r.vars[name] = h
	return h
}

// Do calls fn for every registered metric in name order, matching
// expvar.Do's shape.
func (r *Registry) Do(fn func(name string, v expvar.Var)) {
	r.mu.Lock()
	names := make([]string, 0, len(r.vars))
	for n := range r.vars {
		names = append(names, n)
	}
	vars := make(map[string]expvar.Var, len(r.vars))
	for n, v := range r.vars {
		vars[n] = v
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		fn(n, vars[n])
	}
}

// String renders the registry as one JSON object, metric name to metric
// value, in name order — the format GET /metrics serves.
func (r *Registry) String() string {
	var b strings.Builder
	b.WriteString("{")
	first := true
	r.Do(func(name string, v expvar.Var) {
		if !first {
			b.WriteString(",")
		}
		first = false
		fmt.Fprintf(&b, "\n  %q: %s", name, v.String())
	})
	b.WriteString("\n}\n")
	return b.String()
}

// Publish mounts every current and future metric of this registry into the
// process-wide expvar namespace under the given prefix. It may be called at
// most once per prefix per process (expvar's own rule); the daemon calls it,
// tests never do.
func (r *Registry) Publish(prefix string) {
	expvar.Publish(prefix, expvar.Func(func() any {
		out := make(map[string]any)
		r.Do(func(name string, v expvar.Var) {
			out[name] = rawJSON(v.String())
		})
		return out
	}))
}

// rawJSON lets already-serialized metric values pass through
// encoding/json unquoted.
type rawJSON string

func (r rawJSON) MarshalJSON() ([]byte, error) { return []byte(r), nil }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations in [2^(i-1), 2^i), bucket 0 counts (-inf, 1). 64
// buckets cover int64 nanoseconds — half a millennium — and any byte count
// or ratio this system can see.
const histBuckets = 64

// Histogram is a fixed-bucket log2 histogram. Observe takes a short mutex
// critical section, which keeps count/sum/min/max mutually consistent;
// at per-request granularity the contention is negligible.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	finite  int64
	nans    int64
	sum     float64
	min     float64
	max     float64
	buckets [histBuckets]int64
	// Last exemplar attached via ObserveExemplar: a trace id (or any short
	// opaque tag) naming one sampled request behind the distribution, and
	// the value it observed. Surfaced as a comment in the Prometheus
	// exposition so an operator can jump from a suspicious histogram to a
	// concrete trace in /debug/traces.
	exTag   string
	exValue float64
}

// bucketOf maps v to its power-of-two bucket index. Bucket 0 is the clamp
// bucket: zero, negative, and sub-1 values (latency in fractional
// nanoseconds cannot happen, but byte counts of 0 can) all land there, and
// +Inf clamps into the top bucket.
func bucketOf(v float64) int {
	if !(v >= 1) { // v < 1 (including 0, negatives, -Inf)
		return 0
	}
	// Clamp before the +1: Ilogb(+Inf) is MaxInt32, which a 32-bit int overflows.
	e := math.Ilogb(v)
	if e >= histBuckets-1 {
		return histBuckets - 1
	}
	return e + 1
}

// Observe records one value. Every observation increments the count, but
// the value classes are handled defensively: NaN goes to a dedicated
// counter (it carries no ordering or magnitude — it must not poison
// min/max or land in a bucket); ±Inf is clamped into the outermost bucket
// and excluded from sum/min/max; zero and negative values clamp into
// bucket 0.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	if math.IsNaN(v) {
		h.nans++
		return
	}
	if !math.IsInf(v, 0) {
		if h.finite == 0 || v < h.min {
			h.min = v
		}
		if h.finite == 0 || v > h.max {
			h.max = v
		}
		h.finite++
		h.sum += v
	}
	h.buckets[bucketOf(v)]++
}

// ObserveExemplar records one value and tags it as the histogram's current
// exemplar — typically the trace id of a sampled request, so the rendered
// distribution links back to one concrete trace. The exemplar is
// last-writer-wins; an empty tag observes without replacing it.
func (h *Histogram) ObserveExemplar(v float64, tag string) {
	h.Observe(v)
	if tag == "" {
		return
	}
	h.mu.Lock()
	h.exTag = tag
	h.exValue = v
	h.mu.Unlock()
}

// Snapshot is a consistent copy of a histogram's state. Min, Max, and Sum
// cover the finite observations only (Finite counts them); NaNs counts NaN
// observations (which are included in Count but in no bucket). Min and Max
// are meaningless when Finite is zero — renderers must report them as
// absent, not as 0.
type Snapshot struct {
	Count    int64
	Finite   int64
	NaNs     int64
	Sum      float64
	Min, Max float64
	Buckets  [histBuckets]int64
	// ExemplarTag/ExemplarValue are the last exemplar recorded via
	// ObserveExemplar; an empty tag means none yet.
	ExemplarTag   string
	ExemplarValue float64
}

// Snapshot returns a consistent copy.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Snapshot{
		Count: h.count, Finite: h.finite, NaNs: h.nans, Sum: h.sum,
		Min: h.min, Max: h.max, Buckets: h.buckets,
		ExemplarTag: h.exTag, ExemplarValue: h.exValue,
	}
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) from the
// bucket counts: the top edge of the bucket holding the q-th observation.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			if i == 0 {
				return 1
			}
			return math.Ldexp(1, i) // 2^i, the bucket's top edge
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the finite observations.
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// String renders the histogram summary as JSON, implementing expvar.Var.
// The shape mirrors the Prometheus exposition: count and sum are always
// present (0 for a never-observed histogram, exactly as _count/_sum render
// there), while the derived statistics — min, max, mean over finite
// observations, percentiles over bucketed ones — become null when no
// observation backs them, never a fabricated 0.
func (h *Histogram) String() string {
	s := h.Snapshot()
	min, max, mean := "null", "null", "null"
	if s.Finite > 0 {
		min, max, mean = jsonFloat(s.Min), jsonFloat(s.Max), jsonFloat(s.Mean())
	}
	p50, p90, p99 := "null", "null", "null"
	if s.Count-s.NaNs > 0 { // at least one bucketed observation
		p50 = jsonFloat(s.Quantile(0.5))
		p90 = jsonFloat(s.Quantile(0.9))
		p99 = jsonFloat(s.Quantile(0.99))
	}
	return fmt.Sprintf(
		`{"count":%d,"sum":%s,"min":%s,"max":%s,"mean":%s,"p50":%s,"p90":%s,"p99":%s}`,
		s.Count, jsonFloat(s.Sum), min, max, mean, p50, p90, p99)
}

// jsonFloat formats a float as JSON; NaN and ±Inf (not representable in
// JSON) become null.
func jsonFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return fmt.Sprintf("%g", v)
}
