package cpucomp

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"pfpl/internal/core"
)

// Relay tests: the relay must reproduce the serial encoder's bytes whatever
// order the chunks finish in. The single-goroutine tests choose that order
// themselves, so every interleaving of arrivals they name is exercised
// deterministically; the pool test lets the scheduler choose.

// relayData makes n values whose chunks cycle through the payload shapes the
// relay must place: a smooth compressible chunk, an incompressible chunk
// stored raw (payload exactly its slot), and a constant chunk that shrinks
// to a few bytes. kinds selects which shapes occur.
func relayData(n int, rng *rand.Rand, kinds int) []float32 {
	src := make([]float32, n)
	a := rng.Float64()
	for i := range src {
		switch (i / core.ChunkWords32) % kinds {
		case 0:
			src[i] = float32(math.Sin(float64(i)*0.003 + a))
		case 1:
			src[i] = math.Float32frombits(rng.Uint32()&0x807FFFFF | uint32(200+rng.Intn(54))<<23)
		default:
			src[i] = 0.25
		}
	}
	return src
}

// rawData makes n values whose every chunk is stored raw.
func rawData(n int, rng *rand.Rand) []float32 {
	src := make([]float32, n)
	for i := range src {
		src[i] = math.Float32frombits(rng.Uint32()&0x807FFFFF | uint32(200+rng.Intn(54))<<23)
	}
	return src
}

// relayCase is a batch of fields with its serial containers and each global
// chunk's payload, taken from the serial container's own chunk table.
type relayCase struct {
	plans    []core.EncodePlan[float32]
	starts   []int
	want     [][]byte
	payloads [][]byte
	raws     []bool
}

func newRelayCase(t *testing.T, fields [][]float32) *relayCase {
	t.Helper()
	rc := &relayCase{}
	for _, src := range fields {
		want, err := core.CompressSerial32(src, core.ABS, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := core.PlanEncode(src, core.ABS, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := core.PlanDecode[float32](want, nil)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < dp.Header.NumChunks; c++ {
			payload, raw := dp.ChunkPayload(c)
			rc.payloads = append(rc.payloads, payload)
			rc.raws = append(rc.raws, raw)
		}
		rc.plans = append(rc.plans, pl)
		rc.want = append(rc.want, want)
	}
	rc.starts = core.ChunkStarts(len(rc.plans), func(f int) int { return rc.plans[f].Header.NumChunks })
	return rc
}

// run finishes the global chunks in the given order on one goroutine and
// checks every container against the serial encoder's.
func (rc *relayCase) run(t *testing.T, order []int) {
	t.Helper()
	r := newRelay(rc.plans, rc.starts)
	for _, g := range order {
		f := core.FieldOfChunk(rc.starts, g)
		r.finish(f, g-rc.starts[f], g, rc.payloads[g], rc.raws[g])
	}
	for f, got := range r.containers() {
		if !bytes.Equal(got, rc.want[f]) {
			t.Fatalf("finish order %v: field %d differs from serial (%d vs %d bytes)", order, f, len(got), len(rc.want[f]))
		}
	}
}

// permutations calls fn with every ordering of 0..n-1 (Heap's algorithm).
func permutations(n int, fn func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var gen func(k int)
	gen = func(k int) {
		if k <= 1 {
			fn(p)
			return
		}
		for i := 0; i < k-1; i++ {
			gen(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
		gen(k - 1)
	}
	gen(n)
}

// TestRelayEveryFinishOrder drives the relay through every finish order of
// up to 6 chunks, over single fields and batches whose fields hold 0 to 3
// chunks, with compressible, raw and near-empty chunks and a partial last
// chunk.
func TestRelayEveryFinishOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := core.ChunkWords32
	layouts := [][]int{{1}, {2}, {3}, {4}, {5}, {6}, {3, 3}, {1, 0, 2, 3}, {2, 1, 1, 2}}
	for _, layout := range layouts {
		var fields [][]float32
		for _, chunks := range layout {
			n := chunks * w
			if chunks > 0 {
				n -= rng.Intn(w / 2) // a partial last chunk
			}
			fields = append(fields, relayData(n, rng, 3))
		}
		rc := newRelayCase(t, fields)
		permutations(rc.starts[len(fields)], func(order []int) { rc.run(t, order) })
	}
}

// TestRelayRandomFinishOrders drives the relay through 200 seeded random
// finish orders: 20 orders each over 10 batches of 1 to 130 chunks spread
// over 1 to 3 fields.
func TestRelayRandomFinishOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := core.ChunkWords32
	for batch := 0; batch < 10; batch++ {
		total := 1 + rng.Intn(130)
		nf := 1 + rng.Intn(min(3, total))
		var fields [][]float32
		left := total
		for f := 0; f < nf; f++ {
			chunks := left
			if f < nf-1 {
				chunks = 1 + rng.Intn(left-(nf-1-f))
			}
			left -= chunks
			n := chunks*w - rng.Intn(w)
			if batch%3 == 0 {
				fields = append(fields, rawData(n, rng))
			} else {
				fields = append(fields, relayData(n, rng, 1+rng.Intn(3)))
			}
		}
		rc := newRelayCase(t, fields)
		for i := 0; i < 20; i++ {
			rc.run(t, rng.Perm(total))
		}
	}
}

// TestRelayPoolsMatchSerial runs the relay under real concurrency: pools of
// 2, 7 and 16 workers at GOMAXPROCS 8 over fields of 1 to 130 chunks,
// including fields whose every chunk is raw (each payload fills its slot,
// so a payload moves down by whole chunks), singly and as one batch.
func TestRelayPoolsMatchSerial(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(3))
	w := core.ChunkWords32
	var fields [][]float32
	for _, chunks := range []int{1, 2, 3, 7, 64, 130} {
		fields = append(fields, relayData(chunks*w-rng.Intn(w), rng, 3), rawData(chunks*w, rng))
	}
	var want [][]byte
	for _, src := range fields {
		ref, err := core.CompressSerial32(src, core.ABS, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ref)
	}
	raw, err := core.PlanDecode[float32](want[len(want)-1], nil)
	if err != nil {
		t.Fatal(err)
	}
	for c, isRaw := range raw.Raws {
		if !isRaw {
			t.Fatalf("raw field: chunk %d is compressed; the all-raw case is not exercised", c)
		}
	}
	plans := make([]core.EncodePlan[float32], len(fields))
	for _, size := range []int{2, 7, 16} {
		p := NewPool(size)
		for f, src := range fields {
			got, err := p.Compress32(src, core.ABS, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[f]) {
				t.Fatalf("pool %d: field %d (%d values) differs from serial", size, f, len(src))
			}
		}
		for trial := 0; trial < 2; trial++ {
			for f, src := range fields {
				if plans[f], err = core.PlanEncode(src, core.ABS, 1e-3); err != nil {
					t.Fatal(err)
				}
			}
			for f, got := range (Exec[float32]{p}).Encode(plans, nil) {
				if !bytes.Equal(got, want[f]) {
					t.Fatalf("pool %d trial %d: batch field %d differs from serial", size, trial, f)
				}
			}
		}
		p.Close()
	}
}
