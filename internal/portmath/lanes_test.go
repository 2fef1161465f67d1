package portmath

import (
	"math"
	"math/rand"
	"testing"
)

// laneInputs returns adversarial and random arguments for the four-lane
// kernels: every value goes through each lane position, next to neighbours
// that take different branches.
func laneInputs(special []float64, random func(*rand.Rand) float64) []float64 {
	rng := rand.New(rand.NewSource(15))
	xs := append([]float64(nil), special...)
	for i := 0; i < 40000; i++ {
		xs = append(xs, random(rng))
	}
	return xs
}

// checkLanes runs every window of four consecutive inputs through the
// kernel and compares each lane bit for bit with the scalar function.
func checkLanes(t *testing.T, name string, xs []float64, lanes func(*[4]float64), scalar func(float64) float64) {
	t.Helper()
	for i := 0; i+4 <= len(xs); i++ {
		x := (*[4]float64)(xs[i : i+4])
		got := *x
		lanes(&got)
		for l, v := range x {
			want := scalar(v)
			if math.Float64bits(got[l]) != math.Float64bits(want) {
				t.Fatalf("%s lane %d of %v: got %v (%#x), scalar %v (%#x)",
					name, l, *x, got[l], math.Float64bits(got[l]), want, math.Float64bits(want))
			}
		}
	}
}

func TestLog2x4MatchesLog2(t *testing.T) {
	special := []float64{
		1, 2, 0.5, math.Sqrt2, math.Nextafter(math.Sqrt2, 0), math.Nextafter(math.Sqrt2, 2),
		math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), 1.5, 1.4142135623730951, 1.4142135623730954,
		math.Float64frombits(1), math.Float64frombits(0x000FFFFFFFFFFFFF), 0x1p-1022, 0x1p-1074 * 3,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300, 1e300, 3, 7.5, 0.1,
		math.NaN(), math.Inf(1), 0,
	}
	xs := laneInputs(special, func(rng *rand.Rand) float64 {
		switch rng.Intn(4) {
		case 0: // any positive bit pattern, specials included
			return math.Float64frombits(rng.Uint64() &^ (1 << 63))
		case 1: // denormals
			return math.Float64frombits(rng.Uint64() & 0x000FFFFFFFFFFFFF)
		case 2: // mantissas either side of the sqrt(2) split
			return math.Ldexp(math.Sqrt2*(1+(rng.Float64()-0.5)*1e-6), rng.Intn(200)-100)
		default:
			return rng.Float64() * 1000
		}
	})
	checkLanes(t, "Log2x4", xs, Log2x4, Log2)
}

func TestExp2x4MatchesExp2(t *testing.T) {
	special := []float64{
		0, 1, -1, 0.5, -0.5, 1.5, -1.5, 1023, 1024, 1024.5,
		1025, math.Nextafter(1025, 0), math.Nextafter(1025, 2000), -1025, 1026,
		-1076, math.Nextafter(-1076, 0), math.Nextafter(-1076, -2000), -1075, -1074.5, -1022.5,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	}
	xs := laneInputs(special, func(rng *rand.Rand) float64 {
		switch rng.Intn(3) {
		case 0: // the saturation edges
			edge := []float64{1025, -1076, 1024, -1075}[rng.Intn(4)]
			return edge + (rng.Float64()-0.5)*4
		case 1: // halves, where RoundToInt ties
			return float64(rng.Intn(4000)-2000) + 0.5
		default:
			return (rng.Float64() - 0.5) * 2300
		}
	})
	checkLanes(t, "Exp2x4", xs, Exp2x4, Exp2)
}

func BenchmarkLog2x4(b *testing.B) {
	x := [4]float64{1.2345678, 3.5, 0.01, 77}
	var sink float64
	for i := 0; i < b.N; i++ {
		y := x
		Log2x4(&y)
		sink += y[0]
	}
	_ = sink
}

func BenchmarkExp2x4(b *testing.B) {
	x := [4]float64{12.345, -3.5, 0.01, 77}
	var sink float64
	for i := 0; i < b.N; i++ {
		y := x
		Exp2x4(&y)
		sink += y[0]
	}
	_ = sink
}
