// Package core is in the nofma scope by its import path suffix.
package core

// Horner shows the flagged shapes and their rounded counterparts.
func Horner(p, z, c float64, xs []float64) float64 {
	a := p*z + c                   // want `float product p \* z is added or subtracted unrounded`
	b := c - p*z                   // want `float product p \* z`
	d := -(p * z) + c              // want `float product p \* z`
	e := (p*z)*c - z*z             // want `float product \(p \* z\) \* c` `float product z \* z`
	a += p * z                     // want `float product p \* z`
	b -= (z * z)                   // want `float product z \* z`
	f := float64(p*z) + c          // rounded: fine
	g := float64(float32(p*z)) + c // rounded to float32, then widened: fine
	h := 2*z*p*c + 1.0/3.0         // want `float product 2 \* z \* p \* c`
	k := float64(2*z*p*c) + 1.0/3.0
	_ = xs[int(p*z)+1] // an int sum: fine
	return a + b + d + e + f + g + h + k
}

// Products that no addition consumes, integer products, and constant
// expressions cannot fuse.
func Clean(x, y float64, n, m int) (float64, int) {
	const third = 1.0 / 3.0
	q := x * y
	r := x / y
	s := 2*third + 0.5
	return q + r + s, n*m + 1
}

// Ignored shows a justified suppression.
func Ignored(x, y float64) float64 {
	//pfpl:ignore nofma exact: y is a power of two and x is far from the denormal range
	return x*y + 1
}
