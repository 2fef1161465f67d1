// Package marked opts into the determinism contract, and so into nofma,
// with its marker directive.
//
//pfpl:deterministic
package marked

// Mix adds a float32 product.
func Mix(a, b, c float32) float32 {
	return a*b + c // want `float product a \* b`
}
