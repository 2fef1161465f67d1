// Package clean is outside the determinism scope: products may fuse here
// (statistics and reporting code makes no bit-identity promise).
package clean

// Lerp is unflagged.
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
