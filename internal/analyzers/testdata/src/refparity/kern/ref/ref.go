// Package ref is the scalar reference for kern.
package ref

// DeltaForward matches the kernel's signature.
func DeltaForward(a []uint32) {
	for i := len(a) - 1; i > 0; i-- {
		a[i] -= a[i-1]
	}
}

// Encode drifted: it grew a scratch parameter the kernel doesn't have.
func Encode(data []byte, out []byte, scratch []byte) []byte {
	_ = scratch
	return append(out, data...)
}

// Word is the word constraint the generic kernels share.
type Word interface{ uint32 | uint64 }

// DeltaGeneric matches the kernel's type-parameter list and signature.
func DeltaGeneric[W Word](a []W) {
	for i := len(a) - 1; i > 0; i-- {
		a[i] -= a[i-1]
	}
}

// Negate drifted: its constraint is Word, the kernel's an inline union.
func Negate[W Word](a []W) {
	for i := range a {
		a[i] = -a[i]
	}
}
