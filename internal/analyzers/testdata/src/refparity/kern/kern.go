// Package kern declares kernel entry points whose scalar references live
// in kern/ref.
package kern

import "refparity/kern/ref"

// DeltaForward has a matching reference: no finding.
//
//pfpl:kernel
func DeltaForward(a []uint32) {
	ref.DeltaForward(a)
}

// Shuffle is a seeded violation: no counterpart in kern/ref, so the
// differential suite cannot pin it.
//
//pfpl:kernel
func Shuffle(a []uint64) {} // want `kernel Shuffle has no counterpart in refparity/kern/ref`

// Encode is a seeded violation: the reference drifted to a different
// signature and can no longer be driven by the same corpus.
//
//pfpl:kernel
func Encode(data []byte, out []byte) []byte { // want `kernel Encode signature func\(data \[\]byte, out \[\]byte\) \[\]byte does not match reference`
	return ref.Encode(data, out, nil)
}

// helper is unannotated: parity not required.
func helper(a []uint32) { _ = a }

// DeltaGeneric is generic over the word type; its reference has the same
// type-parameter list: no finding.
//
//pfpl:kernel
func DeltaGeneric[W ref.Word](a []W) {
	ref.DeltaGeneric(a)
}

// Negate is a seeded violation: the reference's constraint drifted from the
// kernel's, so one corpus cannot instantiate both alike.
//
//pfpl:kernel
func Negate[W ~uint32 | ~uint64](a []W) { // want `kernel Negate signature func\[W ~uint32 \| ~uint64\]\(a \[\]W\) does not match reference refparity/kern/ref.Negate signature func\[W Word\]\(a \[\]W\)`
	for i := range a {
		a[i] = -a[i]
	}
}
