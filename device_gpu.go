package pfpl

import (
	"pfpl/internal/core"
	"pfpl/internal/gpusim"
)

// GPUModel identifies one of the simulated GPU devices (the hardware the
// paper evaluated, Table I and §V-F).
type GPUModel = gpusim.DeviceModel

// The simulated GPU models.
var (
	RTX4090      = gpusim.RTX4090
	A100         = gpusim.A100
	RTX3080Ti    = gpusim.RTX3080Ti
	RTX2070Super = gpusim.RTX2070Super
	TitanXp      = gpusim.TitanXp
)

// GPU returns the simulated GPU device for the given model: it executes
// the CUDA formulation of PFPL on the deterministic GPU simulator. Output
// bytes are identical to the CPU devices'; only the modelled throughput
// differs between GPU models.
func GPU(model GPUModel) Device {
	return &builtin{
		name: "PFPL-CUDA(" + model.Name + ")",
		ex32: gpusim.Exec[float32]{Model: model},
		ex64: gpusim.Exec[float64]{Model: model},
	}
}

// VerifyBound audits a reconstruction against the original data, returning
// the number of error-bound violations — the check the paper applies to all
// compressors in Table III. For REL, a sign flip counts as a violation.
func VerifyBound(orig, recon []float32, mode Mode, bound float64) int {
	if len(orig) != len(recon) {
		return len(orig)
	}
	var noaBound float64
	if mode == NOA {
		noaBound = bound * core.Range(orig)
	}
	violations := 0
	for i := range orig {
		if !value32OK(orig[i], recon[i], mode, bound, noaBound) {
			violations++
		}
	}
	return violations
}

// VerifyBound64 is the double-precision counterpart of VerifyBound.
func VerifyBound64(orig, recon []float64, mode Mode, bound float64) int {
	if len(orig) != len(recon) {
		return len(orig)
	}
	var noaBound float64
	if mode == NOA {
		noaBound = bound * core.Range(orig)
	}
	violations := 0
	for i := range orig {
		if !value64OK(orig[i], recon[i], mode, bound, noaBound) {
			violations++
		}
	}
	return violations
}

func value32OK(v, r float32, mode Mode, bound, noaBound float64) bool {
	return value64OK(float64(v), float64(r), mode, bound, noaBound)
}

func value64OK(v, r float64, mode Mode, bound, noaBound float64) bool {
	if v != v { // NaN: any NaN reconstruction is acceptable
		return r != r
	}
	if v-v != 0 { // infinity must be preserved exactly
		return r == v
	}
	switch mode {
	case ABS:
		d := v - r
		if d < 0 {
			d = -d
		}
		return d <= bound
	case NOA:
		d := v - r
		if d < 0 {
			d = -d
		}
		return d <= noaBound
	case REL:
		if v == 0 {
			return r == 0
		}
		d := v - r
		if d < 0 {
			d = -d
		}
		m := v
		if m < 0 {
			m = -m
		}
		if !(d/m <= bound) {
			return false
		}
		return r == 0 || (v < 0) == (r < 0)
	}
	return false
}
