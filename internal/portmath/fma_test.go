package portmath

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// fusedOp matches the fused multiply-add family in go tool objdump output:
// FMADDD/FNMSUBS on arm64 and riscv64, FMADD/FNMSUB on ppc64le.
var fusedOp = regexp.MustCompile(`\bFN?M(ADD|SUB)[A-Z]*\b`)

// TestNoFusedMultiplyAdd cross-compiles the codec's floating-point
// packages for targets whose compiler contracts x*y+z into one fused
// instruction, and asserts that the disassembly holds none. A fused
// product skips a rounding step, so an arm64 decoder would reconstruct
// values the amd64 encoder never verified, breaking the error bound. Only
// non-test code is built, and an archive holds only the generic
// instantiations its own non-test code makes, so the scan also requires
// the chunk quantizer and dequantizer at both value shapes: a scan that
// never saw them would pass vacuously.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	if _, err := os.Stat(goTool); err != nil {
		t.Skipf("go command not found: %v", err)
	}
	// The generic kernels each archive must hold, by package.
	required := map[string][]string{
		"pfpl/internal/core": {
			"pfpl/internal/core.QuantizeChunk[go.shape.float32,",
			"pfpl/internal/core.QuantizeChunk[go.shape.float64,",
			"pfpl/internal/core.DequantizeChunk[go.shape.float32,",
			"pfpl/internal/core.DequantizeChunk[go.shape.float64,",
		},
	}
	dir := t.TempDir()
	for _, arch := range []string{"arm64", "ppc64le", "riscv64"} {
		for _, pkg := range []string{
			"pfpl/internal/core", "pfpl/internal/core/ref", "pfpl/internal/cpucomp",
			"pfpl/internal/gpusim", "pfpl/internal/portmath",
		} {
			archive := filepath.Join(dir, arch+"_"+filepath.Base(pkg)+".a")
			build := exec.Command(goTool, "build", "-o", archive, pkg)
			build.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("GOARCH=%s go build %s: %v\n%s", arch, pkg, err, out)
			}
			out, err := exec.Command(goTool, "tool", "objdump", archive).Output()
			if err != nil {
				t.Fatalf("objdump %s (%s): %v", pkg, arch, err)
			}
			fn := ""
			seen := map[string]bool{}
			for _, line := range strings.Split(string(out), "\n") {
				if strings.HasPrefix(line, "TEXT ") {
					fn = strings.Fields(line)[1]
					for _, want := range required[pkg] {
						if strings.HasPrefix(fn, want) {
							seen[want] = true
						}
					}
				} else if fusedOp.MatchString(line) {
					t.Errorf("GOARCH=%s: fused multiply-add in %s:%s", arch, fn, strings.Join(strings.Fields(line), " "))
				}
			}
			for _, want := range required[pkg] {
				if !seen[want] {
					t.Errorf("GOARCH=%s: %s holds no %s...] instantiation: the scan did not cover it", arch, pkg, want)
				}
			}
		}
	}
}
