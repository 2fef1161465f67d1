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
// non-test code is built.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	if _, err := os.Stat(goTool); err != nil {
		t.Skipf("go command not found: %v", err)
	}
	dir := t.TempDir()
	for _, arch := range []string{"arm64", "ppc64le", "riscv64"} {
		for _, pkg := range []string{"pfpl/internal/core", "pfpl/internal/portmath"} {
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
			for _, line := range strings.Split(string(out), "\n") {
				if strings.HasPrefix(line, "TEXT ") {
					fn = strings.Fields(line)[1]
				} else if fusedOp.MatchString(line) {
					t.Errorf("GOARCH=%s: fused multiply-add in %s:%s", arch, fn, strings.Join(strings.Fields(line), " "))
				}
			}
		}
	}
}
