package analyzers

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"runtime"
	"strings"
	"testing"

	"pfpl/internal/analyzers/analysis"
	"pfpl/internal/analyzers/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", Determinism,
		"determinism/marked", "determinism/internal/core", "determinism/clean")
}

func TestIntWidth(t *testing.T) {
	analysistest.Run(t, "testdata", IntWidth, "intwidth/a")
}

// TestIntWidth386 runs the 32-bit-only fixture with 386 type sizes, where
// int and uint are 4 bytes — the environment the maxFrameBytes and PR 6
// frame-cap bugs shipped in.
func TestIntWidth386(t *testing.T) {
	analysistest.RunGOARCH(t, "386", "testdata", IntWidth, "intwidth/arch32")
}

// TestIntWidthArch32SilentOn64Bit pins the flip side: the same fixture
// analyzed with 64-bit sizes produces no rule-1 finding for int
// arithmetic, which is exactly why CI must run the analyzer under
// GOARCH=386 as well.
func TestIntWidthArch32SilentOn64Bit(t *testing.T) {
	diags := runOnSource(t, IntWidth, "amd64", `package p
func ByteLen(n int) int64 { return int64(n * 4) }
`)
	if len(diags) != 0 {
		t.Fatalf("int arithmetic flagged under 64-bit sizes: %v", diags)
	}
	diags = runOnSource(t, IntWidth, "386", `package p
func ByteLen(n int) int64 { return int64(n * 4) }
`)
	if len(diags) != 1 {
		t.Fatalf("want 1 finding under 386 sizes, got %v", diags)
	}
}

func TestErrChain(t *testing.T) {
	analysistest.Run(t, "testdata", ErrChain, "errchain/a")
}

func TestHotPath(t *testing.T) {
	analysistest.Run(t, "testdata", HotPath, "hotpath/a")
}

func TestRefParity(t *testing.T) {
	analysistest.Run(t, "testdata", RefParity, "refparity/kern", "refparity/noref")
}

// TestMalformedIgnoreReported pins the no-blanket-excludes rule: an ignore
// directive without an analyzer name and reason is itself a finding.
func TestMalformedIgnoreReported(t *testing.T) {
	diags := runOnSource(t, ErrChain, runtime.GOARCH, `package p

//pfpl:ignore errchain
func f() {}
`)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "malformed //pfpl:ignore") {
		t.Fatalf("want one malformed-ignore diagnostic, got %v", diags)
	}
	if diags[0].Analyzer != "pfpllint" {
		t.Fatalf("malformed ignore attributed to %q, want pfpllint", diags[0].Analyzer)
	}
}

// TestIgnoreRequiresMatchingAnalyzer pins that an ignore for one analyzer
// does not suppress another's finding on the same line.
func TestIgnoreRequiresMatchingAnalyzer(t *testing.T) {
	src := `package p

import (
	"errors"
	"fmt"
)

var errBad = errors.New("bad")

func f(i int) error {
	return fmt.Errorf("frame %d: %v", i, errBad) //pfpl:ignore hotpath wrong analyzer name
}
`
	diags := runOnSource(t, ErrChain, runtime.GOARCH, src)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "wraps 0") {
		t.Fatalf("mismatched ignore suppressed the finding: %v", diags)
	}
}

func stdImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}

// runOnSource type-checks one in-memory file and runs a single analyzer
// over it with the given architecture's sizes.
func runOnSource(t *testing.T, a *analysis.Analyzer, goarch, src string) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: stdImporter(fset), Sizes: types.SizesFor("gc", goarch)}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	unit := &analysis.Unit{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info, Sizes: types.SizesFor("gc", goarch)}
	diags, err := analysis.Run(unit, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestNoFMA(t *testing.T) {
	analysistest.Run(t, "testdata", NoFMA, "nofma/internal/core", "nofma/marked", "nofma/clean")
}
