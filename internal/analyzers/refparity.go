package analyzers

import (
	"go/ast"
	"go/types"

	"pfpl/internal/analyzers/analysis"
)

// RefParity keeps the differential fast-vs-reference suite honest. Every
// kernel entry point — a function whose doc comment carries //pfpl:kernel
// — must have a same-name, same-signature counterpart in the package's
// scalar reference (the sibling package at <pkg>/ref), because that
// counterpart is the test oracle the differential suite pins the kernel
// against. A kernel added without its reference silently shrinks the
// differential suite's coverage; this analyzer makes the omission a vet
// failure instead.
var RefParity = &analysis.Analyzer{
	Name: "refparity",
	Doc:  "require a same-signature reference counterpart for every //pfpl:kernel function",
	Run:  runRefParity,
}

func runRefParity(pass *analysis.Pass) error {
	refPath := pass.Pkg.Path() + "/ref"
	var refPkg *types.Package
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == refPath {
			refPkg = imp
			break
		}
	}
	funcDocs(pass, func(fd *ast.FuncDecl) {
		if !analysis.HasDirective(fd.Doc, "kernel") {
			return
		}
		if fd.Recv != nil {
			pass.Reportf(fd.Pos(), "//pfpl:kernel on method %s: kernel entry points must be top-level functions", fd.Name.Name)
			return
		}
		if refPkg == nil {
			pass.Reportf(fd.Pos(), "//pfpl:kernel %s but package %s does not import its scalar reference %s — the differential suite has nothing to pin this kernel against",
				fd.Name.Name, pass.Pkg.Path(), refPath)
			return
		}
		obj := refPkg.Scope().Lookup(fd.Name.Name)
		if obj == nil {
			pass.Reportf(fd.Pos(), "kernel %s has no counterpart in %s: add the scalar reference so the differential suite covers it",
				fd.Name.Name, refPath)
			return
		}
		refFn, ok := obj.(*types.Func)
		if !ok {
			pass.Reportf(fd.Pos(), "kernel %s: %s.%s is %s, not a function", fd.Name.Name, refPath, fd.Name.Name, obj.String())
			return
		}
		own, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		ownSig := sigString(own.Type().(*types.Signature))
		refSig := sigString(refFn.Type().(*types.Signature))
		if ownSig != refSig {
			pass.Reportf(fd.Pos(), "kernel %s signature %s does not match reference %s.%s signature %s — the differential suite cannot drive both with one corpus",
				fd.Name.Name, ownSig, refPath, fd.Name.Name, refSig)
		}
	})
	return nil
}
