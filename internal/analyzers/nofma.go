package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"pfpl/internal/analyzers/analysis"
)

// NoFMA keeps the codec's floating-point results identical on every
// target. The Go spec lets the compiler fuse x*y + z into one multiply-add
// instruction, which skips the rounding of the product, and it does so on
// arm64, ppc64le, riscv64 and loong64: an arm64 decoder would then
// reconstruct values the amd64 encoder never verified. Only an explicit
// conversion, float64(x*y) + z, forces the rounding. In the packages under
// the determinism contract the analyzer flags every non-constant float
// product that is an operand of + or - (looking through parentheses and
// unary signs), and every product added with += or -=.
//
// It sees one expression at a time. A product stored in a variable and
// added in a later statement, or passed to a function whose inlined body
// adds it, may be fused too; TestNoFusedMultiplyAdd (internal/portmath)
// disassembles the built packages and remains the backstop for those.
var NoFMA = &analysis.Analyzer{
	Name: "nofma",
	Doc:  "require a float64(...) conversion around every float product that is added or subtracted in codec packages",
	Run:  runNoFMA,
}

func runNoFMA(pass *analysis.Pass) error {
	if !deterministicScope(pass) {
		return nil
	}
	report := func(prod *ast.BinaryExpr) {
		pass.Reportf(prod.Pos(), "float product %s is added or subtracted unrounded: wrap it in float64(...) so no target fuses it into a multiply-add",
			types.ExprString(prod))
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.ADD || n.Op == token.SUB) && isFloatExpr(pass, n) {
					for _, operand := range []ast.Expr{n.X, n.Y} {
						if prod := bareProduct(pass, operand); prod != nil {
							report(prod)
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
					for _, rhs := range n.Rhs {
						if prod := bareProduct(pass, rhs); prod != nil {
							report(prod)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// bareProduct returns e, looking through parentheses and unary signs, if
// it is a non-constant float multiplication; a conversion ends the search.
func bareProduct(pass *analysis.Pass, e ast.Expr) *ast.BinaryExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.SUB && x.Op != token.ADD {
				return nil
			}
			e = x.X
		case *ast.BinaryExpr:
			if x.Op != token.MUL || !isFloatExpr(pass, x) {
				return nil
			}
			return x
		default:
			return nil
		}
	}
}

// isFloatExpr reports whether e is a non-constant expression of floating-
// point type.
func isFloatExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value != nil || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
