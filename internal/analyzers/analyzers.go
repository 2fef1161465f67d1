// Package analyzers holds the pfpllint invariant checkers: six static
// analyses, each pinned to an invariant class this codebase has shipped
// (and fixed) real bugs in. See DESIGN.md §"Static invariants" for the
// analyzer → invariant → historical-bug table.
//
//   - determinism: no time/rand/env/map-order dependence in codec packages
//   - intwidth: no narrow-width length arithmetic or unguarded narrowing
//   - errchain: no fmt.Errorf that formats an error without %w
//   - hotpath: no allocating constructs in //pfpl:hotpath functions
//   - refparity: every //pfpl:kernel has a same-signature scalar reference
//   - nofma: no unrounded float product added or subtracted in codec packages
//
// The suite runs as `go vet -vettool=$(pfpllint)` in CI (including a
// GOARCH=386 pass, where int is 32 bits and the intwidth rules bite) and
// standalone as `pfpllint ./...`.
package analyzers

import "pfpl/internal/analyzers/analysis"

// All returns the full analyzer suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Determinism, IntWidth, ErrChain, HotPath, RefParity, NoFMA}
}
