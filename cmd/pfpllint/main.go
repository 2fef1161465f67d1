// Command pfpllint is the repository's invariant checker: a multichecker
// bundling the six analyzers in internal/analyzers (determinism,
// intwidth, errchain, hotpath, refparity, nofma).
//
// It runs two ways:
//
//	pfpllint [packages]              # standalone, e.g. pfpllint ./...
//	go vet -vettool=$(which pfpllint) ./...
//
// Standalone mode shells out to `go list` and type-checks from source;
// vettool mode speaks cmd/go's vet protocol (one invocation per package,
// a JSON config file as the sole argument, export data for imports), so
// findings land with the same caching and package selection as go vet.
// Both honor GOARCH from the environment: GOARCH=386 analyzes the tree
// with 32-bit int sizes, which is where the intwidth analyzer's
// maxFrameBytes/frame-cap bug class actually bites.
//
// Exit status is 0 for a clean pass, 2 when any diagnostic is reported,
// and 1 for operational errors (unparseable package, bad flags).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pfpl/internal/analyzers"
	"pfpl/internal/analyzers/analysis"
	"pfpl/internal/analyzers/load"
)

// version is the string reported to cmd/go's -V=full probe. cmd/go
// requires the third field to be a non-"devel" version token it can use
// as a cache key, so bump it whenever analyzer behavior changes — stale
// vet caches would otherwise keep serving old verdicts.
const version = "v1.1.0"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// cmd/go probes the tool before first use: `-V=full` must print an
	// identity whose final field is a cacheable version, and `-flags`
	// must dump the tool's flag set as JSON (ours is empty — analyzer
	// selection is deliberately not configurable, the invariants are not
	// optional). Both probes are answered before any other parsing.
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			fmt.Printf("pfpllint version %s\n", version)
			return 0
		case "-flags", "--flags":
			fmt.Println("[]")
			return 0
		}
	}

	fs := flag.NewFlagSet("pfpllint", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: pfpllint [packages]\n")
		fmt.Fprintf(fs.Output(), "       go vet -vettool=$(which pfpllint) [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Analyzers (always all on):\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	rest := fs.Args()

	// cmd/go invokes the tool as `pfpllint <objdir>/vet.cfg`.
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		code, err := unitMode(rest[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfpllint: %v\n", err)
		}
		return code
	}

	patterns := rest
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	return standalone(patterns)
}

func standalone(patterns []string) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pfpllint: %v\n", err)
		return 1
	}
	units, err := load.Targets(cwd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pfpllint: %v\n", err)
		return 1
	}
	found := false
	for _, u := range units {
		diags, err := analysis.Run(u, analyzers.All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfpllint: %s: %v\n", u.Pkg.Path(), err)
			return 1
		}
		for _, d := range diags {
			found = true
			printDiag(cwd, u, d)
		}
	}
	if found {
		return 2
	}
	return 0
}

func printDiag(cwd string, u *analysis.Unit, d analysis.Diagnostic) {
	pos := u.Fset.Position(d.Pos)
	file := pos.Filename
	if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n", file, pos.Line, pos.Column, d.Analyzer, d.Message)
}
