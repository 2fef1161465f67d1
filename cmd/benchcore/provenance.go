package main

import (
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
)

// provenance names the code a report measured and how it was built:
// the commit ("+modified" when the tree had local changes, "unknown"
// outside a git checkout) and the GOAMD64 level ("" off amd64).
func provenance() (commit, goamd64 string) {
	commit, goamd64 = "unknown", os.Getenv("GOAMD64")
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			case "GOAMD64":
				goamd64 = s.Value
			}
		}
	}
	if commit != "unknown" {
		return commit, goamd64
	}
	// go run and go test do not stamp VCS information; ask git.
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return commit, goamd64
	}
	commit = strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		commit += "+modified"
	}
	return commit, goamd64
}
