// Command meslint is the project's own vet suite. It bundles the four
// analyzers under internal/analysis — detnondet, poolhygiene, mechtable
// and allocfree — into a unitchecker binary that
// plugs into the standard toolchain:
//
//	go build -o bin/meslint ./cmd/meslint
//	go vet -vettool=bin/meslint ./...
//
// (`make lint` does both.) Running through go vet rather than
// standalone gives incremental re-analysis via the build cache and
// cross-package facts (mechtable's detector-coverage audit) for free.
// See doc.go at the repository root for the invariants these analyzers
// enforce and the //mes: and //lint:allow directives they honor.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"mes/internal/analysis/allocfree"
	"mes/internal/analysis/detnondet"
	"mes/internal/analysis/mechtable"
	"mes/internal/analysis/poolhygiene"
)

func main() {
	unitchecker.Main(
		detnondet.Analyzer,
		poolhygiene.Analyzer,
		mechtable.Analyzer,
		allocfree.Analyzer,
	)
}
