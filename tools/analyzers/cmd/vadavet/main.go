// Command vadavet bundles the repo's engine-invariant analyzers into a
// `go vet -vettool` compatible binary:
//
//	go build -o vadavet ./cmd/vadavet
//	go vet -vettool=$(pwd)/vadavet ./...        # from the main module
//	./vadavet <dir>                             # standalone directory sweep
package main

import (
	"vadasa/tools/analyzers/conftaint"
	"vadasa/tools/analyzers/ctxpass"
	"vadasa/tools/analyzers/fence"
	"vadasa/tools/analyzers/governcharge"
	"vadasa/tools/analyzers/unitchecker"
)

func main() {
	unitchecker.Main(conftaint.Analyzer, ctxpass.Analyzer, fence.Distfence, governcharge.Analyzer, fence.Hotgroup, fence.Pairscan, fence.Replfence, fence.Streamfence)
}
