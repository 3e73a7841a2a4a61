// Package lint holds gxlint, the repository's custom static-analysis
// suite, and runs it as a test: TestLint type-checks every package of the
// module, test files included, and fails on any diagnostic (`make lint`,
// and `go test ./...`). Each analyzer encodes an invariant the runtime
// tests pin after the fact, so that refactors of the hot paths fail the
// build — not a bisect — when they break one:
//
//	determinism — no wall clocks, no unseeded global randomness, and no
//	              map-iteration order leaking into results in simulated
//	              paths (engine, gxplug, algos, cluster, simtime, gx,
//	              harness).
//	nilgate     — engine.Observer values are only ever called under a
//	              nil check (the allocs/op contract from the observer
//	              work: a nil observer costs nothing).
//	wiresize    — decode paths never allocate from a wire-derived size
//	              without a bound check against the verified input size
//	              (the lying-header class of bugs).
//	clockcharge — exported gxplug middleware entry points charge a
//	              virtual-clock bucket on every return path (the
//	              stall-recovery discipline).
//	directive   — every //gxlint: suppression names a known check and
//	              carries a reason.
//
// Suppression: annotate the exact statement with
// //gxlint:<directive> <reason>; see directive.go for the catalog.
// DESIGN.md ("Static analysis") maps each analyzer to the invariant it
// encodes and the runtime test pinning the other half.
package lint

import (
	"strings"

	"gxplug/internal/lint/analysis"
)

// analyzers returns the full gxlint suite in reporting order.
func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DeterminismAnalyzer,
		NilGateAnalyzer,
		WireSizeAnalyzer,
		ClockChargeAnalyzer,
		DirectiveAnalyzer,
	}
}

// determinismTargets are the packages whose execution is part of the
// simulated, bit-reproducible world. Paths are segment suffixes so the
// same analyzers match the real tree ("gxplug/internal/engine"), its
// subpackages, and test fixtures ("internal/engine").
var determinismTargets = []string{
	"internal/engine",
	"internal/gxplug",
	"internal/algos",
	"internal/cluster",
	"internal/simtime",
	"internal/harness",
	// The serving layer feeds results straight from the executor; wall
	// clocks belong only to the HTTP edge in cmd/gxd, never in here.
	"internal/serve",
	"gx",
	// Dynamic graphs made the substrate and the batch-stream codec part
	// of the reproducible world: ApplyBatch versioning and .gxb decoding
	// feed digests the result cache keys on, so they carry the same
	// no-wall-clock, no-map-order discipline as the engine.
	"internal/graph",
	"internal/gen/ingest",
	// Everything that runs a kernel: which goroutine, which items per call.
	"internal/par",
	"internal/device",
}

// wireSizeTargets are the packages that decode untrusted bytes (files,
// shared-memory segments) into allocations.
var wireSizeTargets = []string{
	"internal/gen/ingest",
	"internal/shm",
}

// clockChargeTargets is the middleware package whose exported entry
// points own the virtual-clock charging discipline.
var clockChargeTargets = []string{
	"internal/gxplug",
}

// pkgMatch reports whether the package path under analysis falls under
// any target: some slash-bounded prefix of path ends in the target.
// "gxplug/internal/engine/powergraph" matches target "internal/engine";
// "gxplug/internal/gxplug/synccache" matches target "internal/gxplug".
func pkgMatch(path string, targets []string) bool {
	for _, t := range targets {
		for i := 0; ; {
			j := strings.Index(path[i:], t)
			if j < 0 {
				break
			}
			j += i
			startOK := j == 0 || path[j-1] == '/'
			end := j + len(t)
			endOK := end == len(path) || path[end] == '/'
			if startOK && endOK {
				return true
			}
			i = j + 1
		}
	}
	return false
}

// clockChargeExact is pkgMatch restricted to the package itself, not
// its subpackages: synccache/pipeline/balance are cost models, not
// entry points.
func clockChargeExact(path string) bool {
	for _, t := range clockChargeTargets {
		if path == t || strings.HasSuffix(path, "/"+t) {
			return true
		}
	}
	return false
}

// isTestFile reports whether filename is a _test.go file. The runtime
// invariants apply to production code: tests and benchmarks measure
// wall clocks and iterate maps on purpose, and keep their own
// determinism via the assertions they make.
func isTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}
