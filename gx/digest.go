package gx

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"gxplug/internal/engine"
)

// digestVersion prefixes every scenario digest. Bump it whenever the
// canonical form changes meaning — a new Scenario field, a different
// default — so stale result-cache entries can never be served for a
// scenario that now describes a different run. The golden fixtures in
// testdata/digests.golden pin the current version's output; an
// accidental change to either fails TestScenarioDigestGolden.
const digestVersion = "gx-scenario-v2"

// Digest returns the canonical identity of the scenario as a lowercase
// hex SHA-256. Two scenarios digest equal exactly when they describe the
// same run, regardless of how they were written down:
//
//   - JSON field order never matters — the digest is computed from a
//     canonical re-marshal of the parsed scenario, not the input bytes;
//   - defaults never matter — the scenario is defaults-applied first, so
//     an explicit `"scale": 1000` digests like an omitted one;
//   - empty-vs-nil never matters — empty Params.Sources, Mix and Faults
//     slices are normalized to nil before marshalling.
//
// Runs are bit-deterministic (results and virtual makespan are a pure
// function of the scenario), so the digest is a sound cache key: it is
// what [ResultCache] and the gxd serving layer key results by. For
// `file:` datasets the digest covers the reference string only — the
// file's *content* digest is folded in one level up, by the executor,
// so a rewritten file can never hit a stale cached result.
//
// Scenarios that depend on functional options ([WithGraph], [WithPlug],
// [WithPartitioning], ...) have no canonical form: the options
// are live objects with no JSON representation, which is why runs
// carrying them bypass result caching by construction.
func (s Scenario) Digest() (string, error) {
	s = s.WithDefaults()
	if len(s.Params.Sources) == 0 {
		s.Params.Sources = nil
	}
	if len(s.Mix) == 0 {
		s.Mix = nil
	}
	if len(s.Faults) == 0 {
		s.Faults = nil
	}
	// Batch streams digest canonically too: the default mode spelled out,
	// empty inline slices nil. The stream file's *content* digest is
	// folded in by the executor, like `file:` dataset content.
	s.Batches = s.Batches.normalized()
	b, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("gx: scenario digest: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(digestVersion))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// AttrsDigest returns the lowercase hex SHA-256 of a final attribute
// array's exact bit pattern (each float64 little-endian). Equal digests
// mean bit-identical results — the form cached and served summaries
// carry in place of the full array, and what every [BatchResult] pins
// its boundary with.
func AttrsDigest(attrs []float64) string { return engine.AttrsDigest(attrs) }
