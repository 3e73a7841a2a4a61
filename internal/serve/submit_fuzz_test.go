package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gxplug/gx"
)

// FuzzSubmitNoPanic drives arbitrary request bodies through everything
// handleSubmit does before admission — parseSubmission, manifest
// resolution, defaults, Validate — and requires a suite or an error,
// never a panic: a submission is outside input to a long-lived daemon.
// Seeds are the gxrun testdata scenarios and suites.
func FuzzSubmitNoPanic(f *testing.F) {
	seeds, err := filepath.Glob("../../cmd/gxrun/testdata/*.json")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no gxrun testdata seeds (%v)", err)
	}
	for _, path := range seeds {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(suiteBody))
	f.Add([]byte(`{"engine":"graphx","algorithm":"sssp","dataset":"pinned","nodes":2,"batches":{"stream":"file+batches:/x.gxb"}}`))
	f.Add([]byte(`{"entries":[]}`))
	f.Add([]byte(absurdNodesBody))
	f.Add([]byte(hostileGrowthBody))

	mf := gx.Manifest{Datasets: map[string]string{
		"pinned": "file+snapshot:/nonexistent.gxsnap#sha256=" + strings.Repeat("ab", 32),
	}}
	f.Fuzz(func(t *testing.T, body []byte) {
		suite, err := parseSubmission(body)
		if err != nil {
			return
		}
		suite = mf.ResolveSuite(suite).WithDefaults()
		if err := suite.Validate(); err != nil {
			return
		}
		if len(suite.Entries) == 0 {
			t.Fatal("an empty suite validated")
		}
	})
}
