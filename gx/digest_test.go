package gx

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestScenarioDigestCanonicalization pins the three invariances the
// digest promises: JSON field order, default-vs-explicit zero fields,
// and empty-vs-nil slices must not change a scenario's identity — while
// any meaningful field change must.
func TestScenarioDigestCanonicalization(t *testing.T) {
	base := Scenario{Engine: "powergraph", Algorithm: "pagerank", Dataset: "orkut", Nodes: 2}
	baseDigest, err := base.Digest()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("field order", func(t *testing.T) {
		a, err := ParseScenario([]byte(`{"engine":"powergraph","algorithm":"pagerank","dataset":"orkut","nodes":2}`))
		if err != nil {
			t.Fatal(err)
		}
		b, err := ParseScenario([]byte(`{"nodes":2,"dataset":"orkut","algorithm":"pagerank","engine":"powergraph"}`))
		if err != nil {
			t.Fatal(err)
		}
		da, _ := a.Digest()
		db, _ := b.Digest()
		if da != db || da != baseDigest {
			t.Fatalf("field order changed digest: %s vs %s (base %s)", da, db, baseDigest)
		}
	})

	t.Run("defaults", func(t *testing.T) {
		explicit := base
		explicit.Scale = DefaultScale
		explicit.Accel = DefaultAccel
		explicit.Network = DefaultNetwork
		explicit.GPUs = 1
		d, err := explicit.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d != baseDigest {
			t.Fatalf("explicit defaults digest %s != implicit %s", d, baseDigest)
		}
	})

	t.Run("empty vs nil slices", func(t *testing.T) {
		empty := base
		empty.Params.Sources = []int64{}
		empty.Mix = []string{}
		empty.Faults = []FaultSpec{}
		d, err := empty.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d != baseDigest {
			t.Fatalf("empty slices digest %s != nil slices %s", d, baseDigest)
		}
	})

	t.Run("meaningful changes", func(t *testing.T) {
		seen := map[string]string{"base": baseDigest}
		for name, mutate := range map[string]func(*Scenario){
			"engine":   func(s *Scenario) { s.Engine = "graphx" },
			"dataset":  func(s *Scenario) { s.Dataset = "wrn" },
			"scale":    func(s *Scenario) { s.Scale = 2000 },
			"seed":     func(s *Scenario) { s.Seed = 1 },
			"nodes":    func(s *Scenario) { s.Nodes = 3 },
			"accel":    func(s *Scenario) { s.Accel = "gpu" },
			"maxiter":  func(s *Scenario) { s.MaxIter = 5 },
			"cachecap": func(s *Scenario) { s.CacheCapacity = 8 },
			"opt":      func(s *Scenario) { s.Opt = NoOptimizations() },
			"sources":  func(s *Scenario) { s.Params.Sources = []int64{3} },
			"faults": func(s *Scenario) {
				s.Accel = "gpu-distinct" // keep accel itself out of this case's delta
				s.Faults = []FaultSpec{{Kind: FaultMsgStall, Node: 0, Superstep: 1}}
			},
		} {
			s := base
			mutate(&s)
			d, err := s.Digest()
			if err != nil {
				t.Fatal(err)
			}
			for prev, pd := range seen {
				if pd == d {
					t.Errorf("%s collides with %s: %s", name, prev, d)
				}
			}
			seen[name] = d
		}
	})
}

// TestScenarioDigestGolden pins the digest of every testdata/digest-*.json
// fixture to testdata/digests.golden. The digest is a persistent cache
// key (the gxd result cache survives across submissions), so a silent
// change to the canonical form — a renamed JSON tag, a new default, a
// reordered struct field — must fail the build here, forcing a
// deliberate digestVersion bump. Regenerate with GX_UPDATE_GOLDEN=1.
func TestScenarioDigestGolden(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "digest-*.json"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no digest fixtures: %v", err)
	}
	sort.Strings(fixtures)

	got := make(map[string]string, len(fixtures))
	var lines []string
	for _, path := range fixtures {
		s, err := LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.Digest()
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		got[name] = d
		lines = append(lines, name+"\t"+d)
	}

	goldenPath := filepath.Join("testdata", "digests.golden")
	if os.Getenv("GX_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with GX_UPDATE_GOLDEN=1 to generate)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(strings.TrimSpace(sc.Text()), "\t")
		if ok {
			want[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d entries, fixtures have %d", len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, golden %s — the canonical form changed; bump digestVersion and regenerate",
				name, d, want[name])
		}
	}

	// The fixtures that spell one scenario three ways must agree.
	if got["digest-minimal.json"] != got["digest-explicit-defaults.json"] ||
		got["digest-minimal.json"] != got["digest-reordered.json"] {
		t.Errorf("equivalent fixtures digest differently: %v", got)
	}
	// An omitted batch mode and an explicit "incremental" describe the
	// same run; the batch stream itself must distinguish the scenario.
	if got["digest-batches.json"] != got["digest-batches-mode.json"] {
		t.Errorf("default and explicit incremental mode digest differently")
	}
	if got["digest-batches.json"] == got["digest-minimal.json"] {
		t.Errorf("batches fixture digests like its static counterpart")
	}
}

// TestAttrsDigest pins the attrs digest to exact bit patterns.
func TestAttrsDigest(t *testing.T) {
	a := []float64{1.0, 0.5, -0.25}
	if AttrsDigest(a) != AttrsDigest([]float64{1.0, 0.5, -0.25}) {
		t.Fatal("equal arrays digest differently")
	}
	if AttrsDigest(a) == AttrsDigest([]float64{0.5, 1.0, -0.25}) {
		t.Fatal("order-insensitive digest")
	}
	// Runtime 0.1+0.2 differs from 0.3 in the last bit (Go constant
	// arithmetic is exact, so the sum must happen at runtime); the
	// digest must see it.
	x, y := 0.1, 0.2
	if AttrsDigest([]float64{x + y}) == AttrsDigest([]float64{0.3}) {
		t.Fatal("digest blind to last-bit differences")
	}
	if AttrsDigest(nil) != AttrsDigest([]float64{}) {
		t.Fatal("nil and empty arrays digest differently")
	}
	// The digest is SHA-256 over each value's 8 little-endian bytes, one
	// value after the other, whatever buffer it hashes them through: the
	// array is long enough to cross any chunk boundary a few times over,
	// and NaN payloads, ±0 and subnormals keep their bits.
	rng := rand.New(rand.NewSource(50))
	long := make([]float64, 4099)
	for i := range long {
		long[i] = math.Float64frombits(rng.Uint64())
	}
	copy(long, []float64{math.Float64frombits(0x7FF8DEADBEEF0001), math.Copysign(0, -1), math.Float64frombits(1)})
	for _, n := range []int{1, 63, 64, 65, 128, 129, len(long)} {
		h := sha256.New()
		for _, v := range long[:n] {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		if got, want := AttrsDigest(long[:n]), hex.EncodeToString(h.Sum(nil)); got != want {
			t.Fatalf("%d values: digest %s, SHA-256 of the per-value bytes %s", n, got, want)
		}
	}
}

// TestDigestMatchesRunDeterminism ties the key to the cached value: two
// scenarios that digest equal must produce bit-identical runs.
func TestDigestMatchesRunDeterminism(t *testing.T) {
	written := Scenario{Engine: "graphx", Algorithm: "cc", Dataset: "orkut", Scale: 20000, Nodes: 2}
	spelled := Scenario{
		Engine: "graphx", Algorithm: "cc", Dataset: "orkut", Scale: 20000, Nodes: 2,
		Accel: DefaultAccel, Network: DefaultNetwork, GPUs: 1,
	}
	dw, _ := written.Digest()
	ds, _ := spelled.Digest()
	if dw != ds {
		t.Fatalf("digests differ: %s vs %s", dw, ds)
	}
	rw, err := Run(written)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(spelled)
	if err != nil {
		t.Fatal(err)
	}
	if AttrsDigest(rw.Attrs) != AttrsDigest(rs.Attrs) || rw.Time != rs.Time {
		t.Fatal("equal digests, unequal runs")
	}
	if fmt.Sprint(rw.Iterations) != fmt.Sprint(rs.Iterations) {
		t.Fatal("iteration counts differ")
	}
}
