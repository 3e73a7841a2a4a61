package ingest

import (
	"path/filepath"
	"testing"
	"time"

	"gxplug/internal/gen"
)

// benchTriple is the harness-scale workload the snapshot speedup is
// measured against: the orkut R-MAT stand-in at the default 1/1000
// scale (≈3k vertices / 117k edges) and at 1/100 (≈30k / 1.17M), the
// scale the heavier harness sweeps use.
var benchTriples = []struct {
	name    string
	dataset gen.Dataset
	scale   int64
}{
	{"orkut-1000", gen.Orkut, 1000},
	{"orkut-100", gen.Orkut, 100},
}

// BenchmarkSnapshotLoad compares loading a binary CSR snapshot against
// regenerating the same graph with the R-MAT generator — the cold-start
// cost a suite pays per distinct dataset. The acceptance bar is snapshot
// ≥10× faster than regeneration; the recorded numbers are
// BENCHMARK.json's ingest.snapshot_load_ms against gen.load_ms.
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, tt := range benchTriples {
		g, err := gen.Load(tt.dataset, tt.scale, 42)
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "bench.gxsnap")
		if err := SaveFile(path, g); err != nil {
			b.Fatal(err)
		}
		b.Run("snapshot/"+tt.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := LoadSnapshotFile(path); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("regenerate/"+tt.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gen.Load(tt.dataset, tt.scale, 42); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSnapshotLoadBeatsRegeneration guards the speedup that justifies
// the snapshot path. The recorded benchmark margin is >10×; the test
// asserts a deliberately conservative 3× so scheduler noise on loaded
// CI hosts cannot flake it.
func TestSnapshotLoadBeatsRegeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison: skipped in -short")
	}
	const dataset, scale = gen.Orkut, int64(100)
	g, err := gen.Load(dataset, scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "speed.gxsnap")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	best := func(n int, f func() error) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	load := best(3, func() error { _, err := LoadSnapshotFile(path); return err })
	regen := best(3, func() error { _, err := gen.Load(dataset, scale, 42); return err })
	if load*3 >= regen {
		t.Fatalf("snapshot load %v not ≥3× faster than regeneration %v", load, regen)
	}
	t.Logf("snapshot load %v vs regeneration %v (%.1f×)", load, regen, float64(regen)/float64(load))
}
