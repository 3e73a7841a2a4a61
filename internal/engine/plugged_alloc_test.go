package engine_test

import (
	"runtime"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
)

// bytesPerSuperstep runs cfg once to completion and returns the heap
// bytes the whole run allocated — agent set-up, block plans and segments
// included — divided by the supersteps it executed.
func bytesPerSuperstep(t *testing.T, cfg engine.Config) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := graphx.Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations ran")
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Iterations)
}

// The middleware moves every block through shared segments that are sized
// for the blocks it really ships, and decodes, computes and drains them in
// reused buffers, so a plugged run may allocate only a small multiple of
// what the native executor does for the same supersteps: 6-9x on this
// fixture, most of it the agents' one-time tables, caches and slabs.
// Before segments were right-sized the multiple was 30-48x (three
// segments per daemon, each big enough for the whole edge table in one
// block, plus a fresh copy of every block on the daemon side).
func TestPluggedBytesPerSuperstepNearNative(t *testing.T) {
	const maxOverNative = 12.0
	g, err := gen.RMAT(gen.RMATConfig{
		NumVertices: 4000, NumEdges: 40000, A: 0.57, B: 0.19, C: 0.19, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	part := graph.EdgeCutByHash(g, 4)
	srcs := algos.DefaultSources(g.NumVertices())
	for _, tc := range []struct {
		name string
		mk   func() engine.Config
	}{
		{"pagerank", func() engine.Config { return engine.Config{Alg: algos.NewPageRank()} }},
		{"sssp", func() engine.Config { return engine.Config{Alg: algos.NewSSSPBF(srcs)} }},
	} {
		run := func(plug []gxplug.Options) float64 {
			cfg := tc.mk()
			cfg.Graph, cfg.Partitioning, cfg.Nodes, cfg.MaxIter, cfg.Plug = g, part, 4, 10, plug
			return bytesPerSuperstep(t, cfg)
		}
		native := run(nil)
		plugged := run([]gxplug.Options{gxplug.GPUOptions(1000, 1)})
		t.Logf("%s: native %.0f B/superstep, plugged %.0f (%.1fx)", tc.name, native, plugged, plugged/native)
		if plugged > maxOverNative*native {
			t.Errorf("%s: plugged run allocates %.0f B/superstep, %.1fx native's %.0f; want at most %.0fx",
				tc.name, plugged, plugged/native, native, maxOverNative)
		}
	}
}
