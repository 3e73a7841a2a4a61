package harness

import (
	"strings"
	"sync"
	"testing"

	"gxplug/internal/device"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
)

// testOpts keeps datasets tiny so the whole shape suite runs in seconds.
func testOpts() Options { return Options{Scale: 16000, Seed: 42} }

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Scale: 0}).Validate(); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

// The process-wide dataset table generates each (dataset, scale, seed)
// once and hands every later load the identical instance; the seed and
// the dataset are each part of the key. Seeds no figure test uses keep
// the counters this test reads its own.
func TestLoadOncePerKey(t *testing.T) {
	before := DatasetStats()
	o := Options{Scale: 20000, Seed: 9101}
	a, err := load(gen.Orkut, o)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := load(gen.Orkut, o); err != nil || b != a {
		t.Fatalf("repeated key: err %v, same instance %v", err, b == a)
	}
	if b, err := load(gen.Orkut, Options{Scale: 20000, Seed: 9102}); err != nil || b == a {
		t.Fatalf("distinct seed: err %v, same instance %v", err, b == a)
	}
	if b, err := load(gen.WRN, o); err != nil || b == a {
		t.Fatalf("distinct dataset: err %v, same instance %v", err, b == a)
	}
	after := DatasetStats()
	if loads, hits := after.Entries-before.Entries, after.Hits-before.Hits; loads != 3 || hits != 1 {
		t.Fatalf("%d loads / %d hits, want 3 / 1", loads, hits)
	}
}

// Concurrent first loads of one key generate it once and all receive the
// identical instance.
func TestLoadSingleFlight(t *testing.T) {
	before := DatasetStats()
	const callers = 16
	graphs := make([]*graph.Graph, callers)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			graphs[i], _ = load(gen.LiveJournal, Options{Scale: 40000, Seed: 9103})
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if graphs[i] == nil || graphs[i] != graphs[0] {
			t.Fatalf("caller %d got a different instance", i)
		}
	}
	after := DatasetStats()
	if loads, hits := after.Entries-before.Entries, after.Hits-before.Hits; loads != 1 || hits != callers-1 {
		t.Fatalf("%d loads / %d hits for %d callers of one key", loads, hits, callers)
	}
}

func TestScaledV100(t *testing.T) {
	s := device.V100Scaled(1000)
	if s.MemBytes != (16<<30)/1000 {
		t.Fatalf("mem %d", s.MemBytes)
	}
	if tiny := device.V100Scaled(1 << 40); tiny.MemBytes < 1<<16 {
		t.Fatal("memory floor not applied")
	}
}

func TestNodesForGPUs(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 12: {6, 2}}
	for gpus, want := range cases {
		n, per := NodesForGPUs(gpus)
		if n != want[0] || per != want[1] {
			t.Fatalf("NodesForGPUs(%d) = (%d,%d), want %v", gpus, n, per, want)
		}
	}
}

func TestTableDatasets(t *testing.T) {
	res, err := TableDatasets(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(res.Rows))
	}
	out := res.String()
	for _, want := range []string{"orkut", "twitter", "uk-2007-02", "Road"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

// Fig 8 shape: on every dataset and algorithm, GPU beats CPU beats
// native for both engines, and native PowerGraph beats native GraphX.
func TestFig8Shape(t *testing.T) {
	res, err := Fig8(Options{Scale: 2000, Seed: 42}, []gen.Dataset{gen.Orkut})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"LP", "SSSP-BF", "PageRank"} {
		gx, _ := res.Cell(gen.Orkut, algo, SysGraphX)
		gxc, _ := res.Cell(gen.Orkut, algo, SysGraphXCPU)
		gxg, _ := res.Cell(gen.Orkut, algo, SysGraphXGPU)
		pg, _ := res.Cell(gen.Orkut, algo, SysPowerGraph)
		pgg, _ := res.Cell(gen.Orkut, algo, SysPowerGraphGPU)
		if !(gxg.Time < gxc.Time && gxc.Time < gx.Time) {
			t.Fatalf("%s: GraphX ordering wrong: GPU=%v CPU=%v native=%v",
				algo, gxg.Time, gxc.Time, gx.Time)
		}
		if pgg.Time >= pg.Time {
			t.Fatalf("%s: PowerGraph+GPU (%v) not faster than native (%v)", algo, pgg.Time, pg.Time)
		}
		if pg.Time >= gx.Time {
			t.Fatalf("%s: native PowerGraph (%v) not faster than native GraphX (%v)",
				algo, pg.Time, gx.Time)
		}
		if sp := res.Speedup(gen.Orkut, algo, SysGraphXGPU); sp < 2 {
			t.Fatalf("%s: GraphX+GPU speedup %.1fx below 2x", algo, sp)
		}
	}
	if !strings.Contains(res.String(), "GraphX+GPU") {
		t.Fatal("output missing systems")
	}
}

// Fig 9a shape: Gunrock best at 1 GPU and "No Config" beyond; GX-Plug
// beats Lux from 4 GPUs; GX-Plug time decreases with GPUs.
func TestFig9aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation sweep; run without -short for the full shape check")
	}
	res, err := Fig9a(Options{Scale: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	gx1, _ := res.Entry("GX-Plug+PowerGraph", 1)
	gx4, _ := res.Entry("GX-Plug+PowerGraph", 4)
	gx12, _ := res.Entry("GX-Plug+PowerGraph", 12)
	lux4, _ := res.Entry("Lux", 4)
	gun1, _ := res.Entry("Gunrock", 1)
	gun4, _ := res.Entry("Gunrock", 4)
	if gun1.Status != "" || gun1.Time >= gx1.Time {
		t.Fatalf("Gunrock not best at 1 GPU: gun=%v gx=%v", gun1, gx1)
	}
	if gun4.Status != "No Config" {
		t.Fatalf("Gunrock @4 GPUs status %q, want No Config", gun4.Status)
	}
	if gx4.Time >= lux4.Time {
		t.Fatalf("GX-Plug (%v) not ahead of Lux (%v) at 4 GPUs", gx4.Time, lux4.Time)
	}
	if !(gx12.Time < gx1.Time) {
		t.Fatalf("GX-Plug not scaling: 1 GPU %v, 12 GPUs %v", gx1.Time, gx12.Time)
	}
}

// Fig 9b shape: Gunrock OOMs on both graphs; UK at 4 GPUs fails for
// everyone; UK at 12 works for the distributed systems.
func TestFig9bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation sweep; run without -short for the full shape check")
	}
	res, err := Fig9b(Options{Scale: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	gunTW, _ := res.Entry(gen.Twitter, "Gunrock", 4)
	if gunTW.Status != "O.O.M" {
		t.Fatalf("Gunrock TW@4 status %q, want O.O.M", gunTW.Status)
	}
	gunUK, _ := res.Entry(gen.UK2007, "Gunrock", 12)
	if gunUK.Status != "O.O.M" {
		t.Fatalf("Gunrock UK@12 status %q, want O.O.M", gunUK.Status)
	}
	luxUK4, _ := res.Entry(gen.UK2007, "Lux", 4)
	gxUK4, _ := res.Entry(gen.UK2007, "GX-Plug+PowerGraph", 4)
	if luxUK4.Status != "O.O.M" || gxUK4.Status != "O.O.M" {
		t.Fatalf("UK@4 should OOM for all: lux=%q gx=%q", luxUK4.Status, gxUK4.Status)
	}
	gxUK12, _ := res.Entry(gen.UK2007, "GX-Plug+PowerGraph", 12)
	luxUK12, _ := res.Entry(gen.UK2007, "Lux", 12)
	if gxUK12.Status != "" || luxUK12.Status != "" {
		t.Fatalf("UK@12 should run: gx=%q lux=%q", gxUK12.Status, luxUK12.Status)
	}
	gxTW4, _ := res.Entry(gen.Twitter, "GX-Plug+PowerGraph", 4)
	luxTW4, _ := res.Entry(gen.Twitter, "Lux", 4)
	if gxTW4.Status != "" || luxTW4.Status != "" {
		t.Fatalf("TW@4 should run for distributed systems: gx=%q lux=%q", gxTW4.Status, luxTW4.Status)
	}
	// "PowerGraph+GX-plug is about 40% faster than Lux when processing
	// Twitter with 4 GPUs": require a clear GX-Plug lead.
	if gxTW4.Time >= luxTW4.Time {
		t.Fatalf("GX-Plug TW@4 (%v) not ahead of Lux (%v)", gxTW4.Time, luxTW4.Time)
	}
}

// Fig 9c shape: every algorithm speeds up from 1 to 12 GPUs.
func TestFig9cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation sweep; run without -short for the full shape check")
	}
	res, err := Fig9c(Options{Scale: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"LP", "SSSP-BF", "PageRank"} {
		e1, ok1 := res.Entry(algo, 1)
		e12, ok12 := res.Entry(algo, 12)
		if !ok1 || !ok12 || e1.Status != "" || e12.Status != "" {
			t.Fatalf("%s: missing entries", algo)
		}
		if e12.Time >= e1.Time {
			t.Fatalf("%s: no speedup 1→12 GPUs: %v → %v", algo, e1.Time, e12.Time)
		}
	}
}

// Fig 9d shape: more compute power means less time, combo by combo.
func TestFig9dShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation sweep; run without -short for the full shape check")
	}
	res, err := Fig9d(Options{Scale: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"LP", "SSSP-BF", "PageRank"} {
		a, _ := res.Entry(algo, "G:G:C:C")
		c, _ := res.Entry(algo, "G:G:G:G")
		if c > a {
			t.Fatalf("%s: 4 GPUs (%v) slower than 2G+2C (%v)", algo, c, a)
		}
	}
}

// Fig 10 shape: Pipeline* <= Pipeline < WithoutPipeline.
func TestFig10Shape(t *testing.T) {
	res, err := Fig10(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"LP", "SSSP-BF", "PageRank"} {
		opt, _ := res.Entry(algo, "Pipeline*")
		fixed, _ := res.Entry(algo, "Pipeline")
		without, _ := res.Entry(algo, "WithoutPipeline")
		if opt > fixed {
			t.Fatalf("%s: Pipeline* (%v) worse than fixed Pipeline (%v)", algo, opt, fixed)
		}
		if fixed >= without {
			t.Fatalf("%s: Pipeline (%v) not faster than WithoutPipeline (%v)", algo, fixed, without)
		}
	}
}

// Cache-capacity sweep shape: the hit rate is monotonically
// non-decreasing in capacity, eviction pressure (evictions, dirty
// spills) falls as capacity grows, and the unbounded point spills
// nothing.
func TestCacheCapSweepShape(t *testing.T) {
	res, err := CacheCapSweep(Options{Scale: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Entries), len(cacheCapPoints); got != want {
		t.Fatalf("%d sweep points, want %d", got, want)
	}
	for i := 1; i < len(res.Entries); i++ {
		prev, cur := res.Entries[i-1], res.Entries[i]
		if cur.HitRate < prev.HitRate {
			t.Errorf("hit rate fell growing capacity %s -> %s: %.3f -> %.3f\n%s",
				prev.Fraction, cur.Fraction, prev.HitRate, cur.HitRate, res)
		}
		if cur.Evictions > prev.Evictions {
			t.Errorf("evictions rose growing capacity %s -> %s: %d -> %d\n%s",
				prev.Fraction, cur.Fraction, prev.Evictions, cur.Evictions, res)
		}
	}
	// Entries follow cacheCapPoints: smallest capacity first, "1" last.
	smallest, full := res.Entries[0], res.Entries[len(res.Entries)-1]
	if smallest.Evictions == 0 || smallest.DirtySpills == 0 {
		t.Fatalf("1/8 capacity drove no eviction pressure:\n%s", res)
	}
	if full.Capacity != 0 || full.Evictions != 0 || full.DirtySpills != 0 {
		t.Fatalf("unbounded point reports capacity pressure: %+v", full)
	}
}

// Fig 11a shape: caching helps both engines, and helps GraphX more (its
// boundary is JNI-expensive).
func TestFig11aShape(t *testing.T) {
	res, err := Fig11a(Options{Scale: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	gain := func(engineName string, d gen.Dataset) float64 {
		off, _ := res.Entry(engineName, d, false)
		on, _ := res.Entry(engineName, d, true)
		if on == 0 {
			t.Fatalf("%s/%s: zero time", engineName, d)
		}
		return off.Seconds() / on.Seconds()
	}
	gxGain := gain("GraphX", gen.Orkut)
	pgGain := gain("PowerGraph", gen.Orkut)
	if gxGain <= 1.05 {
		t.Fatalf("caching gain on GraphX only %.2fx", gxGain)
	}
	if pgGain <= 1.0 {
		t.Fatalf("caching hurt PowerGraph: %.2fx", pgGain)
	}
	if gxGain <= pgGain {
		t.Fatalf("caching gain not larger on GraphX: gx=%.2fx pg=%.2fx", gxGain, pgGain)
	}
}

// Fig 11b shape: clustered real stand-ins skip most synchronizations;
// the uniform synthetic graph skips few.
func TestFig11bShape(t *testing.T) {
	res, err := Fig11b(Options{Scale: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	frac := func(d gen.Dataset) float64 {
		for _, e := range res.Entries {
			if e.Dataset == d && e.Total > 0 {
				return float64(e.Skipped) / float64(e.Total)
			}
		}
		t.Fatalf("%s: missing entry", d)
		return 0
	}
	if f := frac(gen.WRN); f < 0.5 {
		t.Fatalf("WRN skip fraction %.2f, want >0.5", f)
	}
	if f := frac(gen.LiveJournal); f < 0.3 {
		t.Fatalf("LiveJournal skip fraction %.2f, want >0.3", f)
	}
	if fSyn, fWRN := frac(gen.Syn4m), frac(gen.WRN); fSyn >= fWRN {
		t.Fatalf("synthetic graph skips as much as the road network: %.2f vs %.2f", fSyn, fWRN)
	}
}

// Fig 12 shape: balanced beats not-balanced; optimal estimation is a
// lower bound near the balanced measurement.
func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation sweep; run without -short for the full shape check")
	}
	for name, fn := range map[string]func(Options) (*Fig12Result, error){
		"a": Fig12a, "b": Fig12b,
	} {
		res, err := fn(Options{Scale: 1000, Seed: 42})
		if err != nil {
			t.Fatalf("12%s: %v", name, err)
		}
		for _, e := range res.Entries {
			if e.Balanced >= e.NotBalanced {
				t.Fatalf("12%s/%s: balanced (%v) not faster than unbalanced (%v)",
					name, e.Algo, e.Balanced, e.NotBalanced)
			}
			if e.Optimal > e.Balanced {
				t.Fatalf("12%s/%s: optimal estimate (%v) above balanced measurement (%v)",
					name, e.Algo, e.Optimal, e.Balanced)
			}
			if e.Optimal < e.Balanced/4 {
				t.Fatalf("12%s/%s: optimal estimate (%v) implausibly far below balanced (%v)",
					name, e.Algo, e.Optimal, e.Balanced)
			}
		}
	}
}

// Fig 13 shape: raw calls cost far more than the persistent daemon.
func TestFig13Shape(t *testing.T) {
	res, err := Fig13(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	_, dComp, dTotal, ok := res.Entry("Daemon")
	if !ok {
		t.Fatal("missing daemon entry")
	}
	_, _, rTotal, ok := res.Entry("Raw call")
	if !ok {
		t.Fatal("missing raw-call entry")
	}
	if rTotal <= 2*dTotal {
		t.Fatalf("raw call (%v) not clearly above daemon (%v)", rTotal, dTotal)
	}
	if dComp <= 0 {
		t.Fatal("daemon comp time missing")
	}
}

// Fig 14 shape: the middleware ratio falls with the node count for both
// engines, and stays a minority share at 32 nodes.
func TestFig14Shape(t *testing.T) {
	res, err := Fig14(Options{Scale: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []string{"PowerGraph", "GraphX"} {
		for _, algo := range []string{"SSSP-BF", "PageRank"} {
			r4, _ := res.Entry(eng, algo, 4)
			r32, _ := res.Entry(eng, algo, 32)
			if r32 >= r4 {
				t.Fatalf("%s/%s: ratio did not fall: %.2f → %.2f", eng, algo, r4, r32)
			}
			if r32 > 0.6 {
				t.Fatalf("%s/%s: ratio %.2f at 32 nodes; middleware should be a minority", eng, algo, r32)
			}
		}
	}
}

// Fig 15 shape: the measured sweep is U-shaped (extremes worse than the
// neighbourhood of the estimated optimum).
func TestFig15Shape(t *testing.T) {
	res, err := Fig15(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"SSSP-BF", "PageRank", "LP"} {
		s, ok := res.SeriesFor(algo)
		if !ok || len(s.Points) == 0 {
			t.Fatalf("%s: missing series", algo)
		}
		var min, at1, atMax float64
		min = 1e18
		for _, p := range s.Points {
			v := p.Measured.Seconds()
			if v < min {
				min = v
			}
			if p.Blocks == 1 {
				at1 = v
			}
			if p.Blocks == 5000 {
				atMax = v
			}
		}
		if atMax < min*1.01 {
			t.Fatalf("%s: no right arm of the U: s=5000 %.4f vs min %.4f", algo, atMax, min)
		}
		if s.EstOpt < 1 {
			t.Fatalf("%s: estimated s_opt %d", algo, s.EstOpt)
		}
		_ = at1
	}
}

// Every result type renders without panicking and mentions its figure.
func TestStringOutputs(t *testing.T) {
	o := testOpts()
	t1, err := TableDatasets(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t1.String(), "Table I") {
		t.Fatal("table string missing title")
	}
	f13, err := Fig13(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f13.String(), "Fig 13") {
		t.Fatal("fig13 string missing title")
	}
}
