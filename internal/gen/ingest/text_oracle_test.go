package ingest

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gxplug/internal/gen"
	"gxplug/internal/graph"
)

// This file keeps the text readers as they were before they shared the
// byte-level tokenizer — a string and a []string per line, a map per
// endpoint, an edge slice grown by append — verbatim (identifiers
// suffixed) as the oracles the differential fuzz targets hold
// ParseEdgeList and ParseBatchList to: the same graph, OrigID and
// batches, and the same error text, on every input.

// parseEdgeListOracle is ParseEdgeList before the byte-level scanner.
func parseEdgeListOracle(r io.Reader) (*Parsed, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	type rawEdge struct {
		src, dst int64
		w        float64
	}
	var raw []rawEdge
	ids := make(map[int64]struct{})
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("ingest: line %d: want 'src dst [weight]', got %q", line, text)
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: bad src: %v", line, err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: bad dst: %v", line, err)
		}
		if src < 0 || dst < 0 {
			return nil, fmt.Errorf("ingest: line %d: negative vertex id", line)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("ingest: line %d: bad weight: %v", line, err)
			}
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("ingest: line %d: non-finite weight %v", line, w)
			}
		}
		raw = append(raw, rawEdge{src: src, dst: dst, w: w})
		ids[src] = struct{}{}
		ids[dst] = struct{}{}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ingest: scan: %w", err)
	}
	if len(ids) > maxVertices {
		return nil, fmt.Errorf("ingest: %d distinct vertices exceed the 32-bit id space", len(ids))
	}

	orig := make([]int64, 0, len(ids))
	for id := range ids {
		orig = append(orig, id)
	}
	sort.Slice(orig, func(a, b int) bool { return orig[a] < orig[b] })
	dense := make(map[int64]graph.VertexID, len(orig))
	for i, id := range orig {
		dense[id] = graph.VertexID(i)
	}

	edges := make([]graph.Edge, len(raw))
	for i, e := range raw {
		edges[i] = graph.Edge{Src: dense[e.src], Dst: dense[e.dst], Weight: e.w}
	}
	g, err := graph.FromEdges(len(orig), edges)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return &Parsed{Graph: g, OrigID: orig}, nil
}

// parseBatchListOracle is ParseBatchList before the shared tokenizer.
func parseBatchListOracle(r io.Reader) ([]graph.EdgeBatch, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var batches []graph.EdgeBatch
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 4 {
			return nil, fmt.Errorf("ingest: line %d: want 'TIME +|- src dst [w]', got %q", line, text)
		}
		ts, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: bad timestamp: %v", line, err)
		}
		op := fields[1]
		if op != "+" && op != "-" {
			return nil, fmt.Errorf("ingest: line %d: op %q (want + or -)", line, op)
		}
		src, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: bad src: %v", line, err)
		}
		dst, err := strconv.ParseUint(fields[3], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: bad dst: %v", line, err)
		}
		w := 1.0
		if len(fields) >= 5 {
			if op == "-" {
				return nil, fmt.Errorf("ingest: line %d: removes take no weight", line)
			}
			if w, err = strconv.ParseFloat(fields[4], 64); err != nil {
				return nil, fmt.Errorf("ingest: line %d: bad weight: %v", line, err)
			}
		}
		switch {
		case len(batches) == 0 || ts > batches[len(batches)-1].Time:
			batches = append(batches, graph.EdgeBatch{Time: ts})
		case ts < batches[len(batches)-1].Time:
			return nil, fmt.Errorf("ingest: line %d: timestamp %d before batch time %d",
				line, ts, batches[len(batches)-1].Time)
		}
		b := &batches[len(batches)-1]
		e := graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Weight: w}
		if op == "+" {
			b.Adds = append(b.Adds, e)
		} else {
			b.Removes = append(b.Removes, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ingest: scan: %w", err)
	}
	return batches, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzEdgeListMatchesOracle: on any input ParseEdgeList returns what
// the parent parser did — the same error text, or the same CSR and
// OrigID. The seeds cover where the two could part: Unicode and ASCII
// control white space, CRLF, signs and leading zeros, 19-digit and
// out-of-range ids, ids at and past 2³² (the wide path), the dense
// table's bound on either side, comments, invalid UTF-8 and bad
// weights.
func FuzzEdgeListMatchesOracle(f *testing.F) {
	for _, s := range []string{
		"# comment\n0 1\n1 2\n",
		"0\u00a01\n1\u00a0\u00a02 3.5\u00a0\n",
		"\u00850 1\n0 1\u0085\n",
		"\u00a0#not data\n\u00a0%nor this\n1 0\n",
		"\v0\f1\v\n\f\n",
		"0 1\r\n1 2 2.5\r\n\r\n",
		"+5 3\n",
		"-0 1\n",
		"007 0008 1.5\n",
		"1000000000000000000 1\n",
		"9223372036854775807 0\n",
		"9223372036854775808 0\n",
		"4294967295 4294967296\n0 1\n4294967296 7\n",
		"0 1025\n",
		"0 1026\n",
		"42\n",
		"0 1 NaN\n",
		"0 1 1e999\n",
		"0 1 -0\n1 0 5e-324\n",
		"0 1 2 extra fields\n",
		"0\xff1 2\n",
		"# caf\u00e9\n%\n\n   \n3 4\n",
		"x 1\n",
		"1 -2\n",
	} {
		f.Add(s)
	}
	f.Fuzz(matchesEdgeListOracle)
}

func matchesEdgeListOracle(t *testing.T, input string) {
	got, err := ParseEdgeList(strings.NewReader(input))
	want, wantErr := parseEdgeListOracle(strings.NewReader(input))
	if errText(err) != errText(wantErr) {
		t.Fatalf("error %q, oracle %q", errText(err), errText(wantErr))
	}
	if err != nil {
		return
	}
	if !csrEqual(got.Graph, want.Graph) || !slices.Equal(got.OrigID, want.OrigID) {
		t.Fatalf("graph or OrigID differs from the oracle's (OrigID %v, oracle %v)", got.OrigID, want.OrigID)
	}
}

// The scanner's buffer starts small and grows; the longest line it
// accepts and the first it rejects are still the parent's (too large
// to seed the fuzz target with: it would crawl).
func TestEdgeListLongLinesMatchOracle(t *testing.T) {
	const maxLine = 1 << 20 // the longest line either parser scans
	for _, input := range []string{
		strings.Repeat(" ", 70000) + "0 1\n",
		"0 " + strings.Repeat("0", maxLine-3) + "\n",
		"0 " + strings.Repeat("0", maxLine-2) + "\n",
		"0 " + strings.Repeat("0", maxLine-2),
	} {
		matchesEdgeListOracle(t, input)
	}
}

// FuzzBatchListMatchesOracle: on any input ParseBatchList returns what
// the parent parser did — the same error text, or the same batches.
func FuzzBatchListMatchesOracle(f *testing.F) {
	for _, s := range []string{
		"# deltas\n10 + 0 1\n10 + 2 3 0.5\n10 - 4 5\n20 - 0 1\n35 + 7 8 2\n",
		"10 + 0 1 NaN\n",
		"10 + 4294967295 0\n",
		"10 + 4294967296 0\n",
		"10 + +5 0\n",
		"+10 + 1 2\n-3 - 1 2\n",
		"10 ++ 1 2\n",
		"10\u00a0+\u00a01\u00a02\n",
		"% 10 + 1 2\n",
		"10 - 0 1 2\n",
		"10 + 0 1\n5 + 1 2\n",
		"0123456789 + 0000000001 2\n",
		"10 + 1\n",
		"10 + 1 2\r\n\v\n",
		"7 + 1\xff 2\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		got, err := ParseBatchList(strings.NewReader(input))
		want, wantErr := parseBatchListOracle(strings.NewReader(input))
		if errText(err) != errText(wantErr) {
			t.Fatalf("error %q, oracle %q", errText(err), errText(wantErr))
		}
		if err == nil && !batchesEqual(got, want) {
			t.Fatalf("batches %v, oracle %v", got, want)
		}
	})
}

// TestWriteParseRoundTrip: a graph written by graph.WriteEdgeList
// parses back to the same CSR, bit for bit (its ids are dense and its
// edges in source order, so relabeling and the in-CSR tie order are
// the identity).
func TestWriteParseRoundTrip(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 2, Weight: 2}, {Src: 1, Dst: 3, Weight: 3},
		{Src: 2, Dst: 3, Weight: 4}, {Src: 3, Dst: 0, Weight: 5},
	})
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	p, err := ParseEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !csrEqual(g, p.Graph) {
		t.Fatal("write/parse round trip changed the graph")
	}
}

// totalAlloc returns the bytes fn allocates on the heap.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A parse allocates at most three times the graph it returns, plus a
// constant for the line buffer: the edge blocks and the edge list
// (16 B/edge each), the relabel table and the CSR itself — no per-line
// strings, no id maps, no slice grown by append.
func TestParseEdgeListAllocatesThreeTimesTheGraph(t *testing.T) {
	for _, d := range []gen.Dataset{gen.WRN, gen.Orkut} {
		g, err := gen.Load(d, 500, 42)
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := graph.WriteEdgeList(&text, g); err != nil {
			t.Fatal(err)
		}
		var p *Parsed
		n := totalAlloc(func() { p, err = ParseEdgeList(bytes.NewReader(text.Bytes())) })
		if err != nil {
			t.Fatal(err)
		}
		csr := uint64(16*(p.Graph.NumVertices()+1)) + uint64(24*p.Graph.NumEdges())
		if limit := 3*csr + 2<<20; n > limit {
			t.Errorf("%s: parsing allocated %d bytes, want ≤ %d (3× its %d-byte CSR + 2 MiB)", d, n, limit, csr)
		}
		t.Logf("%s: %.1f MB for a %.1f MB CSR", d, float64(n)/1e6, float64(csr)/1e6)
	}
}

// A line costs no allocation: parsing 100 weighted lines and parsing a
// block's worth of them (blockLen) allocate the same number of objects.
func TestParseEdgeListAllocsFlatInLines(t *testing.T) {
	allocs := func(lines int) float64 {
		var text bytes.Buffer
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&text, "%d\t%d\t%g\n", i, (i*7)%lines, 1+float64(i%13)/8)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := ParseEdgeList(bytes.NewReader(text.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(blockLen); small != large {
		t.Fatalf("%v allocations for 100 lines, %v for %d", small, large, blockLen)
	}
}

// An id cannot size an allocation: a two-line file naming ids 0 and
// 2⁶³−1 is a two-vertex graph and costs well under a MiB.
func TestParseEdgeListFarIDs(t *testing.T) {
	const input = "0 9223372036854775807\n9223372036854775807 0\n"
	var p *Parsed
	var err error
	n := totalAlloc(func() { p, err = ParseEdgeList(strings.NewReader(input)) })
	if err != nil {
		t.Fatal(err)
	}
	if p.Graph.NumVertices() != 2 || !slices.Equal(p.OrigID, []int64{0, math.MaxInt64}) {
		t.Fatalf("V = %d, OrigID %v", p.Graph.NumVertices(), p.OrigID)
	}
	if n >= 1<<20 {
		t.Fatalf("parsing two lines allocated %d bytes", n)
	}
}
