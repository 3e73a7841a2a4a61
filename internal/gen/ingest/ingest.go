// Package ingest loads real graph datasets into the reproduction: it
// parses SNAP-style edge lists (the format the paper's Twitter, road
// network and web-crawl datasets ship in) into the immutable CSR
// [graph.Graph], and it defines the versioned binary CSR snapshot
// format (snapshot.go) that makes reloading a graph an order of
// magnitude faster than regenerating or reparsing it.
//
// Real edge lists use arbitrary, often sparse vertex ids. ParseEdgeList
// therefore relabels vertices deterministically: distinct original ids
// are sorted ascending and mapped to the dense range [0, n). The same
// file always produces the same graph, and files that already use dense
// 0-based ids keep their numbering (sorting the ids of a dense range is
// the identity map). Edge order is preserved as written, which fixes the
// CSR tie order — in the out-CSR, the floating-point merge order engines
// see — the property the snapshot round-trip tests pin down.
package ingest

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"gxplug/internal/graph"
)

// maxVertices bounds the relabeled vertex count: ids are graph.VertexID
// (uint32), so a parse producing more distinct vertices cannot be
// represented.
const maxVertices = math.MaxUint32

// Parsed is the result of ParseEdgeList: the relabeled graph plus the
// mapping back to the file's original vertex ids.
type Parsed struct {
	// Graph is the relabeled CSR graph.
	Graph *graph.Graph
	// OrigID maps each dense vertex id v to the original id the file
	// used; it is sorted ascending (relabeling preserves id order).
	OrigID []int64
}

// rawEdge is one parsed line; a parse holds them in blocks of blockLen.
type rawEdge struct {
	src, dst int64
	w        float64
}

const blockLen = 4096

// ParseEdgeList reads a whitespace-separated edge list — "src dst
// [weight]" per line, '#' or '%' comment lines, blank lines ignored —
// covering both the SNAP plain format and weighted TSV exports.
// Unweighted edges load with weight 1. Vertex ids may be any
// non-negative int64; they are relabeled to [0, n) by ascending
// original id.
func ParseEdgeList(r io.Reader) (*Parsed, error) {
	sc := newLineScanner(r)
	var f [][]byte
	var raw [][]rawEdge // edge i is raw[i/blockLen][i%blockLen]: growing never copies
	n, maxID := 0, int64(-1)
	for line := 1; sc.Scan(); line++ {
		f = splitFields(f, sc.Bytes())
		if len(f) == 0 || f[0][0] == '#' || f[0][0] == '%' {
			continue
		}
		if len(f) < 2 {
			return nil, fmt.Errorf("ingest: line %d: want 'src dst [weight]', got %q", line, bytes.TrimSpace(sc.Bytes()))
		}
		src, err := parseInt(f[0])
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: bad src: %v", line, err)
		}
		dst, err := parseInt(f[1])
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: bad dst: %v", line, err)
		}
		if src < 0 || dst < 0 {
			return nil, fmt.Errorf("ingest: line %d: negative vertex id", line)
		}
		w := 1.0
		if len(f) >= 3 {
			w, err = strconv.ParseFloat(string(f[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("ingest: line %d: bad weight: %v", line, err)
			}
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("ingest: line %d: non-finite weight %v", line, w)
			}
		}
		if n%blockLen == 0 {
			raw = append(raw, make([]rawEdge, blockLen))
		}
		raw[n/blockLen][n%blockLen] = rawEdge{src, dst, w}
		n++
		maxID = max(maxID, src, dst)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ingest: scan: %w", err)
	}
	edges, orig := relabel(raw, n, maxID)
	if len(orig) > maxVertices {
		return nil, fmt.Errorf("ingest: %d distinct vertices exceed the 32-bit id space", len(orig))
	}
	g, err := graph.FromEdges(len(orig), edges)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return &Parsed{Graph: g, OrigID: orig}, nil
}

// relabel numbers the ids of n parsed edges 0, 1, … in ascending order
// and returns the edges in file order plus OrigID. Ids below a bound
// linear in n (so O(input) whatever id a file names) are numbered by a
// table indexed by id; sparser ones by sorting and binary search.
func relabel(raw [][]rawEdge, n int, maxID int64) ([]graph.Edge, []int64) {
	edges := make([]graph.Edge, n) //gxlint:unsized n counts the edges already parsed into raw
	if maxID < 2*int64(n)+1024 {
		table := make([]uint32, maxID+1)
		for i := range n {
			e := &raw[i/blockLen][i%blockLen]
			table[e.src], table[e.dst] = 1, 1
		}
		distinct := 0
		for _, seen := range table {
			distinct += int(seen)
		}
		orig := make([]int64, 0, distinct) //gxlint:unsized distinct counts marked entries of table
		for id, seen := range table {
			if seen != 0 {
				table[id] = uint32(len(orig))
				orig = append(orig, int64(id))
			}
		}
		for i := range n {
			e := &raw[i/blockLen][i%blockLen]
			edges[i] = graph.Edge{Src: graph.VertexID(table[e.src]), Dst: graph.VertexID(table[e.dst]), Weight: e.w}
		}
		return edges, orig
	}
	ids := make([]int64, 0, 2*n) //gxlint:unsized the endpoints of the edges already parsed into raw
	for i := range n {
		e := &raw[i/blockLen][i%blockLen]
		ids = append(ids, e.src, e.dst)
	}
	slices.Sort(ids)
	orig := slices.Clone(slices.Compact(ids))
	for i := range n {
		e := &raw[i/blockLen][i%blockLen]
		src, _ := slices.BinarySearch(orig, e.src)
		dst, _ := slices.BinarySearch(orig, e.dst)
		edges[i] = graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Weight: e.w}
	}
	return edges, orig
}

// ParseEdgeListFile is ParseEdgeList over a file. Gzip-compressed edge
// lists are detected by content (the two-byte gzip magic), not by file
// extension, and decompressed transparently — a `.el.gz` corpus parses
// to exactly the graph its uncompressed counterpart does.
func ParseEdgeListFile(path string) (*Parsed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	r, closeGz, err := maybeGzip(path, f)
	if err != nil {
		return nil, err
	}
	defer closeGz()
	p, err := ParseEdgeList(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// newLineScanner scans the lines, at most 1 MiB each, of a text input;
// its buffer starts at 64 KiB and grows only for a line that needs it.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return sc
}

// splitFields, the one tokenizer of the text readers, splits line at
// white space exactly as strings.Fields does, into subslices of line
// held in out's reused array, so an ASCII line costs no allocation. A
// line holding a byte ≥ 0x80 goes through strings.Fields itself: the
// only way to keep its Unicode white space (U+0085, U+00A0, …) bit for
// bit.
func splitFields(out [][]byte, line []byte) [][]byte {
	out, start := out[:0], -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			out = out[:0]
			for _, s := range strings.Fields(string(line)) {
				out = append(out, []byte(s))
			}
			return out
		case c == ' ' || c-'\t' <= '\r'-'\t':
			if start >= 0 {
				out, start = append(out, line[start:i]), -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		out = append(out, line[start:])
	}
	return out
}

// parseInt is strconv.ParseInt(string(b), 10, 64) and parseUint32 is
// strconv.ParseUint(string(b), 10, 32), with the plain decimals real
// files hold parsed inline — up to 18 and 9 digits, which cannot
// overflow either; anything else goes to strconv for its exact value
// and error text.
func parseInt(b []byte) (int64, error) {
	if v, ok := digits(b, 18); ok {
		return int64(v), nil
	}
	return strconv.ParseInt(string(b), 10, 64)
}

func parseUint32(b []byte) (uint64, error) {
	if v, ok := digits(b, 9); ok {
		return v, nil
	}
	return strconv.ParseUint(string(b), 10, 32)
}

// digits parses b as one to n decimal digits and nothing else.
func digits(b []byte, n int) (uint64, bool) {
	if len(b) == 0 || len(b) > n {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c -= '0'; c > 9 {
			return 0, false
		}
		v = v*10 + uint64(c)
	}
	return v, true
}
