package ingest

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"gxplug/internal/graph"
)

// FuzzSnapshotDecodeNoPanic drives decodeSnapshot — the decoder
// LoadSnapshotFile runs — with arbitrary bytes: hostile input must
// error, never panic, and never force allocations proportional to what
// a lying header claims. When an input does decode,
// re-encoding the graph and decoding again must reproduce it — decoded
// snapshots are stable fixed points.
func FuzzSnapshotDecodeNoPanic(f *testing.F) {
	g := testGraph(f)
	var valid bytes.Buffer
	if err := Save(&valid, g); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, data := range corruptions(valid.Bytes()) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, err := decodeSnapshot(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Save(&buf, g); err != nil {
			t.Fatalf("re-encoding a decoded snapshot failed: %v", err)
		}
		back, _, err := decodeSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if !csrEqual(g, back) {
			t.Fatal("decode → encode → decode not a fixed point")
		}
	})
}

// FuzzEdgeListParse drives the text parser with arbitrary input: it
// must error or produce a structurally sound graph, never panic. On
// success, writing the graph back out as an edge list and re-parsing
// must reproduce the out-CSR exactly (the in-CSR tie order legitimately
// differs when the input was not source-sorted).
func FuzzEdgeListParse(f *testing.F) {
	f.Add("# comment\n0 1\n1 2\n")
	f.Add("100\t7\t2.5\n7\t100\t0.25\n")
	f.Add("% matrix-market-style comment\n5 5\n")
	f.Add("0 1 1e999\n")
	f.Add("-3 4\n")
	f.Add("a b c\n")
	f.Add("9999999999999999999 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		p, err := ParseEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if len(p.OrigID) != p.Graph.NumVertices() {
			t.Fatalf("%d original ids for %d vertices", len(p.OrigID), p.Graph.NumVertices())
		}
		for i := 1; i < len(p.OrigID); i++ {
			if p.OrigID[i-1] >= p.OrigID[i] {
				t.Fatal("original ids not strictly ascending")
			}
		}
		var out bytes.Buffer
		if err := graph.WriteEdgeList(&out, p.Graph); err != nil {
			t.Fatal(err)
		}
		back, err := ParseEdgeList(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing a written edge list failed: %v", err)
		}
		ao, ad, aw, _, _, _ := p.Graph.CSR()
		bo, bd, bw, _, _, _ := back.Graph.CSR()
		if p.Graph.NumVertices() != back.Graph.NumVertices() ||
			!reflect.DeepEqual(ao, bo) || !reflect.DeepEqual(ad, bd) || !floatsBitEqual(aw, bw) {
			t.Fatal("edge-list round trip changed the out-CSR")
		}
	})
}

// FuzzSnapshotV2DecodeNoPanic drives the section-aware decoder with
// arbitrary bytes: hostile input — truncated or corrupt section tables,
// duplicated kinds, cross-version headers — must error, never panic.
// Inputs that do decode must re-encode and decode to the same graph and
// sections, and every typed section codec must handle the decoded
// payloads without panicking.
func FuzzSnapshotV2DecodeNoPanic(f *testing.F) {
	g := testGraph(f)
	var v1 bytes.Buffer
	if err := Save(&v1, g); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	var v2 bytes.Buffer
	if err := SaveV2(&v2, g, testSections(g)); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	var empty bytes.Buffer
	if err := SaveV2(&empty, g, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	for _, data := range corruptions(v2.Bytes()) {
		f.Add(data)
	}
	for _, data := range corruptionsV2(g, v2.Bytes()) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, secs, err := decodeSnapshot(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		for _, sec := range secs {
			// Typed payload codecs must tolerate whatever structurally
			// valid sections carry.
			switch sec.Kind {
			case SectionVertexAttrs:
				_, _, _ = DecodeVertexAttrs(sec.Data)
			case SectionIteration:
				_, _ = DecodeUint64(sec.Data)
			case SectionActive:
				_, _ = DecodeBools(sec.Data)
			case SectionClocks, SectionEngineState:
				_, _ = DecodeInt64s(sec.Data)
			default:
				t.Fatalf("decoded a section of unknown kind %v", sec.Kind)
			}
		}
		var buf bytes.Buffer
		if err := SaveV2(&buf, g, secs); err != nil {
			t.Fatalf("re-encoding a decoded v2 snapshot failed: %v", err)
		}
		back, backSecs, err := decodeSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if !csrEqual(g, back) || !sectionsEqual(secs, backSecs) {
			t.Fatal("decode → encode → decode not a fixed point")
		}
	})
}
