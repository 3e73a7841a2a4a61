package ingest

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gxplug/internal/gen"
	"gxplug/internal/graph"
)

// testGraph generates a small community R-MAT whose unsorted edge
// appends give the in-CSR a non-trivial tie order — the part of the
// round-trip a naive edge-list re-encode would lose.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Load(gen.Orkut, 20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func csrEqual(a, b *graph.Graph) bool {
	ao1, ao2, ao3, ao4, ao5, ao6 := a.CSR()
	bo1, bo2, bo3, bo4, bo5, bo6 := b.CSR()
	return a.NumVertices() == b.NumVertices() &&
		reflect.DeepEqual(ao1, bo1) && reflect.DeepEqual(ao2, bo2) &&
		floatsBitEqual(ao3, bo3) && reflect.DeepEqual(ao4, bo4) &&
		reflect.DeepEqual(ao5, bo5) && floatsBitEqual(ao6, bo6)
}

func floatsBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(buf.Len()), SnapshotSize(g.NumVertices(), g.NumEdges()); got != want {
		t.Fatalf("encoded %d bytes, SnapshotSize says %d", got, want)
	}
	back, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !csrEqual(g, back) {
		t.Fatal("snapshot round trip changed the CSR arrays")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.gxsnap")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !csrEqual(g, back) {
		t.Fatal("snapshot file round trip changed the CSR arrays")
	}
	if ok, err := IsSnapshot(path); err != nil || !ok {
		t.Fatalf("IsSnapshot = %v, %v", ok, err)
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	g := graph.MustFromEdges(0, nil)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != 0 || back.NumEdges() != 0 {
		t.Fatalf("empty graph came back %dV/%dE", back.NumVertices(), back.NumEdges())
	}
}

// corruptions maps a name to a mutation of a valid snapshot that must
// make LoadSnapshot error (never panic, never succeed).
func corruptions(valid []byte) map[string][]byte {
	flip := func(i int) []byte {
		b := bytes.Clone(valid)
		b[i] ^= 0xff
		return b
	}
	truncated := bytes.Clone(valid[:len(valid)/2])
	short := bytes.Clone(valid[:headerLen-3])
	trailing := append(bytes.Clone(valid), 0)

	// A header that lies about the edge count (huge) with a fixed-up
	// header CRC: must fail at EOF without allocating what it claims.
	lyingE := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(lyingE[16:24], 1<<40)
	binary.LittleEndian.PutUint32(lyingE[24:28], crc32.Checksum(lyingE[0:24], castagnoli))

	// Overflowing counts rejected outright.
	hugeV := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(hugeV[8:16], math.MaxUint64)
	binary.LittleEndian.PutUint32(hugeV[24:28], crc32.Checksum(hugeV[0:24], castagnoli))
	hugeE := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(hugeE[16:24], math.MaxUint64)
	binary.LittleEndian.PutUint32(hugeE[24:28], crc32.Checksum(hugeE[0:24], castagnoli))

	wrongVersion := bytes.Clone(valid)
	binary.LittleEndian.PutUint16(wrongVersion[6:8], 99)
	binary.LittleEndian.PutUint32(wrongVersion[24:28], crc32.Checksum(wrongVersion[0:24], castagnoli))

	return map[string][]byte{
		"empty":          {},
		"bad-magic":      flip(0),
		"bad-version":    wrongVersion,
		"bad-header-crc": flip(24),
		"bad-count":      flip(8), // header CRC catches the edit
		"lying-edges":    lyingE,
		"huge-vertices":  hugeV,
		"huge-edges":     hugeE,
		"payload-bitrot": flip(headerLen + 3),
		"bad-footer":     flip(len(valid) - 1),
		"truncated":      truncated,
		"header-only":    bytes.Clone(valid[:headerLen]),
		"short-header":   short,
		"trailing-junk":  trailing,
	}
}

func TestLoadSnapshotRejectsCorruption(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	for name, data := range corruptions(buf.Bytes()) {
		if _, err := LoadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupted snapshot accepted", name)
		}
	}
}

func TestLoadSnapshotFileRejectsSizeMismatch(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.gxsnap")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path); err == nil {
		t.Fatal("padded snapshot file accepted")
	}
	if err := os.WriteFile(path, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path); err == nil {
		t.Fatal("truncated snapshot file accepted")
	}
}

// TestLoadSnapshotRejectsInconsistentCSR hand-builds a snapshot whose
// sections are individually well-formed but disagree between
// orientations; FromCSR's cross-checks must reject it.
func TestLoadSnapshotRejectsInconsistentCSR(t *testing.T) {
	// 2 vertices, 1 edge 0→1 out, but the in-CSR claims the edge enters
	// vertex 0 instead (src 0, inOff giving vertex 0 the in-edge).
	enc := func(outOff []int64, outDst []uint32, outW []float64, inOff []int64, inSrc []uint32, inW []float64) []byte {
		var payload bytes.Buffer
		le := binary.LittleEndian
		var b8 [8]byte
		for _, v := range outOff {
			le.PutUint64(b8[:], uint64(v))
			payload.Write(b8[:])
		}
		var b4 [4]byte
		for _, v := range outDst {
			le.PutUint32(b4[:], v)
			payload.Write(b4[:])
		}
		for _, v := range outW {
			le.PutUint64(b8[:], math.Float64bits(v))
			payload.Write(b8[:])
		}
		for _, v := range inOff {
			le.PutUint64(b8[:], uint64(v))
			payload.Write(b8[:])
		}
		for _, v := range inSrc {
			le.PutUint32(b4[:], v)
			payload.Write(b4[:])
		}
		for _, v := range inW {
			le.PutUint64(b8[:], math.Float64bits(v))
			payload.Write(b8[:])
		}
		var out bytes.Buffer
		var hdr [headerLen]byte
		copy(hdr[0:6], snapshotMagic)
		le.PutUint16(hdr[6:8], snapshotVersion)
		le.PutUint64(hdr[8:16], 2)
		le.PutUint64(hdr[16:24], 1)
		le.PutUint32(hdr[24:28], crc32.Checksum(hdr[0:24], castagnoli))
		out.Write(hdr[:])
		out.Write(payload.Bytes())
		le.PutUint32(b4[:], crc32.Checksum(payload.Bytes(), castagnoli))
		out.Write(b4[:])
		return out.Bytes()
	}

	bad := enc([]int64{0, 1, 1}, []uint32{1}, []float64{1},
		[]int64{0, 1, 1}, []uint32{0}, []float64{1}) // in-edge parked on vertex 0
	if _, err := LoadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Fatal("inconsistent CSR accepted")
	}

	good := enc([]int64{0, 1, 1}, []uint32{1}, []float64{1},
		[]int64{0, 0, 1}, []uint32{0}, []float64{1})
	if _, err := LoadSnapshot(bytes.NewReader(good)); err != nil {
		t.Fatalf("consistent hand-built snapshot rejected: %v", err)
	}
}

func TestFileDigestTracksContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.el")
	if err := os.WriteFile(path, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	crc1, sha1, err := FileDigests(path)
	if err != nil {
		t.Fatal(err)
	}
	crc2, sha2, err := FileDigests(path)
	if err != nil {
		t.Fatal(err)
	}
	if crc1 != crc2 || sha1 != sha2 {
		t.Fatal("digests unstable for unchanged file")
	}
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	crc3, sha3, err := FileDigests(path)
	if err != nil {
		t.Fatal(err)
	}
	if crc3 == crc1 || sha3 == sha1 {
		t.Fatal("digests did not change with content")
	}
}

func TestIsSnapshotOnEdgeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.el")
	if err := os.WriteFile(path, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := IsSnapshot(path); err != nil || ok {
		t.Fatalf("IsSnapshot(edge list) = %v, %v", ok, err)
	}
	tiny := filepath.Join(t.TempDir(), "tiny")
	if err := os.WriteFile(tiny, []byte("GX"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := IsSnapshot(tiny); err != nil || ok {
		t.Fatalf("IsSnapshot(tiny) = %v, %v", ok, err)
	}
}
