package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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
	back, _, err := decodeSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
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
	back, _, err := decodeSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != 0 || back.NumEdges() != 0 {
		t.Fatalf("empty graph came back %dV/%dE", back.NumVertices(), back.NumEdges())
	}
}

// corruptions maps a name to a mutation of a valid snapshot that must
// make decodeSnapshot error (never panic, never succeed).
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
		if _, _, err := decodeSnapshot(bytes.NewReader(data), int64(len(data))); err == nil {
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

	// Version 2 is held to its size too: sections end exactly at the footer.
	if err := SaveV2File(path, g, testSections(g)); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path); err == nil {
		t.Fatal("padded v2 snapshot file accepted")
	}
	if err := os.WriteFile(path, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path); err == nil {
		t.Fatal("truncated v2 snapshot file accepted")
	}
}

// TestDecodeLyingCountsAllocatesLittle: a header edge count or a
// section length claiming far more than the input holds is rejected
// before anything of the claimed size is allocated — in memory and
// from a file alike.
func TestDecodeLyingCountsAllocatesLittle(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 0, Weight: 1},
	})
	var v1, v2 bytes.Buffer
	if err := Save(&v1, g); err != nil {
		t.Fatal(err)
	}
	lyingEdges := v1.Bytes()
	binary.LittleEndian.PutUint64(lyingEdges[16:24], 1<<34)
	binary.LittleEndian.PutUint32(lyingEdges[24:28], crc32Checksum(lyingEdges[0:24]))

	if err := SaveV2(&v2, g, []Section{{Kind: SectionIteration, Data: EncodeUint64(7)}}); err != nil {
		t.Fatal(err)
	}
	lyingSection := v2.Bytes()
	secOff := int(SnapshotSize(g.NumVertices(), g.NumEdges())) - 4
	binary.LittleEndian.PutUint64(lyingSection[secOff+8:], 1<<40)

	dir := t.TempDir()
	for name, data := range map[string][]byte{"v1-lying-edges": lyingEdges, "v2-lying-section": lyingSection} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loads := map[string]func() error{
			"decodeSnapshot": func() error {
				_, _, err := decodeSnapshot(bytes.NewReader(data), int64(len(data)))
				return err
			},
			"LoadSnapshotFile": func() error {
				_, err := LoadSnapshotFile(path)
				return err
			},
			"LoadSnapshotV2File": func() error {
				_, _, err := LoadSnapshotV2File(path)
				return err
			},
		}
		for how, load := range loads {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := load()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s via %s: accepted", name, how)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
				t.Errorf("%s via %s: allocated %d bytes for a %d-byte input", name, how, grew, len(data))
			}
		}
	}
}

// TestFailedSaveLeavesNoFile: a save the encoder rejects leaves neither
// the target nor its temporary file behind, and a file already at the
// target keeps its bytes.
func TestFailedSaveLeavesNoFile(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	saves := map[string]func(path string) error{
		"SaveV2File": func(path string) error {
			return SaveV2File(path, g, []Section{{Kind: 99}})
		},
		"SaveBatchStreamFile": func(path string) error {
			return SaveBatchStreamFile(path, []graph.EdgeBatch{{Time: 2}, {Time: 1}})
		},
	}
	for name, save := range saves {
		path := filepath.Join(t.TempDir(), "out")
		if err := save(path); err == nil {
			t.Fatalf("%s: invalid input saved", name)
		}
		for _, p := range []string{path, path + ".tmp"} {
			if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("%s: %s left behind (stat: %v)", name, filepath.Base(p), err)
			}
		}

		old := []byte("previous contents")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := save(path); err == nil {
			t.Fatalf("%s: invalid input saved over an existing file", name)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
			t.Errorf("%s: failed save changed the existing file (%q, %v)", name, got, err)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: out.tmp left behind over an existing file (stat: %v)", name, err)
		}
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
	if _, _, err := decodeSnapshot(bytes.NewReader(bad), int64(len(bad))); err == nil {
		t.Fatal("inconsistent CSR accepted")
	}

	good := enc([]int64{0, 1, 1}, []uint32{1}, []float64{1},
		[]int64{0, 0, 1}, []uint32{0}, []float64{1})
	if _, _, err := decodeSnapshot(bytes.NewReader(good), int64(len(good))); err != nil {
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
