package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gxplug/internal/graph"
)

// testSections builds one section of every known kind, shaped the way
// the engine checkpoint uses them.
func testSections(g *graph.Graph) []Section {
	numV := g.NumVertices()
	attrs := make([]float64, numV)
	active := make([]bool, numV)
	for i := range attrs {
		attrs[i] = float64(i) * 0.5
		active[i] = i%3 == 0
	}
	return []Section{
		{Kind: SectionVertexAttrs, Data: EncodeVertexAttrs(1, attrs)},
		{Kind: SectionIteration, Data: EncodeUint64(7)},
		{Kind: SectionActive, Data: EncodeBools(active)},
		{Kind: SectionClocks, Data: EncodeInt64s([]int64{100, 60, 40, 200, 120, 80})},
		{Kind: SectionEngineState, Data: EncodeInt64s([]int64{3, 9, 1, 0})},
	}
}

func sectionsEqual(a, b []Section) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

func TestSnapshotV2RoundTrip(t *testing.T) {
	g := testGraph(t)
	secs := testSections(g)
	var buf bytes.Buffer
	if err := SaveV2(&buf, g, secs); err != nil {
		t.Fatal(err)
	}
	back, gotSecs, err := decodeSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !csrEqual(g, back) {
		t.Fatal("v2 round trip changed the CSR arrays")
	}
	if !sectionsEqual(secs, gotSecs) {
		t.Fatal("v2 round trip changed the sections")
	}
}

func TestSnapshotV2FileRoundTrip(t *testing.T) {
	g := testGraph(t)
	secs := testSections(g)
	path := filepath.Join(t.TempDir(), "ck.gxsnap")
	if err := SaveV2File(path, g, secs); err != nil {
		t.Fatal(err)
	}
	back, gotSecs, err := LoadSnapshotV2File(path)
	if err != nil {
		t.Fatal(err)
	}
	if !csrEqual(g, back) || !sectionsEqual(secs, gotSecs) {
		t.Fatal("v2 file round trip not faithful")
	}
	if ok, err := IsSnapshot(path); err != nil || !ok {
		t.Fatalf("IsSnapshot = %v, %v", ok, err)
	}
	if plain, err := LoadSnapshotFile(path); err != nil {
		t.Fatalf("LoadSnapshotFile on v2: %v", err)
	} else if !csrEqual(g, plain) {
		t.Fatal("LoadSnapshotFile on v2 changed the CSR arrays")
	}
}

func TestSnapshotV2ZeroSections(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := SaveV2(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	back, secs, err := decodeSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !csrEqual(g, back) || len(secs) != 0 {
		t.Fatal("sectionless v2 round trip not faithful")
	}
}

// A version-1 file decodes through the v2 API with a nil section list —
// and the v1 encoding itself is frozen byte for byte.
func TestSnapshotV1ThroughV2API(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, secs, err := decodeSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !csrEqual(g, back) {
		t.Fatal("v1 through v2 API changed the CSR arrays")
	}
	if secs != nil {
		t.Fatalf("v1 snapshot produced %d sections", len(secs))
	}
}

// TestSaveV1GoldenBytes pins the version-1 encoding byte for byte
// against a hand-assembled file: refactors of the writer must not move
// a single bit of existing snapshots.
func TestSaveV1GoldenBytes(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	var got bytes.Buffer
	if err := Save(&got, g); err != nil {
		t.Fatal(err)
	}

	le := binary.LittleEndian
	var payload bytes.Buffer
	var b8 [8]byte
	var b4 [4]byte
	writeU64 := func(v uint64) { le.PutUint64(b8[:], v); payload.Write(b8[:]) }
	writeU32 := func(v uint32) { le.PutUint32(b4[:], v); payload.Write(b4[:]) }
	for _, v := range []int64{0, 1, 1} { // outOff
		writeU64(uint64(v))
	}
	writeU32(1)                          // outDst
	writeU64(math.Float64bits(1))        // outW
	for _, v := range []int64{0, 0, 1} { // inOff
		writeU64(uint64(v))
	}
	writeU32(0)                   // inSrc
	writeU64(math.Float64bits(1)) // inW

	var want bytes.Buffer
	var hdr [headerLen]byte
	copy(hdr[0:6], snapshotMagic)
	le.PutUint16(hdr[6:8], snapshotVersion)
	le.PutUint64(hdr[8:16], 2)
	le.PutUint64(hdr[16:24], 1)
	le.PutUint32(hdr[24:28], crc32Checksum(hdr[0:24]))
	want.Write(hdr[:])
	want.Write(payload.Bytes())
	le.PutUint32(b4[:], crc32Checksum(payload.Bytes()))
	want.Write(b4[:])

	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Save no longer produces the frozen v1 byte layout")
	}
}

func TestSaveV2RejectsBadSectionLists(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	var buf bytes.Buffer
	if err := SaveV2(&buf, g, []Section{{Kind: 99, Data: nil}}); err == nil {
		t.Error("unknown section kind accepted")
	}
	dup := []Section{
		{Kind: SectionIteration, Data: EncodeUint64(1)},
		{Kind: SectionIteration, Data: EncodeUint64(2)},
	}
	if err := SaveV2(&buf, g, dup); err == nil {
		t.Error("duplicate section kind accepted")
	}
	many := make([]Section, maxSections+1)
	for i := range many {
		many[i] = Section{Kind: SectionIteration}
	}
	if err := SaveV2(&buf, g, many); err == nil {
		t.Error("oversized section list accepted")
	}
}

// corruptionsV2 maps a name to a mutation of a valid v2 snapshot that
// decodeSnapshot must reject.
func corruptionsV2(g *graph.Graph, valid []byte) map[string][]byte {
	// The section count sits where the v1 footer would: right after the
	// CSR payload.
	secOff := int(SnapshotSize(g.NumVertices(), g.NumEdges())) - 4
	le := binary.LittleEndian

	countTooBig := bytes.Clone(valid)
	le.PutUint32(countTooBig[secOff:], maxSections+1)

	unknownKind := bytes.Clone(valid)
	le.PutUint32(unknownKind[secOff+4:], 99)

	// Kind 2 is unassigned. The footer is fixed up, so the kind is the
	// only thing wrong.
	unassignedKind := bytes.Clone(valid)
	le.PutUint32(unassignedKind[secOff+4:], 2)
	le.PutUint32(unassignedKind[len(valid)-4:], crc32.Checksum(unassignedKind[headerLen:len(valid)-4], castagnoli))

	dupKind := bytes.Clone(valid)
	firstLen := le.Uint64(valid[secOff+8 : secOff+16])
	second := secOff + 4 + 12 + int(firstLen)
	copy(dupKind[second:second+4], valid[secOff+4:secOff+8])

	lyingLen := bytes.Clone(valid)
	le.PutUint64(lyingLen[secOff+8:], 1<<40)

	overflowLen := bytes.Clone(valid)
	le.PutUint64(overflowLen[secOff+8:], math.MaxUint64)

	return map[string][]byte{
		"count-too-big":     countTooBig,
		"unknown-kind":      unknownKind,
		"unassigned-kind":   unassignedKind,
		"dup-kind":          dupKind,
		"lying-length":      lyingLen,
		"overflow-length":   overflowLen,
		"truncated-table":   bytes.Clone(valid[:secOff+2]),
		"truncated-section": bytes.Clone(valid[:secOff+20]),
		"section-bitrot":    flipByte(valid, secOff+14),
		"trailing-junk":     append(bytes.Clone(valid), 0),
		"missing-footer":    bytes.Clone(valid[:len(valid)-4]),
	}
}

func flipByte(valid []byte, i int) []byte {
	b := bytes.Clone(valid)
	b[i] ^= 0xff
	return b
}

func TestLoadSnapshotV2RejectsCorruption(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := SaveV2(&buf, g, testSections(g)); err != nil {
		t.Fatal(err)
	}
	for name, data := range corruptionsV2(g, buf.Bytes()) {
		if _, _, err := decodeSnapshot(bytes.NewReader(data), int64(len(data))); err == nil {
			t.Errorf("%s: corrupted v2 snapshot accepted", name)
		}
	}
	// The v1 corruption battery applies unchanged to v2 containers.
	for name, data := range corruptions(buf.Bytes()) {
		if name == "bad-version" || name == "lying-edges" {
			continue // exercised above with v2-aware offsets
		}
		if _, _, err := decodeSnapshot(bytes.NewReader(data), int64(len(data))); err == nil {
			t.Errorf("v1 battery %s: corrupted v2 snapshot accepted", name)
		}
	}
}

// TestUnassignedKindRejected: kind 2 names no section, so the writer
// refuses it and a file carrying it fails to decode as an unknown kind.
func TestUnassignedKindRejected(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := SaveV2(&buf, g, []Section{{Kind: 2, Data: make([]byte, 8)}}); err == nil {
		t.Error("section kind 2 written")
	}
	buf.Reset()
	if err := SaveV2(&buf, g, testSections(g)); err != nil {
		t.Fatal(err)
	}
	data := corruptionsV2(g, buf.Bytes())["unassigned-kind"]
	if _, _, err := decodeSnapshot(bytes.NewReader(data), int64(len(data))); err == nil || !strings.Contains(err.Error(), "unknown kind 2") {
		t.Fatalf("section kind 2 decoded: %v", err)
	}
}

func TestSectionCodecRoundTrips(t *testing.T) {
	i64 := []int64{0, -7, math.MaxInt64, math.MinInt64}
	if got, err := DecodeInt64s(EncodeInt64s(i64)); err != nil || !reflect.DeepEqual(got, i64) {
		t.Errorf("int64 round trip: %v %v", got, err)
	}
	if got, err := DecodeUint64(EncodeUint64(42)); err != nil || got != 42 {
		t.Errorf("uint64 round trip: %v %v", got, err)
	}
	bo := []bool{true, false, true}
	if got, err := DecodeBools(EncodeBools(bo)); err != nil || !reflect.DeepEqual(got, bo) {
		t.Errorf("bool round trip: %v %v", got, err)
	}
	w, attrs, err := DecodeVertexAttrs(EncodeVertexAttrs(2, []float64{1, 2, 3, 4}))
	if err != nil || w != 2 || !floatsBitEqual(attrs, []float64{1, 2, 3, 4}) {
		t.Errorf("vertex-attrs round trip: %d %v %v", w, attrs, err)
	}
}

func TestSectionCodecsRejectMalformed(t *testing.T) {
	if _, err := DecodeFloat64s(make([]byte, 9)); err == nil {
		t.Error("ragged float64 section accepted")
	}
	if _, err := DecodeInt64s(make([]byte, 7)); err == nil {
		t.Error("ragged int64 section accepted")
	}
	if _, err := DecodeUint64(make([]byte, 4)); err == nil {
		t.Error("short uint64 section accepted")
	}
	if _, err := DecodeBools([]byte{0, 1, 2}); err == nil {
		t.Error("non-boolean byte accepted")
	}
	if _, _, err := DecodeVertexAttrs([]byte{1, 2}); err == nil {
		t.Error("short vertex-attrs section accepted")
	}
	if _, _, err := DecodeVertexAttrs(EncodeVertexAttrs(0, nil)); err == nil {
		t.Error("zero attr width accepted")
	}
	if _, _, err := DecodeVertexAttrs(EncodeVertexAttrs(3, []float64{1, 2, 3, 4})); err == nil {
		t.Error("width not dividing the value count accepted")
	}
}

func TestFileDigestsMatchesSingleDigests(t *testing.T) {
	content := []byte("0 1\n1 0\n")
	path := filepath.Join(t.TempDir(), "g.el")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	crc, sha, err := FileDigests(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := crc64.Checksum(content, ecma); crc != want {
		t.Errorf("FileDigests crc %x, want %x", crc, want)
	}
	sum := sha256.Sum256(content)
	if want := hex.EncodeToString(sum[:]); sha != want {
		t.Errorf("FileDigests sha %q, want %q", sha, want)
	}
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus for
// FuzzSnapshotV2DecodeNoPanic from a tiny graph (so the seeds stay a
// few hundred bytes). Guarded: normal runs don't touch testdata. Run
//
//	REGEN_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/gen/ingest
//
// after changing the v2 layout or the corruption batteries.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite the testdata/fuzz seeds")
	}
	g := graph.MustFromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 0.5},
		{Src: 2, Dst: 3, Weight: 2},
		{Src: 3, Dst: 0, Weight: 1},
	})
	var v1, v2, empty bytes.Buffer
	if err := Save(&v1, g); err != nil {
		t.Fatal(err)
	}
	if err := SaveV2(&v2, g, testSections(g)); err != nil {
		t.Fatal(err)
	}
	if err := SaveV2(&empty, g, nil); err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{
		"seed-v1":          v1.Bytes(),
		"seed-v2-sections": v2.Bytes(),
		"seed-v2-empty":    empty.Bytes(),
	}
	for name, data := range corruptions(v2.Bytes()) {
		seeds["seed-"+name] = data
	}
	for name, data := range corruptionsV2(g, v2.Bytes()) {
		seeds["seed-v2-"+name] = data
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotV2DecodeNoPanic")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
