package ingest

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"
	"math"
	"os"

	"gxplug/internal/graph"
	"gxplug/internal/le"
)

// The binary CSR snapshot format, version 1. Everything is
// little-endian. A snapshot stores the six raw CSR arrays verbatim, each
// written and read in bounded chunks through le.Put and le.Get, so
// loading reconstructs the saved graph bit for bit — including both
// CSRs' tie order.
//
//	header (28 bytes):
//	  [ 0: 6] magic "GXSNAP"
//	  [ 6: 8] version    uint16 (= 1)
//	  [ 8:16] vertices   uint64
//	  [16:24] edges      uint64
//	  [24:28] header CRC32-Castagnoli over bytes [0:24]
//	payload:
//	  outOff  (vertices+1) × int64
//	  outDst  edges × uint32
//	  outW    edges × float64
//	  inOff   (vertices+1) × int64
//	  inSrc   edges × uint32
//	  inW     edges × float64
//	footer (4 bytes):
//	  payload CRC32-Castagnoli
//
// Decoding is hardened the same way the shared-memory codec is:
// truncated input, corrupt headers, version or magic mismatches,
// checksum failures, oversized counts and structurally inconsistent
// CSR arrays all return errors — never panic — and a header lying
// about its counts cannot force a large allocation, because the counts
// are held to the input's byte size before anything is allocated.
const (
	snapshotMagic   = "GXSNAP"
	snapshotVersion = 1
	headerLen       = 28

	// maxSnapshotEdges is the largest edge count whose snapshot size —
	// plus a v2 section count — still fits an int64.
	maxSnapshotEdges = (math.MaxInt64 - headerLen - 2*8*(maxVertices+1) - 4 - 4) / (2 * (4 + 8))

	// chunkBytes bounds each encode and decode step's scratch buffer.
	chunkBytes = 1 << 20
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	ecma       = crc64.MakeTable(crc64.ECMA)
)

func crc32Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// SnapshotSize returns the exact encoded size in bytes of a snapshot
// holding numV vertices and numE edges.
func SnapshotSize(numV int, numE int64) int64 {
	return headerLen + 2*8*int64(numV+1) + 2*(4+8)*numE + 4
}

// snapshotWriter bundles the buffered writer, running payload checksum
// and bounded scratch buffer both snapshot versions encode through.
type snapshotWriter struct {
	w       *bufio.Writer
	crc     *crc32Hash
	tee     io.Writer
	scratch []byte
}

// crc32Hash narrows hash.Hash32 to what the writer needs.
type crc32Hash struct {
	sum uint32
}

func (h *crc32Hash) Write(p []byte) (int, error) {
	h.sum = crc32.Update(h.sum, castagnoli, p)
	return len(p), nil
}

func newSnapshotWriter(w io.Writer) *snapshotWriter {
	bw := bufio.NewWriterSize(w, chunkBytes)
	crc := &crc32Hash{}
	return &snapshotWriter{
		w:       bw,
		crc:     crc,
		tee:     io.MultiWriter(bw, crc),
		scratch: make([]byte, chunkBytes),
	}
}

func (sw *snapshotWriter) finish() error {
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], sw.crc.sum)
	if _, err := sw.w.Write(foot[:]); err != nil {
		return fmt.Errorf("ingest: snapshot footer: %w", err)
	}
	return sw.w.Flush()
}

// writeCSR streams the six CSR arrays — the shared payload prefix of
// both snapshot versions — through w.
func writeCSR(w io.Writer, g *graph.Graph, scratch []byte) error {
	outOff, outDst, outW, inOff, inSrc, inW := g.CSR()
	var err error
	writeArray(w, "outOff", outOff, scratch, &err)
	writeArray(w, "outDst", outDst, scratch, &err)
	writeArray(w, "outW", outW, scratch, &err)
	writeArray(w, "inOff", inOff, scratch, &err)
	writeArray(w, "inSrc", inSrc, scratch, &err)
	writeArray(w, "inW", inW, scratch, &err)
	return err
}

// Save writes g as a version-1 binary CSR snapshot. The write is
// single-pass and streaming: sections flow through the checksum as they
// are encoded, so no payload-sized buffer is built. The v1 encoding is
// frozen: the same graph always produces the same bytes.
func Save(w io.Writer, g *graph.Graph) error {
	return saveSnapshot(w, g, snapshotVersion, nil)
}

// saveSnapshot writes the header and CSR arrays both versions share,
// then — for version 2 only — the section table, then the footer.
func saveSnapshot(w io.Writer, g *graph.Graph, version uint16, secs []Section) error {
	var hdr [headerLen]byte
	copy(hdr[0:6], snapshotMagic)
	binary.LittleEndian.PutUint16(hdr[6:8], version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.NumEdges()))
	binary.LittleEndian.PutUint32(hdr[24:28], crc32Checksum(hdr[0:24]))

	bw := newSnapshotWriter(w)
	if _, err := bw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("ingest: snapshot header: %w", err)
	}
	if err := writeCSR(bw.tee, g, bw.scratch); err != nil {
		return err
	}
	if version == snapshotVersion2 {
		if err := writeSections(bw.tee, secs); err != nil {
			return err
		}
	}
	return bw.finish()
}

// SaveFile writes g as a snapshot file.
func SaveFile(path string, g *graph.Graph) error {
	return saveFileWith(path, func(w io.Writer) error { return Save(w, g) })
}

// saveFileWith writes path through path+".tmp", renamed over path only
// once save has succeeded: a failed save leaves no file behind and an
// existing file intact.
func saveFileWith(path string, save func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	err = save(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("ingest: %w", cerr)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// decodeSnapshot decodes one snapshot of either version from the size
// bytes of r. It validates the magic, version, header checksum and
// counts, then holds the counts to size before allocating anything: a
// v1 snapshot is exactly SnapshotSize bytes, a v2 one at least that plus
// its section count. Each CSR array is then allocated once, at its
// length, and filled in bounded chunks; the payload checksum and every
// CSR structural invariant are checked last. Version-1 snapshots decode
// with a nil section list.
func decodeSnapshot(r io.Reader, size int64) (*graph.Graph, []Section, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("ingest: snapshot header: %w", noEOF(err))
	}
	if string(hdr[0:6]) != snapshotMagic {
		return nil, nil, fmt.Errorf("ingest: bad snapshot magic %q", hdr[0:6])
	}
	version := binary.LittleEndian.Uint16(hdr[6:8])
	if version != snapshotVersion && version != snapshotVersion2 {
		return nil, nil, fmt.Errorf("ingest: snapshot version %d (supported: %d, %d)",
			version, snapshotVersion, snapshotVersion2)
	}
	if got, want := crc32Checksum(hdr[0:24]), binary.LittleEndian.Uint32(hdr[24:28]); got != want {
		return nil, nil, fmt.Errorf("ingest: snapshot header checksum %08x, recorded %08x", got, want)
	}
	numV64 := binary.LittleEndian.Uint64(hdr[8:16])
	numE64 := binary.LittleEndian.Uint64(hdr[16:24])
	if numV64 > maxVertices {
		return nil, nil, fmt.Errorf("ingest: snapshot vertex count %d exceeds the 32-bit id space", numV64)
	}
	if numE64 > maxSnapshotEdges {
		return nil, nil, fmt.Errorf("ingest: snapshot edge count %d overflows", numE64)
	}
	numV := int(numV64)
	numE := int64(numE64)
	want := SnapshotSize(numV, numE)
	if version == snapshotVersion && size != want {
		return nil, nil, fmt.Errorf("ingest: snapshot is %d bytes, header implies %d", size, want)
	}
	if version == snapshotVersion2 && size < want+4 {
		return nil, nil, fmt.Errorf("ingest: snapshot is %d bytes, header implies at least %d: %w",
			size, want+4, io.ErrUnexpectedEOF)
	}

	crc := crc32.New(castagnoli)
	pr := io.TeeReader(r, crc)
	scratch := make([]byte, min(size, chunkBytes))

	var err error
	outOff := readArray[int64](pr, "outOff", int64(numV)+1, scratch, &err)
	outDst := readArray[graph.VertexID](pr, "outDst", numE, scratch, &err)
	outW := readArray[float64](pr, "outW", numE, scratch, &err)
	inOff := readArray[int64](pr, "inOff", int64(numV)+1, scratch, &err)
	inSrc := readArray[graph.VertexID](pr, "inSrc", numE, scratch, &err)
	inW := readArray[float64](pr, "inW", numE, scratch, &err)
	if err != nil {
		return nil, nil, err
	}

	var secs []Section
	if version == snapshotVersion2 {
		// The sections own every byte between the CSR arrays and the footer.
		if secs, err = readSections(pr, size-want); err != nil {
			return nil, nil, err
		}
	}

	var foot [4]byte
	if _, err := io.ReadFull(r, foot[:]); err != nil {
		return nil, nil, fmt.Errorf("ingest: snapshot footer: %w", noEOF(err))
	}
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(foot[:]); got != want {
		return nil, nil, fmt.Errorf("ingest: snapshot payload checksum %08x, recorded %08x", got, want)
	}

	g, err := graph.FromCSR(numV, outOff, outDst, outW, inOff, inSrc, inW)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: snapshot: %w", err)
	}
	return g, secs, nil
}

// LoadSnapshotFile loads a snapshot file of either version and returns
// the graph it holds; version-2 sections are validated and discarded.
func LoadSnapshotFile(path string) (*graph.Graph, error) {
	g, _, err := LoadSnapshotV2File(path)
	return g, err
}

// LoadSnapshotV2File loads a snapshot file with its sections, held to
// the file's size (decodeSnapshot). Version-1 files load with a nil
// section list.
func LoadSnapshotV2File(path string) (*graph.Graph, []Section, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: %s: %w", path, err)
	}
	g, secs, err := decodeSnapshot(f, st.Size())
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, secs, nil
}

// IsSnapshot reports whether the file at path starts with the snapshot
// magic — the sniff `file:` dataset loading uses to pick a format.
func IsSnapshot(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	var magic [len(snapshotMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return false, nil // shorter than the magic: not a snapshot
		}
		return false, fmt.Errorf("ingest: %s: %w", path, err)
	}
	return string(magic[:]) == snapshotMagic, nil
}

// FileDigests computes the CRC64-ECMA cache key and the SHA-256 content
// digest (lowercase hex) of a file in a single read. Dataset refs pin
// expected content with the SHA-256; the CRC keys the in-process cache.
func FileDigests(path string) (uint64, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	crc := crc64.New(ecma)
	sha := sha256.New()
	if _, err := io.Copy(io.MultiWriter(crc, sha), f); err != nil {
		return 0, "", fmt.Errorf("ingest: %s: %w", path, err)
	}
	return crc.Sum64(), hex.EncodeToString(sha.Sum(nil)), nil
}

// noEOF converts io.EOF into io.ErrUnexpectedEOF: every caller here has
// already committed to reading a complete section, so a clean EOF still
// means the snapshot is truncated.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// writeArray writes the array called name little-endian through
// scratch, one chunk at a time, unless *err already holds an error; a
// failed write leaves its error, naming the array, in *err.
func writeArray[T le.Value](w io.Writer, name string, vals []T, scratch []byte, err *error) {
	size := le.Size[T]()
	per := len(scratch) / size
	for *err == nil && len(vals) > 0 {
		n := min(len(vals), per)
		le.Put(scratch, vals[:n])
		if _, werr := w.Write(scratch[:n*size]); werr != nil {
			*err = fmt.Errorf("ingest: snapshot %s: %w", name, werr)
		}
		vals = vals[n:]
	}
}

// readArray reads the array called name, count little-endian values,
// through scratch, one chunk at a time, into a slice allocated once at
// count, unless *err already holds an error; a failed read leaves its
// error, naming the array, in *err.
func readArray[T le.Value](r io.Reader, name string, count int64, scratch []byte, err *error) []T {
	if *err != nil {
		return nil
	}
	//gxlint:unsized decodeSnapshot holds every count to the input's byte size (SnapshotSize) before reading any array
	out := make([]T, count)
	size := int64(le.Size[T]())
	per := int64(len(scratch)) / size
	for read := int64(0); read < count; {
		n := min(count-read, per)
		if _, rerr := io.ReadFull(r, scratch[:n*size]); rerr != nil {
			*err = fmt.Errorf("ingest: snapshot %s: %w", name, noEOF(rerr))
			return nil
		}
		le.Get(out[read:read+n], scratch)
		read += n
	}
	return out
}
