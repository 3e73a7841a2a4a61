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
)

// The binary CSR snapshot format, version 1. Everything is
// little-endian. A snapshot stores the six raw CSR arrays verbatim, so
// loading reconstructs the saved graph bit for bit — including the
// in-CSR tie order that floating-point merge results depend on.
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
// about its counts cannot force a large allocation, because payload
// buffers grow only as fast as bytes actually arrive (bounded chunks).
const (
	snapshotMagic   = "GXSNAP"
	snapshotVersion = 1
	headerLen       = 28

	// chunkBytes bounds each read/decode step, so allocation tracks the
	// data that really arrives instead of what the header claims.
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
	for _, sec := range []struct {
		name  string
		write func() error
	}{
		{"outOff", func() error { return writeInt64s(w, outOff, scratch) }},
		{"outDst", func() error { return writeVertexIDs(w, outDst, scratch) }},
		{"outW", func() error { return writeFloat64s(w, outW, scratch) }},
		{"inOff", func() error { return writeInt64s(w, inOff, scratch) }},
		{"inSrc", func() error { return writeVertexIDs(w, inSrc, scratch) }},
		{"inW", func() error { return writeFloat64s(w, inW, scratch) }},
	} {
		if err := sec.write(); err != nil {
			return fmt.Errorf("ingest: snapshot %s: %w", sec.name, err)
		}
	}
	return nil
}

// Save writes g as a version-1 binary CSR snapshot. The write is
// single-pass and streaming: sections flow through the checksum as they
// are encoded, so no payload-sized buffer is built. The v1 encoding is
// frozen: the same graph always produces the same bytes.
func Save(w io.Writer, g *graph.Graph) error {
	var hdr [headerLen]byte
	copy(hdr[0:6], snapshotMagic)
	binary.LittleEndian.PutUint16(hdr[6:8], snapshotVersion)
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
	return bw.finish()
}

// SaveFile writes g as a snapshot file.
func SaveFile(path string, g *graph.Graph) error {
	return saveFileWith(path, func(w io.Writer) error { return Save(w, g) })
}

func saveFileWith(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if err := save(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ingest: %s: %w", path, err)
	}
	return nil
}

// LoadSnapshot decodes one snapshot from r and returns the graph it
// holds. It validates the magic, version, header checksum, counts,
// payload checksum and every CSR structural invariant; any trailing
// bytes after the footer are an error. Version-2 payload sections are
// validated and discarded — use LoadSnapshotV2 to keep them.
func LoadSnapshot(r io.Reader) (*graph.Graph, error) {
	g, _, err := loadSnapshot(r, false)
	return g, err
}

// loadSnapshot decodes one snapshot of either version. With sized=true
// the caller has verified (from the container's size) that the header's
// counts match the bytes that exist — only possible for v1, whose size
// is a pure function of the counts — so section buffers are allocated
// exactly once; otherwise they grow only as data actually arrives,
// keeping a lying header from forcing a large allocation.
func loadSnapshot(r io.Reader, sized bool) (*graph.Graph, []Section, error) {
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
	if numE64 > math.MaxInt64/(2*(4+8)) {
		return nil, nil, fmt.Errorf("ingest: snapshot edge count %d overflows", numE64)
	}
	numV := int(numV64)
	numE := int64(numE64)
	if version != snapshotVersion {
		sized = false
	}

	crc := crc32.New(castagnoli)
	pr := io.TeeReader(r, crc)
	scratch := make([]byte, chunkBytes)

	outOff, err := readInt64s(pr, int64(numV)+1, scratch, sized)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: snapshot outOff: %w", err)
	}
	outDst, err := readVertexIDs(pr, numE, scratch, sized)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: snapshot outDst: %w", err)
	}
	outW, err := readFloat64s(pr, numE, scratch, sized)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: snapshot outW: %w", err)
	}
	inOff, err := readInt64s(pr, int64(numV)+1, scratch, sized)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: snapshot inOff: %w", err)
	}
	inSrc, err := readVertexIDs(pr, numE, scratch, sized)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: snapshot inSrc: %w", err)
	}
	inW, err := readFloat64s(pr, numE, scratch, sized)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: snapshot inW: %w", err)
	}

	var secs []Section
	if version == snapshotVersion2 {
		secs, err = readSections(pr, scratch)
		if err != nil {
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
	if n, _ := r.Read(scratch[:1]); n != 0 {
		return nil, nil, fmt.Errorf("ingest: trailing bytes after snapshot footer")
	}

	g, err := graph.FromCSR(numV, outOff, outDst, outW, inOff, inSrc, inW)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: snapshot: %w", err)
	}
	return g, secs, nil
}

// LoadSnapshotFile loads a snapshot file. For version-1 files it first
// checks that the file size matches exactly what the header's counts
// imply — a cheap guard that rejects truncated or padded files before
// any payload is read; version-2 files carry variable-length sections,
// so their integrity rests on the checksums alone.
func LoadSnapshotFile(path string) (*graph.Graph, error) {
	g, _, err := loadSnapshotFile(path)
	return g, err
}

func loadSnapshotFile(path string) (*graph.Graph, []Section, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: %s: %w", path, err)
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("ingest: %s: snapshot header: %w", path, noEOF(err))
	}
	// sized records that the file's size provably matches the header's
	// counts, which lets the decoder allocate each section exactly once.
	sized := false
	if string(hdr[0:6]) == snapshotMagic && binary.LittleEndian.Uint16(hdr[6:8]) == snapshotVersion {
		numV64 := binary.LittleEndian.Uint64(hdr[8:16])
		numE64 := binary.LittleEndian.Uint64(hdr[16:24])
		if numV64 <= maxVertices && numE64 <= math.MaxInt64/(2*(4+8)) {
			if want := SnapshotSize(int(numV64), int64(numE64)); st.Size() != want {
				return nil, nil, fmt.Errorf("ingest: %s: snapshot is %d bytes, header implies %d",
					path, st.Size(), want)
			}
			sized = true
		}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, fmt.Errorf("ingest: %s: %w", path, err)
	}
	g, secs, err := loadSnapshot(bufio.NewReaderSize(f, chunkBytes), sized)
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

// The section encoders/decoders below move data through a bounded
// scratch buffer, so neither side ever allocates proportionally to what
// a header merely claims.

func writeInt64s(w io.Writer, vals []int64, scratch []byte) error {
	per := len(scratch) / 8
	for len(vals) > 0 {
		n := min(len(vals), per)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(scratch[i*8:], uint64(vals[i]))
		}
		if _, err := w.Write(scratch[:n*8]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func writeVertexIDs(w io.Writer, vals []graph.VertexID, scratch []byte) error {
	per := len(scratch) / 4
	for len(vals) > 0 {
		n := min(len(vals), per)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(scratch[i*4:], uint32(vals[i]))
		}
		if _, err := w.Write(scratch[:n*4]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func writeFloat64s(w io.Writer, vals []float64, scratch []byte) error {
	per := len(scratch) / 8
	for len(vals) > 0 {
		n := min(len(vals), per)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(scratch[i*8:], math.Float64bits(vals[i]))
		}
		if _, err := w.Write(scratch[:n*8]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func readInt64s(r io.Reader, count int64, scratch []byte, sized bool) ([]int64, error) {
	per := int64(len(scratch) / 8)
	out := makeSection[int64](count, per, sized)
	for read := int64(0); read < count; {
		n := min(count-read, per)
		buf := scratch[:n*8]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, noEOF(err)
		}
		if sized {
			for i := int64(0); i < n; i++ {
				out[read+i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
			}
		} else {
			for i := int64(0); i < n; i++ {
				out = append(out, int64(binary.LittleEndian.Uint64(buf[i*8:])))
			}
		}
		read += n
	}
	return out, nil
}

func readVertexIDs(r io.Reader, count int64, scratch []byte, sized bool) ([]graph.VertexID, error) {
	per := int64(len(scratch) / 4)
	out := makeSection[graph.VertexID](count, per, sized)
	for read := int64(0); read < count; {
		n := min(count-read, per)
		buf := scratch[:n*4]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, noEOF(err)
		}
		if sized {
			for i := int64(0); i < n; i++ {
				out[read+i] = graph.VertexID(binary.LittleEndian.Uint32(buf[i*4:]))
			}
		} else {
			for i := int64(0); i < n; i++ {
				out = append(out, graph.VertexID(binary.LittleEndian.Uint32(buf[i*4:])))
			}
		}
		read += n
	}
	return out, nil
}

func readFloat64s(r io.Reader, count int64, scratch []byte, sized bool) ([]float64, error) {
	per := int64(len(scratch) / 8)
	out := makeSection[float64](count, per, sized)
	for read := int64(0); read < count; {
		n := min(count-read, per)
		buf := scratch[:n*8]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, noEOF(err)
		}
		if sized {
			for i := int64(0); i < n; i++ {
				out[read+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
			}
		} else {
			for i := int64(0); i < n; i++ {
				out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:])))
			}
		}
		read += n
	}
	return out, nil
}

// makeSection sizes a section buffer: exactly when the byte count is
// already verified against the container, one chunk's worth otherwise.
func makeSection[T int64 | float64 | graph.VertexID](count, per int64, sized bool) []T {
	if sized {
		//gxlint:unsized sized is only set after the container's byte size was checked against SnapshotSize of the header's counts (loadSnapshotFile)
		return make([]T, count)
	}
	return make([]T, 0, min(count, per))
}
