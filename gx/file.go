package gx

import (
	"fmt"
	"os"
	"strings"

	"gxplug/internal/gen/ingest"
)

// This file implements file references: alongside registered generator
// names, a scenario's Dataset field may point at a graph file on disk,
// and its batches.stream field at an edge-batch stream. One grammar
// covers both:
//
//	file:PATH           graph, format sniffed from the file (snapshot
//	                    magic → binary CSR snapshot, otherwise text
//	                    edge list)
//	file+snapshot:PATH  binary CSR snapshot (gxgen -export / -convert)
//	file+edgelist:PATH  SNAP-style edge list / weighted TSV
//	file+batches:PATH   edge-batch stream (binary `.gxb` from gxgen
//	                    -batches or a text delta list, sniffed; gzip
//	                    accepted)
//
// Files are read by internal/gen/ingest: edge lists get deterministic
// vertex relabeling, snapshots reproduce the saved graph bit for bit.
// The Scale and Seed fields do not apply to a file (the file is the
// graph) and are ignored. Validation checks the form, that the kind
// fits the field, and that the path names a regular file, so typos fail
// loudly at Validate time like unknown registry names do.
//
// Any form may append an expected content digest:
//
//	file+snapshot:PATH#sha256=HEX
//
// with HEX the 64-hex-digit SHA-256 of the file's bytes. Loads verify
// the digest before parsing and fail with a [DigestMismatchError] when
// the file's content is not the one the scenario pinned — a swapped or
// bitrotted file fails loudly instead of silently changing results.
//
// Every load goes through a [DatasetCache] (see loadFile in cache.go);
// nothing in this package reads a referenced file any other way.

// fileKind is the declared (or, for kindAuto, yet to be sniffed)
// encoding of a referenced file.
type fileKind string

const (
	kindAuto     fileKind = "auto"
	kindSnapshot fileKind = "snapshot"
	kindEdgeList fileKind = "edgelist"
	kindBatches  fileKind = "batches"
)

// fileRef is one parsed file reference.
type fileRef struct {
	kind fileKind
	path string
	// sha256 is the expected content digest (lowercase hex), "" when
	// the reference does not pin one.
	sha256 string
}

// DigestMismatchError reports a referenced file whose content does not
// match the digest its reference pinned.
type DigestMismatchError struct {
	Path string
	Want string // expected SHA-256, lowercase hex
	Got  string // actual SHA-256, lowercase hex
}

func (e *DigestMismatchError) Error() string {
	return fmt.Sprintf("gx: dataset file %s: content digest sha256:%s does not match pinned sha256:%s",
		e.Path, e.Got, e.Want)
}

// parseFileRef recognizes the file reference forms. ok reports whether
// name uses the file kind at all; err reports a malformed use of it
// (unknown kind tag, malformed pin, empty path).
func parseFileRef(name string) (ref fileRef, ok bool, err error) {
	switch {
	case strings.HasPrefix(name, "file:"):
		ref = fileRef{kind: kindAuto, path: name[len("file:"):]}
	case strings.HasPrefix(name, "file+"):
		tag, path, found := strings.Cut(name[len("file+"):], ":")
		if !found {
			return ref, true, fmt.Errorf("gx: file reference %q: want file+KIND:PATH", name)
		}
		switch fileKind(tag) {
		case kindSnapshot, kindEdgeList, kindBatches:
			ref = fileRef{kind: fileKind(tag), path: path}
		default:
			return ref, true, fmt.Errorf("gx: file reference %q: unknown file kind %q (want %q, %q or %q)",
				name, tag, kindSnapshot, kindEdgeList, kindBatches)
		}
	default:
		return ref, false, nil
	}
	if path, hex, found := strings.Cut(ref.path, "#sha256="); found {
		hex = strings.ToLower(hex)
		if !validSHA256Hex(hex) {
			return ref, true, fmt.Errorf("gx: file reference %q: malformed sha256 digest %q (want 64 hex digits)", name, hex)
		}
		ref.path, ref.sha256 = path, hex
	}
	if ref.path == "" {
		return ref, true, fmt.Errorf("gx: file reference %q: empty file path", name)
	}
	return ref, true, nil
}

// datasetRef parses name as a scenario's Dataset field: any file
// reference that names a graph. ok is false for a registered
// (generator) dataset name.
func datasetRef(name string) (ref fileRef, ok bool, err error) {
	ref, ok, err = parseFileRef(name)
	if err == nil && ref.kind == kindBatches {
		err = fmt.Errorf("gx: dataset %q: names a batch stream, not a graph", name)
	}
	return ref, ok, err
}

// streamRef parses name as a batches.stream field: a `file+batches:`
// reference and nothing else (streams have no registry to fall back on).
func streamRef(name string) (fileRef, error) {
	ref, _, err := parseFileRef(name)
	if err == nil && ref.kind != kindBatches {
		err = fmt.Errorf("gx: batch stream %q: want file+batches:PATH", name)
	}
	return ref, err
}

// validSHA256Hex reports whether s is a 64-digit lowercase hex string.
func validSHA256Hex(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// stat checks that the path names a regular file and returns its stat
// identity — what validation rejects typos with and what the cache
// memoizes the digest pass under.
func (r fileRef) stat() (os.FileInfo, error) {
	st, err := os.Stat(r.path)
	if err != nil {
		return nil, err
	}
	if !st.Mode().IsRegular() {
		return nil, fmt.Errorf("%s: not a regular file", r.path)
	}
	return st, nil
}

// resolve pins kindAuto down by sniffing the file's magic.
func (r fileRef) resolve() (fileRef, error) {
	if r.kind != kindAuto {
		return r, nil
	}
	snap, err := ingest.IsSnapshot(r.path)
	if err != nil {
		return r, err
	}
	if snap {
		r.kind = kindSnapshot
	} else {
		r.kind = kindEdgeList
	}
	return r, nil
}

// readGraph parses the file of a resolved graph reference.
func (r fileRef) readGraph() (*Graph, error) {
	if r.kind == kindSnapshot {
		return ingest.LoadSnapshotFile(r.path)
	}
	p, err := ingest.ParseEdgeListFile(r.path)
	if err != nil {
		return nil, err
	}
	return p.Graph, nil
}

// readBatches parses the file of a stream reference, sniffing binary
// `.gxb` versus text delta list.
func (r fileRef) readBatches() ([]EdgeBatch, error) {
	bin, err := ingest.IsBatchStream(r.path)
	if err != nil {
		return nil, err
	}
	if bin {
		return ingest.LoadBatchStreamFile(r.path)
	}
	return ingest.ParseBatchListFile(r.path)
}
