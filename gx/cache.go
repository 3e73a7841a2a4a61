package gx

import (
	"fmt"

	"gxplug/internal/engine"
	"gxplug/internal/gen/ingest"
	"gxplug/internal/memo"
)

// DatasetCache memoizes the expensive, reusable inputs of a run: graphs
// by (dataset, scale, seed), referenced files by content, partitionings
// by (graph, engine, nodes), and batch-stream boundaries. All are
// immutable once built — graphs are CSR, batch streams are read-only
// slices, partitionings are read-only assignments — so one cache can
// back any number of concurrent runs; every method is safe for
// concurrent use and loads are single-flight (concurrent requests for
// one missing key build once and share the result).
//
// RunSuite creates one per call by default; passing a cache explicitly
// with [WithCache] extends the reuse across suites — a service executing
// many suites over the same catalog loads each dataset once for its
// whole lifetime. Entries are retained until [DatasetCache.Purge]. A
// solo [Run] or [LoadDataset] loads through a private, single-use cache:
// there is one load path, cached or not. (A solo Run's cache keeps no
// stream boundaries, which only a later run could read.)
//
// Referenced files — `file:` datasets and `file+batches:` streams alike
// — are keyed by (path, content digest, kind): every concurrent entry
// naming one file shares a single digest pass and a single parse, while
// a file rewritten between suites sharing one cache is re-digested and
// becomes a distinct entry. The digest pass itself is memoized by the
// file's stat identity (path, size, mtime) — cheap to check per request,
// recomputed when the file visibly changes.
//
// For each stream run over a base graph and partitioning, with an
// engine and a node count, the cache holds every batch boundary the
// stream's runs reached: the graph version with the batch applied, its
// engine-default partitioning (in the partitioning table, like any
// other), and — once an incremental run has read the boundary — that
// partitioning's merge signature and the dirty seed against the boundary
// before. A stream of K batches thus retains K graph versions,
// partitionings and signatures; every later run of it, in either mode
// and for any algorithm, builds none of them again.
type DatasetCache struct {
	graphs  *memo.Table[graphKey, loaded[*Graph]]
	digests *memo.Table[statKey, loaded[fileDigest]]
	files   *memo.Table[fileKey, loaded[*Graph]]
	streams *memo.Table[fileKey, loaded[[]EdgeBatch]]
	parts   *memo.Table[partKey, *Partitioning]
	bounds  *memo.Table[boundaryKey, loaded[*engine.Boundary]]
}

type graphKey struct {
	dataset     string
	scale, seed int64
}

// partKey identifies a partitioning by graph instance, engine and node
// count. Graph pointer identity is deliberate: two structurally equal
// graphs loaded separately occupy separate entries, which costs nothing
// because the graph tables already hold one instance per dataset, and
// keeps the lookup O(1) without hashing topology.
type partKey struct {
	g      *Graph
	engine string
	nodes  int
}

// fileKey identifies one parsed file by path, content digest and
// resolved kind. The kind is part of the key because two references can
// address one file differently — `file:g.el` (sniffed) and
// `file+snapshot:g.el` (declared) — and the declared-wrong form must
// fail on its own instead of sharing a slot with the correct one.
type fileKey struct {
	path   string
	digest uint64
	kind   fileKind
}

// boundaryKey identifies batch boundary k ≥ 1 of a stream run from a
// base graph and partitioning, with an engine and a node count. Like
// partKey it holds the base by pointer identity, so a run under a
// [WithPartitioning] override never reads boundaries built under the
// engine default.
type boundaryKey struct {
	g      *Graph
	part   *Partitioning
	stream streamID
	engine string
	nodes  int
	k      int
}

// streamID is a batch stream's content identity: the file key of a
// `file+batches:` stream, the digest of an inline one.
type streamID struct {
	file   fileKey
	inline string
}

// statKey is the cheap identity the digest pass is memoized under.
type statKey struct {
	path       string
	size       int64
	mtimeNanos int64
}

type fileDigest struct {
	crc    uint64
	sha256 string
}

// loaded is a memoized build outcome.
type loaded[V any] struct {
	v   V
	err error
}

// CacheStats snapshots a DatasetCache's activity.
type CacheStats struct {
	// GraphHits counts Graph calls answered from the cache; GraphLoads
	// counts dataset loads — the number of distinct (dataset, scale,
	// seed) triples plus distinct (file path, digest) pairs ever
	// requested.
	GraphHits, GraphLoads int64
	// PartitionHits and PartitionBuilds are the same split for
	// partitionings, keyed by (graph, engine, nodes) — a stream's graph
	// versions included.
	PartitionHits, PartitionBuilds int64
	// BoundaryHits and BoundaryBuilds are the same split for batch
	// boundaries, keyed by (stream, base graph and partitioning, engine,
	// nodes, boundary). Building boundary k reads boundary k−1, which
	// counts as a hit.
	BoundaryHits, BoundaryBuilds int64
}

// NewDatasetCache returns an empty dataset/partition cache.
func NewDatasetCache() *DatasetCache {
	return &DatasetCache{
		graphs:  memo.NewTable[graphKey, loaded[*Graph]](0),
		digests: memo.NewTable[statKey, loaded[fileDigest]](0),
		files:   memo.NewTable[fileKey, loaded[*Graph]](0),
		streams: memo.NewTable[fileKey, loaded[[]EdgeBatch]](0),
		parts:   memo.NewTable[partKey, *Partitioning](0),
		bounds:  memo.NewTable[boundaryKey, loaded[*engine.Boundary]](0),
	}
}

// Graph returns the memoized graph for a registered dataset at (scale,
// seed) — or, for a `file:` dataset, for the file's current content —
// loading it on first request. Generator errors are memoized (loads are
// deterministic, so retrying cannot succeed); file errors are shared
// with concurrent waiters of the same attempt but retried on later
// requests, since file I/O can fail transiently.
func (c *DatasetCache) Graph(dataset string, scale, seed int64) (*Graph, error) {
	if ref, ok, err := datasetRef(dataset); ok {
		if err != nil {
			return nil, err
		}
		g, _, err := loadFile(c, c.files, dataset, ref, fileRef.readGraph)
		return g, err
	}
	r := c.graphs.Get(graphKey{dataset: dataset, scale: scale, seed: seed}, func() loaded[*Graph] {
		g, err := LoadDataset(dataset, scale, seed)
		return loaded[*Graph]{v: g, err: err}
	})
	return r.v, r.err
}

// BatchStream returns the memoized parsed batches of a `file+batches:`
// stream reference for the file's current content, loading it on first
// request — the same by-content path file-backed graphs load through.
// Callers must not mutate the returned batches.
func (c *DatasetCache) BatchStream(name string) ([]EdgeBatch, error) {
	batches, _, err := c.batchStream(name)
	return batches, err
}

// batchStream is BatchStream also returning the stream's identity.
func (c *DatasetCache) batchStream(name string) ([]EdgeBatch, streamID, error) {
	ref, err := streamRef(name)
	if err != nil {
		return nil, streamID{}, err
	}
	batches, fk, err := loadFile(c, c.streams, name, ref, fileRef.readBatches)
	return batches, streamID{file: fk}, err
}

// loadFile is the one load path of every referenced file: digest the
// content, resolve the kind, verify the pin, then parse once per (path,
// digest, kind) into t. Both steps are single-flight, so N concurrent
// entries naming one file read and parse it exactly once, while a
// rewritten file (new size/mtime) is re-digested. Failures are returned
// to every waiter that shared the attempt but not memoized beyond it
// (the key is dropped), so a transient I/O error — EMFILE under a wide
// pool, a permission fixed after the fact — does not poison the cache
// forever. The key the file was parsed under is returned with it.
func loadFile[V any](c *DatasetCache, t *memo.Table[fileKey, loaded[V]],
	name string, ref fileRef, read func(fileRef) (V, error)) (V, fileKey, error) {
	d, err := c.digest(ref)
	if err == nil {
		ref, err = ref.resolve()
	}
	var zero V
	if err != nil {
		return zero, fileKey{}, fmt.Errorf("gx: %q: %w", name, err)
	}
	// The digest entry stays on a pin mismatch (it is correct — the
	// expectation is what failed).
	if ref.sha256 != "" && d.sha256 != ref.sha256 {
		return zero, fileKey{}, &DigestMismatchError{Path: ref.path, Want: ref.sha256, Got: d.sha256}
	}
	fk := fileKey{path: ref.path, digest: d.crc, kind: ref.kind}
	r := t.Get(fk, func() loaded[V] {
		v, err := read(ref)
		if err != nil {
			err = fmt.Errorf("gx: %q: %w", name, err)
		}
		return loaded[V]{v: v, err: err}
	})
	if r.err != nil {
		t.Drop(fk)
	}
	return r.v, fk, r.err
}

// digest returns the (CRC64, SHA-256) content digests of the file ref
// names. The pass is memoized under the file's stat identity and shared
// by loads and cache keys alike, so computing a result-cache key and
// then loading the file digests it once. Failed passes are shared with
// concurrent waiters but not memoized beyond the attempt.
func (c *DatasetCache) digest(ref fileRef) (fileDigest, error) {
	st, err := ref.stat()
	if err != nil {
		return fileDigest{}, err
	}
	sk := statKey{path: ref.path, size: st.Size(), mtimeNanos: st.ModTime().UnixNano()}
	d := c.digests.Get(sk, func() loaded[fileDigest] {
		crc, sha, err := ingest.FileDigests(ref.path)
		return loaded[fileDigest]{v: fileDigest{crc: crc, sha256: sha}, err: err}
	})
	if d.err != nil {
		c.digests.Drop(sk)
		return fileDigest{}, d.err
	}
	return d.v, nil
}

// contentSHA returns the SHA-256 content digest of the file name
// references — what [scenarioKey] folds into cache keys so a rewritten
// file never hits stale state. ok is false when name is not a file
// reference (a registered dataset needs no content pinning — its
// identity is the (dataset, scale, seed) triple).
func (c *DatasetCache) contentSHA(name string) (sha string, ok bool, err error) {
	ref, ok, err := parseFileRef(name)
	if !ok || err != nil {
		return "", ok, err
	}
	d, err := c.digest(ref)
	if err != nil {
		return "", true, fmt.Errorf("gx: %q: %w", name, err)
	}
	return d.sha256, true, nil
}

// Partitioning returns the memoized default partitioning of the named
// engine for g over the given node count, building it on first request.
// It is exactly what the engine would build for itself, so handing it to
// [Run] via [WithPartitioning] changes nothing but the build count.
func (c *DatasetCache) Partitioning(g *Graph, engine string, nodes int) (*Partitioning, error) {
	def, err := engineReg.lookup(engine)
	if err != nil {
		return nil, err
	}
	return c.partition(g, engine, def.Spec(), nodes), nil
}

// partition is Partitioning for an engine already resolved to spec.
func (c *DatasetCache) partition(g *Graph, eng string, spec engine.Spec, nodes int) *Partitioning {
	return c.parts.Get(partKey{g: g, engine: eng, nodes: nodes}, func() *Partitioning {
		return spec.Partition(g, nodes)
	})
}

// boundarySource is one run's view of a cached stream: key names the
// stream and its base (k unset), and the source builds what it does not
// find with batches and spec.
type boundarySource struct {
	c       *DatasetCache
	key     boundaryKey
	batches []EdgeBatch
	spec    engine.Spec
}

// boundary returns the memoized batch boundary k ≥ 1, building it from
// boundary k−1 — itself built first if no run has reached it — on first
// request. Builds are deterministic, so a batch that does not apply is
// memoized like a boundary: every run that reaches it fails the same way.
func (s *boundarySource) boundary(k int) (*engine.Boundary, error) {
	key := s.key
	key.k = k
	r := s.c.bounds.Get(key, func() loaded[*engine.Boundary] {
		g, part := key.g, key.part
		if k > 1 {
			prev, err := s.boundary(k - 1)
			if err != nil {
				return loaded[*engine.Boundary]{err: err}
			}
			g, part = prev.Graph(), prev.Partitioning()
		}
		b, err := engine.NextBoundary(k, g, part, s.batches[k-1], func(ng *Graph) *Partitioning {
			return s.c.partition(ng, key.engine, s.spec, key.nodes)
		})
		return loaded[*engine.Boundary]{v: b, err: err}
	})
	return r.v, r.err
}

// Stats returns a snapshot of the cache counters.
func (c *DatasetCache) Stats() CacheStats {
	gs := c.graphs.Stats()
	fs := c.files.Stats()
	ps := c.parts.Stats()
	bs := c.bounds.Stats()
	return CacheStats{
		GraphHits: gs.Hits + fs.Hits, GraphLoads: gs.Entries + fs.Entries,
		PartitionHits: ps.Hits, PartitionBuilds: ps.Entries,
		BoundaryHits: bs.Hits, BoundaryBuilds: bs.Entries,
	}
}

// Purge drops every table — graphs, file digests, parsed graph files,
// parsed streams, partitionings and stream boundaries — and zeroes the
// counters.
func (c *DatasetCache) Purge() {
	c.graphs.Purge()
	c.digests.Purge()
	c.files.Purge()
	c.streams.Purge()
	c.parts.Purge()
	c.bounds.Purge()
}
