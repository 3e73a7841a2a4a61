package gx

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Manifest maps logical dataset names onto pinned `file:` references,
// so scenarios — in particular scenarios submitted to a gxd daemon —
// name datasets by what they are ("twitter-2010") instead of by where
// one host keeps them. A manifest is resolved *before* scenario
// validation: every scenario/suite Dataset field matching a logical
// name is rewritten to its reference, and everything downstream
// (validation, dataset cache, result-cache keys) sees only the
// resolved form, content digest included.
//
// Every reference must carry a `#sha256=` content pin. That is what
// makes a manifest a deployment contract rather than a path alias: the
// run fails loudly with a [DigestMismatchError] if the file on disk is
// not the exact bytes the manifest promised, and two hosts with the
// same manifest provably serve the same graphs.
//
// The JSON form is one object:
//
//	{"datasets": {
//	  "twitter": "file+snapshot:/data/twitter.gxsnap#sha256=ab12…",
//	  "roads":   "file+edgelist:/data/roads.tsv#sha256=cd34…"
//	}}
//
// `gxrun -manifest FILE` and `gxd -manifest FILE` load one at startup.
type Manifest struct {
	// Datasets maps logical name → pinned `file:` reference.
	Datasets map[string]string `json:"datasets"`
}

// ParseManifest decodes a manifest from JSON and validates it. Unknown
// fields are errors, like scenario and suite files.
func ParseManifest(data []byte) (Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("gx: parse manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// LoadManifest reads, decodes and validates a manifest file.
func LoadManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("gx: load manifest: %w", err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		return Manifest{}, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Validate checks every mapping: logical names must be plain (no
// `file:`-style prefix — a name that parses as a reference would be
// unreachable, since resolution runs before reference parsing), and
// every reference must be a well-formed `file:` form carrying a
// `#sha256=` pin. All problems are reported, joined, in name order.
func (m Manifest) Validate() error {
	names := make([]string, 0, len(m.Datasets))
	for name := range m.Datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	var errs []error
	for _, name := range names {
		ref := m.Datasets[name]
		if name == "" {
			errs = append(errs, errors.New("manifest: empty logical dataset name"))
			continue
		}
		if _, isFile, _ := parseFileRef(name); isFile {
			errs = append(errs, fmt.Errorf("manifest: logical name %q looks like a file reference; use a plain name", name))
			continue
		}
		fd, isFile, err := datasetRef(ref)
		switch {
		case !isFile:
			errs = append(errs, fmt.Errorf("manifest: %q → %q: not a file: reference", name, ref))
		case err != nil:
			errs = append(errs, fmt.Errorf("manifest: %q: %w", name, err))
		case fd.sha256 == "":
			errs = append(errs, fmt.Errorf("manifest: %q → %q: missing #sha256= content pin", name, strings.TrimSpace(ref)))
		}
	}
	return errors.Join(errs...)
}

// Resolve returns the scenario with a Dataset naming one of the
// manifest's logical datasets rewritten to its pinned reference.
// Datasets the manifest does not name pass through unchanged (they may
// be registered generators or explicit file references).
func (m Manifest) Resolve(s Scenario) Scenario {
	if ref, ok := m.Datasets[s.Dataset]; ok {
		s.Dataset = ref
	}
	return s
}

// ResolveSuite resolves every entry of a suite through the manifest.
func (m Manifest) ResolveSuite(su Suite) Suite {
	entries := make([]SuiteEntry, len(su.Entries))
	copy(entries, su.Entries)
	for i := range entries {
		entries[i].Scenario = m.Resolve(entries[i].Scenario)
	}
	su.Entries = entries
	return su
}
