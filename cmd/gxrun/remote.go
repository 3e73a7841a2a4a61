package main

import (
	"fmt"
	"io"
	"os"

	"gxplug/gx"
	"gxplug/internal/serve"
)

// runRemote submits a scenario or suite file to a gxd daemon and feeds
// its NDJSON event stream to the renderer the local -suite path uses
// (renderSuite), so a remote run's report is byte-identical to a local
// run of the same file (against a fresh daemon, whose process-wide cache
// accounting starts at zero like a local run's).
//
// The file is parsed locally first: the header needs the entry count, a
// malformed file should fail before touching the wire, and -manifest
// resolves client-side — logical dataset names are the client's
// vocabulary, the daemon sees only pinned file: references (or its own
// manifest's names). A bare scenario is wrapped as a one-entry suite
// named "scenario", matching what the daemon does to bare submissions,
// and rendered in suite form — remote runs have no local graph instance
// to print single-run stats from.
func runRemote(addr, scenarioPath, suitePath string, manifest gx.Manifest, progress bool, stdout io.Writer) error {
	path := suitePath
	if path == "" {
		path = scenarioPath
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var suite gx.Suite
	if suitePath != "" {
		if suite, err = gx.ParseSuite(raw); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else {
		sc, err := gx.ParseScenario(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		suite = gx.Suite{Entries: []gx.SuiteEntry{{Name: "scenario", Scenario: sc}}}
	}
	suite = manifest.ResolveSuite(suite)
	body, err := suite.JSON()
	if err != nil {
		return err
	}

	client := serve.NewClient(addr)
	defer client.Close()
	reply, err := client.Submit(body)
	if err != nil {
		return err
	}

	return renderSuite(stdout, suite, path, progress, func(entry func(serve.EntryReport), step func(string, gx.Superstep)) ([]serve.EntryReport, gx.CacheStats, error) {
		var final *serve.JobResult
		err := client.Stream(reply.ID, func(ev serve.Event) error {
			switch ev.Type {
			case "superstep":
				if step != nil && ev.Superstep != nil {
					step(ev.Entry, *ev.Superstep)
				}
			case "entry":
				if ev.Report != nil {
					entry(*ev.Report)
				}
			case "done":
				final = ev.Result
			}
			return nil
		})
		if err != nil {
			return nil, gx.CacheStats{}, err
		}
		if final == nil {
			return nil, gx.CacheStats{}, fmt.Errorf("gxrun: remote job %s ended without a result", reply.ID)
		}
		return final.Entries, final.Cache, nil
	})
}
