// Serving: run the gxd daemon in-process and serve a suite twice.
//
// Determinism is what makes results servable: a run is a pure function
// of its scenario, so the daemon keys outcomes by canonical scenario
// digest and answers a repeat submission from its result cache with
// zero engine supersteps — bit-identically to computing it. This
// example boots the serving core (the same internal/serve server cmd/gxd
// puts behind a socket), submits one suite twice over loopback HTTP, and
// shows the second job costing nothing.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"net/http/httptest"

	"gxplug/internal/serve"
)

const suite = `{
  "name": "served-mix",
  "entries": [
    {"name": "pagerank", "engine": "powergraph", "algorithm": "pagerank",
     "dataset": "orkut", "scale": 2000, "seed": 1, "nodes": 4, "accel": "gpu"},
    {"name": "cc", "engine": "graphx", "algorithm": "cc",
     "dataset": "orkut", "scale": 2000, "seed": 1, "nodes": 4, "accel": "gpu"}
  ]
}`

func main() {
	srv, err := serve.New(serve.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Drain()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client := serve.NewClient(hs.URL)
	defer client.Close()

	submit := func() serve.JobResult {
		reply, err := client.Submit([]byte(suite))
		if err != nil {
			log.Fatal(err)
		}
		res, err := client.Result(reply.ID, true)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	first := submit()
	fmt.Printf("first submission : %d entries computed in %d engine supersteps\n",
		len(first.Entries), first.Supersteps)

	second := submit()
	hits := 0
	for _, rep := range second.Entries {
		if rep.CacheHit {
			hits++
		}
	}
	fmt.Printf("second submission: %d/%d entries served from result cache, %d supersteps\n",
		hits, len(second.Entries), second.Supersteps)
	for i, rep := range second.Entries {
		same := rep.Summary.AttrsDigest == first.Entries[i].Summary.AttrsDigest
		fmt.Printf("  %-8s attrs digest %s… served bit-identical=%v, makespan %v\n",
			rep.Name, rep.Summary.AttrsDigest[:12], same, rep.Summary.Time)
	}
}
