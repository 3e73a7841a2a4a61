// Command gxd is the long-running scenario service: an HTTP/JSON daemon
// that accepts gx scenario and suite submissions, executes them on the
// shared gx execution core, and streams per-superstep observer reports
// to clients as NDJSON. The wire format is the one the repository
// already speaks — scenarios and suites round-trip through JSON — so
// anything `gxrun -scenario/-suite` runs locally can be POSTed to gxd
// unchanged, and `gxrun -remote ADDR` is exactly that thin client.
//
//	gxd -addr 127.0.0.1:8080
//	gxd -addr :8080 -pool 8 -results 4096 -queue 128
//	gxd -manifest datasets.json
//	gxd -budget 10s -plan lpt -retain 512
//
// Production concerns are the point of the daemon:
//
//   - One process-wide dataset/partition cache: every submission loads
//     each distinct dataset once for the daemon's lifetime.
//   - A result cache keyed by canonical scenario digest: runs are
//     bit-deterministic, so a resubmitted scenario — byte-identical or
//     merely field-reordered JSON — is served from cache with zero
//     engine supersteps, bit-identically to the original run.
//   - Bounded admission: -queue caps accepted-but-unstarted jobs; a
//     full queue rejects with 429 instead of buffering without bound.
//   - Cost-aware admission: with -budget D, every validated submission
//     is priced by the gx planner (a dry pass over the calibrated cost
//     model, no superstep executed) and rejected with 422 plus the
//     per-entry estimates when the predicted serial virtual cost
//     exceeds D. The planner prices from the cost model alone, so
//     admission is a pure function of the submission and the budget:
//     a suite admitted once is admitted again, whatever ran between.
//   - Scheduled dispatch: -plan lpt runs each job's entries
//     longest-predicted-first; results stay bit-identical to file
//     order, only wall-clock packing changes.
//   - Bounded retention: -retain caps finished jobs kept resident;
//     older ones are evicted (404) with their event histories.
//     /v1/healthz reports resident vs evicted counts.
//   - Graceful shutdown: SIGINT/SIGTERM stops admission (503) and
//     drains every admitted job before exiting.
//
// -manifest FILE loads a gx.Manifest mapping logical dataset names to
// `#sha256=`-pinned `file:` references, resolved before validation, so
// served scenarios name datasets logically instead of by host path.
//
// Endpoints: POST /v1/submit, GET /v1/status?id=, GET
// /v1/result?id=[&wait=1], GET /v1/stream?id= (NDJSON), GET
// /v1/healthz. See internal/serve for the envelope types.
//
// Wall-clock time exists only at this HTTP edge (connection handling);
// everything that feeds results runs on virtual time inside the gx
// core, which the gxlint determinism analyzer (run over the whole tree
// by internal/lint's TestLint) enforces for the serving layer too.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"gxplug/gx"
	"gxplug/internal/serve"
)

// errFlagParse marks flag-parsing failures the FlagSet has already
// reported to stderr, so main does not print them twice.
var errFlagParse = errors.New("gxd: bad flags")

func main() {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { <-sig; close(stop) }()
	switch err := run(os.Args[1:], os.Stdout, os.Stderr, stop); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errFlagParse):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the testable entry point: parse flags, start the daemon, serve
// until stop closes, then drain and exit. The bound address is printed
// first, so callers binding port 0 can discover it.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("gxd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		pool         = fs.Int("pool", 0, "max suite entries running concurrently per job (0 = GOMAXPROCS)")
		results      = fs.Int("results", 0, "result-cache capacity in entries (0 = 1024)")
		queue        = fs.Int("queue", 0, "admission-queue depth; a full queue rejects with 429 (0 = 64)")
		retain       = fs.Int("retain", 0, "finished jobs kept resident; older ones are evicted and 404 (0 = 256)")
		budget       = fs.Duration("budget", 0, "admission cost ceiling: reject submissions whose predicted virtual cost exceeds this with 422 (0 = unlimited)")
		planName     = fs.String("plan", "", "job dispatch order: file | lpt (cost-model longest-predicted-first; results identical)")
		manifestPath = fs.String("manifest", "", "JSON dataset manifest: logical names -> pinned file: references")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlagParse // the FlagSet already printed the details
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("gxd: unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}

	opts := serve.Options{
		Pool:           *pool,
		ResultCapacity: *results,
		QueueDepth:     *queue,
		Retention:      *retain,
		Budget:         *budget,
		Plan:           gx.Plan(*planName),
	}
	if *manifestPath != "" {
		m, err := gx.LoadManifest(*manifestPath)
		if err != nil {
			return err
		}
		opts.Manifest = m
	}
	srv, err := serve.New(opts)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("gxd: %w", err)
	}
	fmt.Fprintf(stdout, "gxd: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	select {
	case err := <-served:
		srv.Drain()
		return fmt.Errorf("gxd: %w", err)
	case <-stop:
	}

	// Stop admission first and finish every admitted job, then close
	// the listener; in-flight streams complete because their jobs have.
	fmt.Fprintln(stdout, "gxd: draining")
	srv.Drain()
	if err := hs.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("gxd: shutdown: %w", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("gxd: %w", err)
	}
	fmt.Fprintln(stdout, "gxd: drained")
	return nil
}
