package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Client timeouts. Bounded calls (submit, status, result without wait)
// answer from in-memory state and must fail fast against a dead or
// wedged daemon instead of hanging gxrun -remote forever; open-ended
// calls (stream, result?wait=1) legitimately block for a job's whole
// runtime, so they bound only the TCP connect.
const (
	clientTimeout     = 30 * time.Second
	clientDialTimeout = 10 * time.Second
)

// Client is the thin HTTP client behind `gxrun -remote` and the tests:
// submit a scenario/suite body, follow its event stream, fetch its
// result. The zero value is not usable; call NewClient.
type Client struct {
	base string
	// short bounds whole requests that answer from in-memory state;
	// long bounds only the connect, for requests that follow a job.
	short *http.Client
	long  *http.Client
}

// NewClient returns a client for a gxd daemon at addr. A bare
// "host:port" gets the http scheme; a full URL is used as given.
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	dial := (&net.Dialer{Timeout: clientDialTimeout}).DialContext
	return &Client{
		base:  strings.TrimRight(addr, "/"),
		short: &http.Client{Timeout: clientTimeout, Transport: &http.Transport{DialContext: dial}},
		long:  &http.Client{Transport: &http.Transport{DialContext: dial}},
	}
}

// Close releases the client's idle keep-alive connections on both
// transports. A process that builds a client per job must call it, or
// every finished client leaks its sockets until the process runs out of
// file descriptors. The client remains usable; later calls reconnect.
func (c *Client) Close() {
	c.short.CloseIdleConnections()
	c.long.CloseIdleConnections()
}

// Submit posts a raw scenario or suite JSON body and returns the
// admitted job's id. Rejections (queue full, draining, invalid input)
// come back as errors carrying the daemon's message.
func (c *Client) Submit(body []byte) (SubmitReply, error) {
	resp, err := c.short.Post(c.base+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return SubmitReply{}, fmt.Errorf("serve: submit: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return SubmitReply{}, statusError("submit", resp)
	}
	var reply SubmitReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return SubmitReply{}, fmt.Errorf("serve: submit reply: %w", err)
	}
	return reply, nil
}

// Stream follows a job's NDJSON event stream from the beginning,
// invoking fn for every event until the terminal "done" event (after
// which it returns nil) or fn returns an error (propagated).
func (c *Client) Stream(id string, fn func(Event) error) error {
	resp, err := c.long.Get(c.base + "/v1/stream?id=" + url.QueryEscape(id))
	if err != nil {
		return fmt.Errorf("serve: stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError("stream", resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("serve: stream event: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
		if ev.Type == "done" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("serve: stream: %w", err)
	}
	return fmt.Errorf("serve: stream ended without a done event")
}

// Result fetches a job's outcome, blocking server-side until the job
// finishes when wait is true.
func (c *Client) Result(id string, wait bool) (JobResult, error) {
	u := c.base + "/v1/result?id=" + url.QueryEscape(id)
	h := c.short
	if wait {
		// The server blocks until the job finishes; an overall timeout
		// would sever legitimate long waits.
		h = c.long
		u += "&wait=1"
	}
	resp, err := h.Get(u)
	if err != nil {
		return JobResult{}, fmt.Errorf("serve: result: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobResult{}, statusError("result", resp)
	}
	var jr JobResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return JobResult{}, fmt.Errorf("serve: result: %w", err)
	}
	return jr, nil
}

// Status fetches a job's progress snapshot.
func (c *Client) Status(id string) (Status, error) {
	resp, err := c.short.Get(c.base + "/v1/status?id=" + url.QueryEscape(id))
	if err != nil {
		return Status{}, fmt.Errorf("serve: status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, statusError("status", resp)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Status{}, fmt.Errorf("serve: status: %w", err)
	}
	return st, nil
}

// statusError turns a non-2xx response into an error carrying the
// daemon's message body.
func statusError(op string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	return fmt.Errorf("serve: %s: %s: %s", op, resp.Status, strings.TrimSpace(string(msg)))
}
