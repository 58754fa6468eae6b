package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"phasetune/internal/sim"
)

// The HTTP protocol is four JSON POST endpoints mirroring Transport, plus
// the read-only /status and /metrics views. Protocol errors (unknown
// worker, bad index) come back as 400 with {"error": "..."};
// transport-level failures are whatever net/http surfaces.

// RegisterRequest is the /v1/register payload. Version is the worker's
// wire-format version (SpecVersion); a worker from an older build omits
// the field, decodes as 0, and is rejected — the version gate must hold in
// both directions, because an old worker would silently drop new Spec
// fields (or run an unknown Mode as baseline) and commit divergent bytes.
type RegisterRequest struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
}

// LeaseRequest is the /v1/lease payload.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// HeartbeatRequest is the /v1/heartbeat payload.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// httpError is the error envelope.
type httpError struct {
	Error string `json:"error"`
}

// handlePost decodes a JSON request, applies f, and encodes the reply.
func handlePost[Req, Reply any](mux *http.ServeMux, path string, f func(Req) (Reply, error)) {
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("decode: %v", err)})
			return
		}
		reply, err := f(req)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, reply)
	})
}

// writeJSON encodes one reply.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// NewHandler serves a coordinator over HTTP/JSON.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	handlePost(mux, "/v1/register", func(req RegisterRequest) (*RegisterReply, error) {
		return c.Register(req.Name, req.Version)
	})
	handlePost(mux, "/v1/lease", func(req LeaseRequest) (*LeaseReply, error) {
		return c.Lease(req.WorkerID)
	})
	handlePost(mux, "/v1/commit", func(req CommitRequest) (*CommitReply, error) {
		return c.Commit(req)
	})
	handlePost(mux, "/v1/heartbeat", func(req HeartbeatRequest) (*HeartbeatReply, error) {
		return c.Heartbeat(req.WorkerID)
	})
	// Fabric introspection: /status is the human/script-facing JSON view
	// (progress plus per-worker rows), /metrics the Prometheus text view
	// of the same counters. Both are read-only snapshots.
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = c.WriteMetrics(w)
	})
	return mux
}

// quiesceTimeout bounds how long Serve keeps answering polls after the
// campaign ends. Only a worker that died after registering makes Serve
// wait that long; live workers hear "done" on their next poll.
const quiesceTimeout = 10 * time.Second

// Serve hosts c over HTTP on addr until its campaign finishes or ctx is
// canceled, and returns Wait's results. It then keeps answering polls
// until every registered worker has heard "done" (bounded by
// quiesceTimeout), so workers exit clean instead of dying on a closed
// socket. onListen, when set, runs with the bound address once the
// listener is up; its error stops the server and is returned.
func Serve(ctx context.Context, c *Coordinator, addr string, onListen func(addr string) error) ([]*sim.Result, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewHandler(c)}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	if onListen != nil {
		if err := onListen(ln.Addr().String()); err != nil {
			return nil, err
		}
	}
	results, err := c.Wait(ctx)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(quiesceTimeout)
	for !c.Quiesced() {
		select {
		case <-ctx.Done():
			return results, err
		case <-deadline:
			return results, err
		case <-tick.C:
		}
	}
	return results, err
}

// Client speaks the coordinator protocol over HTTP; it implements
// Transport for worker processes.
type Client struct {
	// BaseURL is the coordinator root, e.g. "http://127.0.0.1:7077".
	BaseURL string
	// HTTPClient overrides http.DefaultClient when set.
	HTTPClient *http.Client
	// RegisterWait bounds how long Register retries while the coordinator
	// socket is not up yet — workers routinely start before the
	// coordinator finishes binding (default 30s; negative disables
	// retries).
	RegisterWait time.Duration
}

// client returns the effective http.Client.
func (c *Client) client() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// post sends one request and decodes the reply into out.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	url := strings.TrimRight(c.BaseURL, "/") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var he httpError
		if json.Unmarshal(data, &he) == nil && he.Error != "" {
			return fmt.Errorf("dist: %s: %s", path, he.Error)
		}
		return fmt.Errorf("dist: %s: HTTP %d", path, resp.StatusCode)
	}
	return json.Unmarshal(data, out)
}

// Register implements Transport, retrying connection-level failures for
// up to RegisterWait so worker processes can start before the coordinator.
func (c *Client) Register(ctx context.Context, name string) (*RegisterReply, error) {
	wait := c.RegisterWait
	if wait == 0 {
		wait = 30 * time.Second
	}
	deadline := time.Now().Add(wait)
	for {
		var reply RegisterReply
		err := c.post(ctx, "/v1/register", RegisterRequest{Name: name, Version: SpecVersion}, &reply)
		if err == nil {
			return &reply, nil
		}
		// Protocol-level rejections are final; only keep retrying what
		// looks like the socket not being up yet.
		if strings.HasPrefix(err.Error(), "dist: ") || time.Now().After(deadline) {
			return nil, err
		}
		if serr := sleep(ctx, 200*time.Millisecond); serr != nil {
			return nil, serr
		}
	}
}

// Lease implements Transport.
func (c *Client) Lease(ctx context.Context, workerID string) (*LeaseReply, error) {
	var reply LeaseReply
	if err := c.post(ctx, "/v1/lease", LeaseRequest{WorkerID: workerID}, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Commit implements Transport.
func (c *Client) Commit(ctx context.Context, req CommitRequest) (*CommitReply, error) {
	var reply CommitReply
	if err := c.post(ctx, "/v1/commit", req, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Heartbeat implements Transport.
func (c *Client) Heartbeat(ctx context.Context, workerID string) (*HeartbeatReply, error) {
	var reply HeartbeatReply
	if err := c.post(ctx, "/v1/heartbeat", HeartbeatRequest{WorkerID: workerID}, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}
