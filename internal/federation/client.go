package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rfly/internal/fleet"
	"rfly/internal/rng"
)

// Client is the coordinator's view of one rfly-serve node. Every call
// carries a per-request timeout; transport errors and 5xx responses
// retry with jittered exponential backoff (full jitter — a uniform draw
// over the window, so a fleet of coordinators hammered by the same
// outage does not retry in lockstep); 429s surface immediately as
// ErrNodeBusy so the shedding path can spill instead of waiting out a
// busy node's Retry-After in line.

// maxNodeResponse bounds how much of a node's response body the client
// reads: the same 1 MiB nodes enforce on request bodies, which every
// checkpoint the coordinator forwards must fit anyway.
// A hostile or broken node streaming an endless body then costs one
// bounded buffer and an error, not unbounded memory.
const maxNodeResponse = fleet.MaxBody

// ErrNodeBusy is a node's 429: the admission queue is full.
type ErrNodeBusy struct {
	Node       string
	RetryAfter time.Duration
}

func (e ErrNodeBusy) Error() string {
	return fmt.Sprintf("federation: node %s busy; retry after %s", e.Node, e.RetryAfter)
}

// ErrStatus is any other non-2xx node response.
type ErrStatus struct {
	Node string
	Code int
	Msg  string
}

func (e ErrStatus) Error() string {
	return fmt.Sprintf("federation: node %s returned %d: %s", e.Node, e.Code, e.Msg)
}

// jitterSource is a mutex-guarded rng.Source: the deterministic stream
// is shared by every in-flight retry loop.
type jitterSource struct {
	mu  sync.Mutex
	src *rng.Source
}

func (j *jitterSource) float64() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.src.Float64()
}

// Client wraps one node's base URL.
type Client struct {
	base string
	http *http.Client

	timeout time.Duration
	retries int
	backoff time.Duration
	maxBack time.Duration
	jitter  *jitterSource
}

// NewClient builds a node client. jitter may be shared across clients.
func NewClient(base string, cfg Config, jitter *jitterSource) *Client {
	return &Client{
		base:    base,
		http:    &http.Client{},
		timeout: cfg.RequestTimeout,
		retries: cfg.MaxRetries,
		backoff: cfg.BackoffBase,
		maxBack: cfg.BackoffMax,
		jitter:  jitter,
	}
}

// Base returns the node URL the client fronts.
func (c *Client) Base() string { return c.base }

// do issues one HTTP call with the client's timeout/retry policy. body,
// when non-nil, is sent as ctype; a 2xx response is handed to read (nil
// discards it), once per attempt.
func (c *Client) do(ctx context.Context, method, path string, body []byte, ctype string, read func(*http.Response) error) error {
	back := c.backoff
	var last error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			// Full jitter: sleep uniform(0, back], then widen the window.
			sleep := time.Duration(c.jitter.float64() * float64(back))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(sleep):
			}
			if back *= 2; back > c.maxBack {
				back = c.maxBack
			}
		}
		err := c.once(ctx, method, path, body, ctype, read)
		if err == nil {
			return nil
		}
		last = err
		switch err.(type) {
		case ErrNodeBusy:
			// Busy is not a failure to retry here — the caller sheds.
			return err
		case ErrStatus:
			if st := err.(ErrStatus); st.Code < 500 {
				return err // 4xx: retrying the same bytes cannot help
			}
		}
		if ctx.Err() != nil {
			return last
		}
	}
	return last
}

func (c *Client) once(ctx context.Context, method, path string, body []byte, ctype string, read func(*http.Response) error) error {
	rctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		ra := time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			var secs int64
			if _, err := fmt.Sscanf(s, "%d", &secs); err == nil && secs > 0 {
				ra = time.Duration(secs) * time.Second
			}
		}
		io.Copy(io.Discard, resp.Body)
		return ErrNodeBusy{Node: c.base, RetryAfter: ra}
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e fleet.ErrorResponse
		msg := ""
		if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e); err == nil {
			msg = e.Error
		}
		return ErrStatus{Node: c.base, Code: resp.StatusCode, Msg: msg}
	}
	if read == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return read(resp)
}

// doJSON is do with a JSON request body (when in is non-nil) and a JSON
// response decoded into out (when non-nil).
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	var read func(*http.Response) error
	if out != nil {
		read = func(resp *http.Response) error {
			return json.NewDecoder(io.LimitReader(resp.Body, maxNodeResponse)).Decode(out)
		}
	}
	return c.do(ctx, method, path, body, "application/json", read)
}

// getBlob fetches a blob route: the raw body and its sortie header.
// fleet.ReadBlob bounds the body, so an oversize, endless or truncated
// one is an error, never a short blob.
func (c *Client) getBlob(ctx context.Context, path string) (sortie int, data []byte, err error) {
	err = c.do(ctx, http.MethodGet, path, nil, "", func(resp *http.Response) error {
		n, err := strconv.Atoi(resp.Header.Get(fleet.SortieHeader))
		if err != nil {
			return fmt.Errorf("federation: node %s sent no valid %s header", c.base, fleet.SortieHeader)
		}
		b, err := fleet.ReadBlob(resp.Body, resp.ContentLength)
		if err != nil {
			return fmt.Errorf("federation: node %s: %w", c.base, err)
		}
		sortie, data = n, b
		return nil
	})
	return sortie, data, err
}

// putBlob sends data raw to a blob route.
func (c *Client) putBlob(ctx context.Context, path string, data []byte) error {
	return c.do(ctx, http.MethodPut, path, data, "application/octet-stream", nil)
}

// Submit forwards a mission to the node.
func (c *Client) Submit(ctx context.Context, req fleet.SubmitRequest) (fleet.SubmitResponse, error) {
	var out fleet.SubmitResponse
	err := c.doJSON(ctx, http.MethodPost, "/v1/missions", req, &out)
	return out, err
}

// Await long-polls a node-side mission record: the node answers once
// the mission's committed sortie count passes after, the mission is
// terminal, or wait elapses (the node caps it). wait must stay below
// the client's request timeout.
func (c *Client) Await(ctx context.Context, id string, after int, wait time.Duration) (fleet.MissionResponse, error) {
	var out fleet.MissionResponse
	path := fmt.Sprintf("/v1/missions/%s?after=%d&wait_ms=%d", id, after, wait.Milliseconds())
	err := c.doJSON(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Checkpoint fetches a mission's latest committed checkpoint and the
// sortie count it covers. A mission that has not committed a sortie yet
// returns ErrStatus 404.
func (c *Client) Checkpoint(ctx context.Context, id string) (sortie int, data []byte, err error) {
	return c.getBlob(ctx, "/v1/missions/"+id+"/checkpoint")
}

// PutReplica asks the node to hold a peer mission's checkpoint.
func (c *Client) PutReplica(ctx context.Context, id string, sortie int, data []byte) error {
	return c.putBlob(ctx, fmt.Sprintf("/v1/replicas/%s?sortie=%d", id, sortie), data)
}

// DropReplica discards a held replica (best-effort cleanup).
func (c *Client) DropReplica(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/replicas/"+id, nil, "", nil)
}

// ProbeLoad is the detector heartbeat: one GET /metrics with the plain
// request timeout and no retries (a missed heartbeat IS the signal; a
// retry loop would blur the suspicion clock).
func (c *Client) ProbeLoad(ctx context.Context) (Load, error) {
	rctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return Load{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return Load{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return Load{}, ErrStatus{Node: c.base, Code: resp.StatusCode}
	}
	var m fleet.MetricsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxNodeResponse)).Decode(&m); err != nil {
		return Load{}, err
	}
	return Load{QueueDepth: m.QueueDepth}, nil
}
