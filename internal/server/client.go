package server

// Client is the Go client for svtsimd: submit, poll, stream, and fetch
// results/artifacts over the /v1 API. The CLI's -submit passthrough,
// examples/serve, and the CI smoke test all drive the daemon through
// this type, so the wire shapes have exactly one Go spelling.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client talks to one svtsimd base URL (e.g. "http://127.0.0.1:8080").
type Client struct {
	BaseURL string
	// HTTP defaults to http.DefaultClient. Streaming requests get no
	// client-side timeout; set one per-call with a context instead.
	HTTP *http.Client
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError reconstructs a server error body into a Go error.
func apiError(resp *http.Response, body []byte) error {
	var eb errBody
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		if eb.Detail != nil {
			return fmt.Errorf("%s: %w", resp.Status, eb.Detail)
		}
		return fmt.Errorf("%s: %s", resp.Status, eb.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
}

// do sends one request, with in as its JSON body when non-nil. It
// returns the body of a 2xx answer, decoded into out when out is
// non-nil; any other answer comes back as the server's error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) ([]byte, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp, b)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Submit posts a request and returns the admitted (or cache-hit) job's
// status. A 429 (queue full) or 503 (draining) surfaces as an error.
func (c *Client) Submit(ctx context.Context, req *Request) (*SubmitResponse, error) {
	var out SubmitResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stream follows a job's NDJSON progress stream, invoking fn for every
// event in order, and returns when the job reaches a terminal state
// (the last event delivered carries it) or ctx is canceled.
func (c *Client) Stream(ctx context.Context, id string, fn func(ProgressEvent)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(resp.Body)
		return apiError(resp, b)
	}
	// The scanner starts from bufio's small default buffer and grows it
	// only for a long line, up to 1 MB.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev ProgressEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("malformed stream event %q: %w", line, err)
		}
		if fn != nil {
			fn(ev)
		}
	}
	return sc.Err()
}

// Result fetches a finished job's result body and decodes it.
func (c *Client) Result(ctx context.Context, id string) (*Result, error) {
	var out Result
	if _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ResultBytes fetches the raw result body — the exact bytes the cache
// stores, for byte-identity checks.
func (c *Client) ResultBytes(ctx context.Context, id string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, nil)
}

// Artifact fetches one rendered obs artifact (obs.ArtifactTrace, ...).
func (c *Client) Artifact(ctx context.Context, id, name string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/artifacts/"+name, nil, nil)
}

// CacheStats fetches /v1/cache.
func (c *Client) CacheStats(ctx context.Context) (*CacheStats, error) {
	var out CacheStats
	if _, err := c.do(ctx, http.MethodGet, "/v1/cache", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Run submits a request and follows it to completion: progress events
// go to fn (may be nil), and the submission and decoded result return
// once the job is done. Cache hits return immediately. A failed or
// canceled job returns an error carrying the server's message.
func (c *Client) Run(ctx context.Context, req *Request, fn func(ProgressEvent)) (*SubmitResponse, *Result, error) {
	sub, err := c.Submit(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	if !sub.Cached {
		if err := c.Stream(ctx, sub.ID, fn); err != nil {
			return nil, nil, err
		}
	}
	// The stream ends at the terminal event; confirm the state before
	// fetching bytes so failures carry the job's error, not a 500 body.
	st, err := c.Job(ctx, sub.ID)
	if err != nil {
		return nil, nil, err
	}
	if st.State != StateDone {
		return nil, nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	res, err := c.Result(ctx, sub.ID)
	return sub, res, err
}

// WaitHealthy polls /v1/healthz until the daemon answers or the budget
// elapses — the CI smoke test's boot barrier.
func (c *Client) WaitHealthy(ctx context.Context, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		_, err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("svtsimd not healthy after %v: %w", budget, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}
