package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"github.com/isasgd/isasgd/internal/xrand"
)

// RetryPolicy bounds a worker's RPC persistence: up to Max retries after
// the first attempt, exponential backoff starting at Base and capped at
// Cap with uniform jitter on the upper half, each attempt under its own
// Timeout. Transient failures — transport errors, 5xx, 408 — retry;
// anything the coordinator decided (2xx, 409 shed, 4xx rejection) does
// not.
type RetryPolicy struct {
	Max     int           // retries after the first attempt (<0 means none)
	Base    time.Duration // first backoff step
	Cap     time.Duration // backoff ceiling
	Timeout time.Duration // per-attempt deadline (long-polls override it)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Max == 0 {
		p.Max = 5
	}
	if p.Max < 0 {
		p.Max = 0
	}
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 2 * time.Second
	}
	if p.Timeout <= 0 {
		p.Timeout = 10 * time.Second
	}
	return p
}

// backoff returns the sleep before retry number attempt (1-based):
// min(Cap, Base·2^(attempt-1)), jittered uniformly over its upper half
// so simultaneously-failing workers desynchronize.
func (p RetryPolicy) backoff(attempt int, rng *xrand.Rand) time.Duration {
	d := p.Base << uint(attempt-1)
	if d <= 0 || d > p.Cap {
		d = p.Cap
	}
	half := d / 2
	return half + time.Duration(rng.Float64()*float64(half))
}

// rpcClient is the worker side of the protocol: frames out, frames or
// JSON verdicts back, over a shared http.Client with retry/backoff on
// transient failures.
type rpcClient struct {
	hc     *http.Client
	base   string // coordinator root, e.g. http://127.0.0.1:9090
	policy RetryPolicy
	rng    *xrand.Rand
	log    *slog.Logger
}

// maxVerdict bounds a push verdict's JSON body.
const maxVerdict = 64 << 10

// pull issues a pull (path carries the query) and decodes the frame's
// weights, if any, into dst, which is the model's Dim long. The
// response is read no further than the largest frame of that Dim at
// wire's width.
func (c *rpcClient) pull(ctx context.Context, path string, timeout time.Duration, dst []float64, wire string) (pr PullResponse, attempts int, err error) {
	_, attempts, err = c.do(ctx, http.MethodGet, path, timeout, nil, maxPullFrame(len(dst), wire),
		func(raw []byte) (err error) {
			pr, err = decodePull(raw, dst)
			return err
		})
	return pr, attempts, err
}

// push sends one push frame and decodes the verdict.
func (c *rpcClient) push(ctx context.Context, frame []byte) (status int, resp PushResponse, attempts int, err error) {
	status, attempts, err = c.do(ctx, http.MethodPost, "/v1/cluster/push", 0, frame, maxVerdict,
		func(raw []byte) error { return json.Unmarshal(raw, &resp) })
	return status, resp, attempts, err
}

// retryable reports whether status warrants another attempt.
func retryable(status int) bool {
	return status >= 500 || status == http.StatusRequestTimeout ||
		status == http.StatusTooManyRequests
}

// do issues method path with body (nil for none). The response body,
// refused if longer than limit bytes, goes to decode on 2xx and 409
// (shed verdicts carry a normal PushResponse body). timeout overrides
// the policy's per-attempt deadline when positive — the pull long-poll
// passes its window plus slack. It returns the final HTTP status, the
// number of attempts made, and the terminal error if every attempt
// failed.
func (c *rpcClient) do(ctx context.Context, method, path string, timeout time.Duration, body []byte, limit int, decode func([]byte) error) (status, attempts int, err error) {
	if timeout <= 0 {
		timeout = c.policy.Timeout
	}
	for attempt := 0; ; attempt++ {
		attempts++
		status, err = c.once(ctx, method, path, timeout, body, limit, decode)
		if err == nil && !retryable(status) {
			return status, attempts, nil
		}
		if err != nil && status != 0 && !retryable(status) {
			// A coordinator verdict (4xx) or an undecodable success body:
			// retrying would re-send the same doomed request.
			return status, attempts, err
		}
		if attempt >= c.policy.Max || ctx.Err() != nil {
			if err == nil {
				err = fmt.Errorf("cluster: %s %s: status %d after %d attempts", method, path, status, attempts)
			}
			return status, attempts, err
		}
		d := c.policy.backoff(attempt+1, c.rng)
		if c.log != nil {
			c.log.Debug("rpc retrying", "path", path, "attempt", attempt+1, "status", status, "err", err, "backoff", d)
		}
		select {
		case <-ctx.Done():
			return status, attempts, ctx.Err()
		case <-time.After(d):
		}
	}
}

func (c *rpcClient) once(ctx context.Context, method, path string, timeout time.Duration, body []byte, limit int, decode func([]byte) error) (int, error) {
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := readLimited(resp.Body, limit)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("cluster: reading %s response: %w", path, err)
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300, resp.StatusCode == http.StatusConflict:
		if err := decode(raw); err != nil {
			return resp.StatusCode, fmt.Errorf("cluster: decoding %s response: %w", path, err)
		}
		return resp.StatusCode, nil
	default:
		var eb errorBody
		_ = json.Unmarshal(raw, &eb)
		if eb.Error == "" {
			eb.Error = http.StatusText(resp.StatusCode)
		}
		if retryable(resp.StatusCode) {
			// Surfaced to the retry loop; terminal only once retries run out.
			return resp.StatusCode, errors.New("cluster: " + eb.Error)
		}
		return resp.StatusCode, fmt.Errorf("cluster: %s %s rejected (%d): %s", method, path, resp.StatusCode, eb.Error)
	}
}

// readLimited reads a whole response body, refusing one longer than
// limit bytes.
func readLimited(r io.Reader, limit int) ([]byte, error) {
	raw, err := io.ReadAll(io.LimitReader(r, int64(limit)+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > limit {
		return nil, fmt.Errorf("body exceeds %d bytes", limit)
	}
	return raw, nil
}
