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

	"github.com/isasgd/isasgd/internal/frame"
	"github.com/isasgd/isasgd/internal/xrand"
)

// RetryPolicy bounds a worker's RPC persistence: up to Max retries after
// the first attempt, sleeping frame.Backoff(Base, Cap, …) between them,
// each attempt under its own Timeout. Transient failures retry:
// transport errors, 5xx, 408, 429, and a pull answer that fails to
// decode or breaks the feed's cursor rule. Anything else the coordinator
// decided (2xx, 409 shed, 4xx rejection) does not.
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

// rpcClient is the worker side of the protocol: pulls through the
// version feed's client step, pushes as frames with JSON verdicts back,
// both over a shared http.Client with retry/backoff on transient
// failures.
type rpcClient struct {
	hc     *http.Client
	base   string // coordinator root, e.g. http://127.0.0.1:9090
	policy RetryPolicy
	rng    *xrand.Rand
	log    *slog.Logger
}

// maxVerdict bounds a push verdict's JSON body.
const maxVerdict = 64 << 10

// pull long-polls for a version newer than since (query carries the
// other parameters) and decodes its values, if any, into dst, which is
// the model's Dim long. Each attempt runs under timeout.
func (c *rpcClient) pull(ctx context.Context, query string, since uint64, timeout time.Duration, dst []float64) (a frame.Answer, attempts int, err error) {
	url := c.base + "/v1/cluster/pull?" + query
	_, attempts, err = c.retry(ctx, "pull", timeout, func(ctx context.Context) (int, error) {
		var err error
		if a, err = frame.Pull(ctx, c.hc, url, since, len(dst), dst); err != nil {
			return 0, err
		}
		return http.StatusOK, nil
	})
	return a, attempts, err
}

// push sends one push frame and decodes the verdict.
func (c *rpcClient) push(ctx context.Context, body []byte) (status int, resp PushResponse, attempts int, err error) {
	status, attempts, err = c.retry(ctx, "push", c.policy.Timeout, func(ctx context.Context) (int, error) {
		return c.pushOnce(ctx, body, &resp)
	})
	return status, resp, attempts, err
}

// retryable reports whether status warrants another attempt.
func retryable(status int) bool {
	return status >= 500 || status == http.StatusRequestTimeout ||
		status == http.StatusTooManyRequests
}

// retry runs attempt, each time under its own timeout, until it
// succeeds, fails terminally, or the policy's retries run out. attempt
// returns the HTTP status of an answer it accepted, and its error
// otherwise: a *frame.StatusError carries the status the coordinator
// answered, and any other error (transport, decode, cursor) has none.
// retry returns the final status, the number of attempts made, and the
// terminal error if every attempt failed.
func (c *rpcClient) retry(ctx context.Context, what string, timeout time.Duration, attempt func(context.Context) (int, error)) (status, attempts int, err error) {
	for n := 0; ; n++ {
		attempts++
		actx, cancel := context.WithTimeout(ctx, timeout)
		status, err = attempt(actx)
		cancel()
		var se *frame.StatusError
		if errors.As(err, &se) {
			status = se.Status
		}
		if err == nil && !retryable(status) {
			return status, attempts, nil
		}
		if err != nil && status != 0 && !retryable(status) {
			// A coordinator verdict (4xx) or an undecodable verdict:
			// retrying would re-send the same doomed request.
			return status, attempts, err
		}
		if n >= c.policy.Max || ctx.Err() != nil {
			if err == nil {
				err = fmt.Errorf("cluster: %s: status %d after %d attempts", what, status, attempts)
			}
			return status, attempts, err
		}
		d := frame.Backoff(c.policy.Base, c.policy.Cap, n+1, c.rng)
		if c.log != nil {
			c.log.Debug("rpc retrying", "rpc", what, "attempt", n+1, "status", status, "err", err, "backoff", d)
		}
		select {
		case <-ctx.Done():
			return status, attempts, ctx.Err()
		case <-time.After(d):
		}
	}
}

// pushOnce posts body and decodes the verdict into resp: on 2xx, and on
// 409 (shed verdicts carry a normal PushResponse body). Any other answer
// is a *frame.StatusError.
func (c *rpcClient) pushOnce(ctx context.Context, body []byte, resp *PushResponse) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/cluster/push", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", frame.ContentType)
	hresp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer hresp.Body.Close()
	if (hresp.StatusCode < 200 || hresp.StatusCode >= 300) && hresp.StatusCode != http.StatusConflict {
		return 0, frame.ErrorOf(hresp)
	}
	raw, err := readLimited(hresp.Body, maxVerdict)
	if err != nil {
		return hresp.StatusCode, fmt.Errorf("cluster: reading push verdict: %w", err)
	}
	if err := json.Unmarshal(raw, resp); err != nil {
		return hresp.StatusCode, fmt.Errorf("cluster: decoding push verdict: %w", err)
	}
	return hresp.StatusCode, nil
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
