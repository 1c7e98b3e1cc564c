package libvdap

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/ddi"
	"repro/internal/edgeos"
	"repro/internal/obs"
	"repro/internal/vcu"
)

// Client is the Go binding for the RESTful API — what third-party
// developers link against (paper: "developers can access all software and
// hardware resources by calling the API"). By default every call is a
// single attempt; SetRetryPolicy turns on retries, hedging, per-request
// timeouts, a circuit breaker, and stream auto-reconnect.
type Client struct {
	base  string
	http  *http.Client
	token string

	retry    *retryState
	counters clientCounters
}

// NewClient targets an API server at base (e.g. "http://127.0.0.1:8947").
func NewClient(base string, hc *http.Client) (*Client, error) {
	if base == "" {
		return nil, fmt.Errorf("libvdap: empty base URL")
	}
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{base: base, http: hc}, nil
}

// SetToken attaches a Data Sharing authentication token to future calls.
func (c *Client) SetToken(token string) { c.token = token }

func (c *Client) do(method, path string, body, out any) error {
	return c.call(method, path, body, out, nil)
}

func marshalBody(body any) ([]byte, error) { return json.Marshal(body) }

func newByteReader(b []byte) io.Reader { return bytes.NewReader(b) }

// finishCall turns the winning attempt of a call into the caller-visible
// result, preserving the single-attempt client's error formats.
func finishCall(method, path string, res attemptResult, out any) error {
	if res.err != nil {
		return res.err
	}
	if res.status >= 400 {
		var apiErr apiError
		if decodeErr := json.Unmarshal(res.body, &apiErr); decodeErr == nil && apiErr.Error != "" {
			return fmt.Errorf("%s %s: %s (HTTP %d)", method, path, apiErr.Error, res.status)
		}
		return fmt.Errorf("%s %s: HTTP %d", method, path, res.status)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(res.body, out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// Status returns the platform status document.
func (c *Client) Status() (map[string]any, error) {
	var out map[string]any
	if err := c.do(http.MethodGet, "/api/v1/status", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Models lists the model library.
func (c *Client) Models() ([]ModelInfo, error) {
	var out []ModelInfo
	if err := c.do(http.MethodGet, "/api/v1/models", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Model returns one model's metadata.
func (c *Client) Model(name string) (ModelInfo, error) {
	var out ModelInfo
	if err := c.do(http.MethodGet, "/api/v1/models/"+url.PathEscape(name), nil, &out); err != nil {
		return ModelInfo{}, err
	}
	return out, nil
}

// Predict runs a registry model remotely.
func (c *Client) Predict(name string, features []float64) (PredictResponse, error) {
	var out PredictResponse
	err := c.do(http.MethodPost, "/api/v1/models/"+url.PathEscape(name)+"/predict",
		PredictRequest{Features: features}, &out)
	return out, err
}

// Resources returns the VCU device profiles.
func (c *Client) Resources() ([]vcu.ResourceProfile, error) {
	var out []vcu.ResourceProfile
	if err := c.do(http.MethodGet, "/api/v1/resources", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Upload pushes a record into DDI.
func (c *Client) Upload(source string, x, y float64, payload []byte) (uint64, error) {
	var out UploadResponse
	err := c.do(http.MethodPost, "/api/v1/data/upload",
		UploadRequest{Source: source, X: x, Y: y, Payload: payload}, &out)
	return out.ID, err
}

// QueryData runs a DDI range query. from/to are virtual seconds.
func (c *Client) QueryData(source string, fromSec, toSec float64, limit int) ([]ddi.Record, float64, error) {
	v := url.Values{}
	if source != "" {
		v.Set("source", source)
	}
	v.Set("from", strconv.FormatFloat(fromSec, 'f', -1, 64))
	v.Set("to", strconv.FormatFloat(toSec, 'f', -1, 64))
	if limit > 0 {
		v.Set("limit", strconv.Itoa(limit))
	}
	var out QueryResponse
	if err := c.do(http.MethodGet, "/api/v1/data/query?"+v.Encode(), nil, &out); err != nil {
		return nil, 0, err
	}
	return out.Records, out.LatencyMS, nil
}

// QueryWindow runs a DDI windowed aggregate over one column ("at", "x",
// "y", "payload_bytes"). from/to are virtual seconds.
func (c *Client) QueryWindow(source, column string, fromSec, toSec float64) (WindowResponse, error) {
	v := url.Values{}
	if source != "" {
		v.Set("source", source)
	}
	if column != "" {
		v.Set("column", column)
	}
	v.Set("from", strconv.FormatFloat(fromSec, 'f', -1, 64))
	v.Set("to", strconv.FormatFloat(toSec, 'f', -1, 64))
	var out WindowResponse
	err := c.do(http.MethodGet, "/api/v1/data/window?"+v.Encode(), nil, &out)
	return out, err
}

// Topics lists data-sharing topics.
func (c *Client) Topics() ([]string, error) {
	var out []string
	if err := c.do(http.MethodGet, "/api/v1/sharing/topics", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Publish shares a payload on a topic as the given service.
func (c *Client) Publish(service, topic string, payload []byte) error {
	return c.do(http.MethodPost, "/api/v1/sharing/publish",
		PublishRequest{Service: service, Topic: topic, Payload: payload}, nil)
}

// Services lists EdgeOSv services and their statistics.
func (c *Client) Services() ([]ServiceInfo, error) {
	var out []ServiceInfo
	if err := c.do(http.MethodGet, "/api/v1/services", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Invoke triggers one invocation of an EdgeOSv service.
func (c *Client) Invoke(service string) (InvokeResponse, error) {
	var out InvokeResponse
	err := c.do(http.MethodPost, "/api/v1/services/"+url.PathEscape(service)+"/invoke", nil, &out)
	return out, err
}

// MetricsSeries fetches the sampled metric time-series after the given
// virtual-time watermark (pass a negative duration for everything).
func (c *Client) MetricsSeries(since time.Duration) (obs.Payload, error) {
	var out obs.Payload
	path := "/api/v1/metrics/series"
	if since >= 0 {
		path += "?since=" + strconv.FormatFloat(since.Seconds(), 'f', -1, 64)
	}
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// Events fetches flight-recorder events after the given watermark, filtered
// by component (empty = all) and minimum severity.
func (c *Client) Events(since time.Duration, component string, minSev obs.Severity) ([]obs.Event, error) {
	v := url.Values{}
	if since >= 0 {
		v.Set("since", strconv.FormatFloat(since.Seconds(), 'f', -1, 64))
	}
	if component != "" {
		v.Set("component", component)
	}
	v.Set("severity", minSev.String())
	var out EventsResponse
	if err := c.do(http.MethodGet, "/api/v1/events?"+v.Encode(), nil, &out); err != nil {
		return nil, err
	}
	return out.Events, nil
}

// StreamFrames reads up to n incremental frames from /api/v1/stream starting at
// the given watermark. With a RetryPolicy installed, a dropped stream is
// re-dialed automatically, resuming from the last seen watermark so no
// frame is re-read; it stops early on a drain-marked final frame.
func (c *Client) StreamFrames(since time.Duration, n int) ([]obs.Frame, error) {
	return c.streamFrames(since, n, nil)
}

// streamOnce is one stream connection: dial, decode frames until the
// requested count, EOF, a transport/decode error, or a Final drain frame.
func (c *Client) streamOnce(since time.Duration, n int) (frames []obs.Frame, final bool, err error) {
	v := url.Values{}
	if since >= 0 {
		v.Set("since", strconv.FormatFloat(since.Seconds(), 'f', -1, 64))
	}
	v.Set("frames", strconv.Itoa(n))
	v.Set("poll", "0.01")
	req, err := http.NewRequest(http.MethodGet, c.base+"/api/v1/stream?"+v.Encode(), nil)
	if err != nil {
		return nil, false, fmt.Errorf("build request: %w", err)
	}
	if c.token != "" {
		req.Header.Set("X-VDAP-Token", c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("GET /api/v1/stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var apiErr apiError
		if decodeErr := json.NewDecoder(resp.Body).Decode(&apiErr); decodeErr == nil && apiErr.Error != "" {
			return nil, false, fmt.Errorf("GET /api/v1/stream: %s (HTTP %d)", apiErr.Error, resp.StatusCode)
		}
		return nil, false, fmt.Errorf("GET /api/v1/stream: HTTP %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var f obs.Frame
		if err := dec.Decode(&f); err != nil {
			if err == io.EOF {
				return frames, false, nil
			}
			return frames, false, fmt.Errorf("decode frame: %w", err)
		}
		frames = append(frames, f)
		if f.Final {
			return frames, true, nil
		}
	}
}

func (c *Client) streamFrames(since time.Duration, n int, cs *CallStats) ([]obs.Frame, error) {
	rs := c.retry
	if rs == nil {
		frames, _, err := c.streamOnce(since, n)
		if cs != nil {
			cs.Attempts = 1
		}
		return frames, err
	}
	var frames []obs.Frame
	cursor := since
	// budget bounds CONSECUTIVE no-progress reconnects; any frame received
	// refreshes it, so a long-lived stream survives any number of drops as
	// long as the server keeps making progress between them.
	budget := rs.policy.MaxAttempts
	prevSleep := rs.policy.BaseBackoff
	for dial := 0; ; dial++ {
		if dial > 0 {
			c.counters.reconnects.Add(1)
			if cs != nil {
				cs.Reconnects++
			}
			sleep := rs.backoff(prevSleep, 0)
			prevSleep = sleep
			time.Sleep(sleep)
		}
		if cs != nil {
			cs.Attempts++
		}
		got, final, err := c.streamOnce(cursor, n-len(frames))
		if len(got) > 0 {
			frames = append(frames, got...)
			cursor = time.Duration(frames[len(frames)-1].WatermarkNs)
			budget = rs.policy.MaxAttempts
			prevSleep = rs.policy.BaseBackoff
		}
		if final || len(frames) >= n {
			return frames, nil
		}
		budget--
		if budget <= 0 {
			if err == nil {
				err = fmt.Errorf("GET /api/v1/stream: stream closed after %d/%d frames", len(frames), n)
			}
			return frames, err
		}
	}
}

// FetchMessages reads a topic as the given service.
func (c *Client) FetchMessages(service, topic string, sinceSec float64) ([]edgeos.Message, error) {
	v := url.Values{}
	v.Set("service", service)
	v.Set("topic", topic)
	v.Set("since", strconv.FormatFloat(sinceSec, 'f', -1, 64))
	var out []edgeos.Message
	if err := c.do(http.MethodGet, "/api/v1/sharing/fetch?"+v.Encode(), nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}
