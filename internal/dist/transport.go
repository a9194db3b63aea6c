package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Transport carries tasks to one worker. Implementations must be safe for
// concurrent use: the supervisor dispatches, hedges and heartbeats over the
// same transport from different goroutines.
//
// Call returns once its context is done: the supervisor bounds a dispatch
// by LeaseTTL and cancels the losing call of a hedge through the context
// alone, and waits for the call to return. A non-nil error from Call means
// the reply was not obtained — network failure, timeout, process death,
// corrupt framing — and the supervisor treats the worker as lost for that
// dispatch. A nil error with Reply.Err set means the worker ran the task and
// scoring failed deterministically; that is a task outcome, not a transport
// failure.
type Transport interface {
	Call(ctx context.Context, t Task) (Reply, error)
	Ping(ctx context.Context) error
	Addr() string
	Close() error
}

// HTTPTransport speaks the vadasaw worker wire protocol: POST /task with a
// JSON Task, GET /healthz for liveness.
type HTTPTransport struct {
	addr   string
	client *http.Client
}

// NewHTTPTransport builds a transport for a worker at addr (host:port).
// client may be nil, selecting a private client with sane keep-alive
// defaults; per-call deadlines come from the context, not the client.
func NewHTTPTransport(addr string, client *http.Client) *HTTPTransport {
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return &HTTPTransport{addr: addr, client: client}
}

// Addr implements Transport.
func (h *HTTPTransport) Addr() string { return h.addr }

// Call implements Transport.
func (h *HTTPTransport) Call(ctx context.Context, t Task) (Reply, error) {
	body, err := json.Marshal(t)
	if err != nil {
		return Reply{}, fmt.Errorf("dist: encoding task %d: %w", t.Seq, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+h.addr+"/task", bytes.NewReader(body))
	if err != nil {
		return Reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return Reply{}, fmt.Errorf("%w: %s: %v", ErrWorkerLost, h.addr, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return Reply{}, fmt.Errorf("%w: %s answered %d", ErrWorkerLost, h.addr, resp.StatusCode)
	}
	var r Reply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return Reply{}, fmt.Errorf("%w: %s: corrupt reply: %v", ErrWorkerLost, h.addr, err)
	}
	return r, nil
}

// Ping implements Transport.
func (h *HTTPTransport) Ping(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+h.addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrWorkerLost, h.addr, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: %s healthz answered %d", ErrWorkerLost, h.addr, resp.StatusCode)
	}
	return nil
}

// Close implements Transport.
func (h *HTTPTransport) Close() error {
	h.client.CloseIdleConnections()
	return nil
}
