package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
)

// client drives one rating service over HTTP. Its transport opens at
// most conns connections, and never more than the host has CPUs.
type client struct {
	base string
	hc   *http.Client
}

// openConns tracks the load generator's open connections across all
// clients; peak is the most ever open at once.
var openConns struct {
	sync.Mutex
	now, peak int
}

type countedConn struct {
	net.Conn
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() {
		openConns.Lock()
		openConns.now--
		openConns.Unlock()
	})
	return c.Conn.Close()
}

func dialCounted(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	openConns.Lock()
	openConns.now++
	openConns.peak = max(openConns.peak, openConns.now)
	openConns.Unlock()
	return &countedConn{Conn: c}, nil
}

func newClient(base string, conns int) *client {
	conns = min(conns, runtime.NumCPU())
	tr := &http.Transport{
		DialContext:         dialCounted,
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) getJSON(path string, v any) error {
	status, b, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// submit posts one unary batch and checks the ack.
func (c *client) submit(b body) error {
	status, resp, err := c.do(http.MethodPost, "/v1/ratings", b.data)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST /v1/ratings: %d %s", status, bytes.TrimSpace(resp))
	}
	var sr api.SubmitResponse
	if err := json.Unmarshal(resp, &sr); err != nil {
		return err
	}
	if sr.Accepted != len(b.ratings) {
		return fmt.Errorf("POST /v1/ratings: accepted %d of %d", sr.Accepted, len(b.ratings))
	}
	return nil
}

// stream posts one NDJSON body and checks that every line was
// accepted: the summary must have accepted == lines == len(ratings)
// and no rejects or terminal error.
func (c *client) stream(b body) error {
	status, resp, err := c.do(http.MethodPost, "/v1/ratings:stream", b.data)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST /v1/ratings:stream: %d %s", status, bytes.TrimSpace(resp))
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(resp))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var sum api.StreamSummary
	if err := json.Unmarshal(last, &sum); err != nil {
		return fmt.Errorf("stream summary %q: %w", last, err)
	}
	n := len(b.ratings)
	if sum.Accepted != sum.Lines || sum.Accepted != n || sum.Rejected != 0 || sum.Code != "" {
		return fmt.Errorf("stream summary %+v for %d lines", sum, n)
	}
	return nil
}

func (c *client) process(w window) error {
	body, _ := json.Marshal(api.ProcessRequest{Start: w.Start, End: w.End})
	status, resp, err := c.do(http.MethodPost, "/v1/process", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST /v1/process: %d %s", status, bytes.TrimSpace(resp))
	}
	return nil
}

func (c *client) aggregate(obj int) (api.AggregateResponse, error) {
	var a api.AggregateResponse
	err := c.getJSON("/v1/objects/"+strconv.Itoa(obj)+"/aggregate", &a)
	return a, err
}

func (c *client) stats() (api.StatsResponse, error) {
	var s api.StatsResponse
	err := c.getJSON("/v1/stats", &s)
	return s, err
}

func (c *client) trust(rater int) (float64, error) {
	var t api.TrustResponse
	err := c.getJSON("/v1/raters/"+strconv.Itoa(rater)+"/trust", &t)
	return t.Trust, err
}

func (c *client) malicious() ([]int, error) {
	var m api.MaliciousResponse
	err := c.getJSON("/v1/malicious", &m)
	return m.Raters, err
}
