package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// client is the load generator's HTTP client: no retries (a failed
// request is a failed op), at most conns connections, and every request
// stamped with a fresh id for span correlation.
type client struct {
	base string
	hc   *http.Client
	rec  *recorder
	ids  atomic.Uint64
}

func newClient(base string, conns int, rec *recorder) *client {
	return &client{base: base, rec: rec, hc: &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

// call sends body as JSON and decodes a want-status reply into out.
func (c *client) call(method, path string, body, out any, want int) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	id := c.ids.Add(1)
	req.Header.Set(idHeader, strconv.FormatUint(id, 10))
	req.Header.Set("Content-Type", "application/json")
	start := c.rec.now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.rec.record(span{ID: id, Layer: "client", Kind: requestKind(req), Start: start, End: c.rec.now()})
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// server is one in-process listener on an ephemeral loopback port.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close shuts the listener and its connections and waits for Serve.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}
