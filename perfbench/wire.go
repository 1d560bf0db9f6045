package main

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// wireStat is the traffic of one endpoint path as the client saw it.
type wireStat struct {
	Calls     int64
	ReqBytes  int64
	RespBytes int64
	// Seconds sums, per call, the time from sending the request until the
	// caller closed the response body: the whole exchange, transfer included.
	Seconds float64
}

// wireCounter is an http.RoundTripper that counts every call per URL path on
// its way to base. Plugged into DistWorkerOptions.Transport it is the only
// view of the shuffle from outside the program: /dist/output carries map
// output partitions, /dist/cache candidate blobs, and /dist/lease,
// /dist/complete and /dist/heartbeat the master protocol.
type wireCounter struct {
	base http.RoundTripper

	mu    sync.Mutex
	paths map[string]*wireStat
}

func newWireCounter(base http.RoundTripper) *wireCounter {
	return &wireCounter{base: base, paths: map[string]*wireStat{}}
}

// RoundTrip forwards req to base. Request bytes are the declared
// ContentLength: the workers send only in-memory bodies, whose length the
// request carries. Response bytes are counted as the caller reads them.
func (c *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	sent := req.ContentLength
	if sent < 0 {
		sent = 0
	}
	start := time.Now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.add(path, sent, 0, time.Since(start))
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, onClose: func(n int64) {
		c.add(path, sent, n, time.Since(start))
	}}
	return resp, nil
}

func (c *wireCounter) add(path string, req, resp int64, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.paths[path]
	if s == nil {
		s = &wireStat{}
		c.paths[path] = s
	}
	s.Calls++
	s.ReqBytes += req
	s.RespBytes += resp
	s.Seconds += d.Seconds()
}

// Snapshot copies the per-path totals so far.
func (c *wireCounter) Snapshot() map[string]wireStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]wireStat, len(c.paths))
	for p, s := range c.paths {
		out[p] = *s
	}
	return out
}

// wireDelta is after minus before, path by path.
func wireDelta(before, after map[string]wireStat) map[string]wireStat {
	out := make(map[string]wireStat, len(after))
	for p, a := range after {
		b := before[p]
		out[p] = wireStat{Calls: a.Calls - b.Calls, ReqBytes: a.ReqBytes - b.ReqBytes,
			RespBytes: a.RespBytes - b.RespBytes, Seconds: a.Seconds - b.Seconds}
	}
	return out
}

// countingBody counts the bytes read through it and reports the total once,
// on the first Close.
type countingBody struct {
	io.ReadCloser
	n       atomic.Int64
	once    sync.Once
	onClose func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.onClose(b.n.Load()) })
	return err
}
