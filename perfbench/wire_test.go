package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The counting transport must report exactly the body sizes a server with
// known replies sends and receives, per path.
func TestWireCounterCountsKnownBodies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // test server
		switch r.URL.Path {
		case "/dist/output":
			w.Write(bytes.Repeat([]byte("x"), 1000)) //nolint:errcheck
		case "/dist/lease":
			w.Write([]byte(`{"wait_ms":250}`)) //nolint:errcheck
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	wire := newWireCounter(http.DefaultTransport)
	client := &http.Client{Transport: wire}

	get := func(path string) {
		t.Helper()
		res, err := client.Get(srv.URL + path + "?seq=1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body) //nolint:errcheck
		res.Body.Close()
	}
	before := wire.Snapshot()
	get("/dist/output")
	get("/dist/output")
	get("/missing")
	res, err := client.Post(srv.URL+"/dist/lease", "application/json", strings.NewReader(`{"worker_id":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body) //nolint:errcheck
	res.Body.Close()

	d := wireDelta(before, wire.Snapshot())
	if s := d["/dist/output"]; s.Calls != 2 || s.RespBytes != 2000 || s.ReqBytes != 0 || s.Seconds <= 0 {
		t.Errorf("/dist/output = %+v, want 2 calls, 2000 response bytes, no request bytes", s)
	}
	if s := d["/dist/lease"]; s.Calls != 1 || s.ReqBytes != int64(len(`{"worker_id":1}`)) ||
		s.RespBytes != int64(len(`{"wait_ms":250}`)) {
		t.Errorf("/dist/lease = %+v, want 1 call, 15 request and 15 response bytes", s)
	}
	if s := d["/missing"]; s.Calls != 1 {
		t.Errorf("/missing = %+v, want the 404 counted as a call", s)
	}
}

// A call that never reaches a server still counts, with no response bytes.
func TestWireCounterCountsFailedCalls(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	wire := newWireCounter(http.DefaultTransport)
	if _, err := (&http.Client{Transport: wire}).Get(url + "/dist/heartbeat"); err == nil {
		t.Fatal("call to a closed server succeeded")
	}
	if s := wire.Snapshot()["/dist/heartbeat"]; s.Calls != 1 || s.RespBytes != 0 {
		t.Errorf("/dist/heartbeat = %+v, want 1 call, no bytes", s)
	}
}

func TestWireDeltaSubtractsPerPath(t *testing.T) {
	before := map[string]wireStat{"/a": {Calls: 1, ReqBytes: 2, RespBytes: 3, Seconds: 0.5}}
	after := map[string]wireStat{
		"/a": {Calls: 4, ReqBytes: 4, RespBytes: 9, Seconds: 1.5},
		"/b": {Calls: 1, RespBytes: 7},
	}
	d := wireDelta(before, after)
	if d["/a"] != (wireStat{Calls: 3, ReqBytes: 2, RespBytes: 6, Seconds: 1}) || d["/b"] != after["/b"] {
		t.Errorf("delta = %+v", d)
	}
}
