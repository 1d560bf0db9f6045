package dist

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// repeatByte reads as an endless run of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestMasterRejectsOversizedBody posts a well-formed registration one byte
// longer than maxRequestBytes, streamed so the test never holds it, and
// checks the master answers 413 instead of reading it all. A normal
// registration must succeed afterwards.
func TestMasterRejectsOversizedBody(t *testing.T) {
	// The write deadline runs from the request header to the reply, so it
	// must outlast reading the capped body under the race detector.
	m, err := StartMaster(MasterOptions{Addr: "127.0.0.1:0", Tuning: Tuning{HeartbeatTimeout: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	post := func(body io.Reader, n int64) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, m.URL()+"/dist/register", body)
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = n
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	head, tail := `{"addr":"`, `"}`
	n := int64(maxRequestBytes + 1)
	fill := n - int64(len(head)+len(tail))
	resp := post(io.MultiReader(strings.NewReader(head),
		io.LimitReader(repeatByte('a'), fill), strings.NewReader(tail)), n)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte registration got %s, want 413", n, resp.Status)
	}

	ok := `{"addr":"127.0.0.1:1"}`
	resp = post(strings.NewReader(ok), int64(len(ok)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a normal registration after the oversized one got %s", resp.Status)
	}
	var reg RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if reg.HeartbeatMs <= 0 {
		t.Fatalf("registration reply = %+v", reg)
	}
}
