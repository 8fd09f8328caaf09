package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestServeHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("loadex_test_total", "a counter", func() float64 { return 7 })
	srv, err := ServeHTTP("127.0.0.1:0", func() []Sample { return r.Gather() }, func() Health {
		return Health{Rank: 3, Procs: 4, Mech: "snapshot", Detector: "ds", Links: []Link{{Peer: 0, State: "up"}}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "loadex_test_total 7") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	code, body := get("/healthz")
	if code != 200 {
		t.Fatalf("/healthz: code %d", code)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if h.Rank != 3 || h.Mech != "snapshot" || len(h.Links) != 1 || h.UptimeS < 0 {
		t.Fatalf("/healthz content: %+v", h)
	}
	// pprof index must answer — the profile handlers hang off the
	// same mux.
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code %d", code)
	}
}

func TestValidateAddr(t *testing.T) {
	for _, ok := range []string{":0", ":9090", "127.0.0.1:8080", "localhost:0"} {
		if err := ValidateAddr(ok); err != nil {
			t.Errorf("ValidateAddr(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "9090", "host:", "host:notaport", "host:70000", ":-1", "a b:80"} {
		err := ValidateAddr(bad)
		if err == nil {
			t.Errorf("ValidateAddr(%q) accepted", bad)
			continue
		}
		// The -mech/-chaos UX contract: errors list what IS accepted.
		if !strings.Contains(err.Error(), "accepted forms") {
			t.Errorf("ValidateAddr(%q) error lacks the accepted-forms listing: %v", bad, err)
		}
	}
}
