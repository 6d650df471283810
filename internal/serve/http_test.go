package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHTTPRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"cycles":1200,"warmupCycles":1000,"seed":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("bad response body: %v\n%s", err, body)
	}
	if len(rr.Key) != 64 || rr.Cached || rr.Result.PacketsDelivered == 0 {
		t.Fatalf("unexpected response: key=%q cached=%v delivered=%d", rr.Key, rr.Cached, rr.Result.PacketsDelivered)
	}

	// The duplicate comes back cached with the same key.
	resp2, body2 := postJSON(t, ts.URL+"/v1/run", `{"cycles":1200,"warmupCycles":1000,"seed":5}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate status %d: %s", resp2.StatusCode, body2)
	}
	var rr2 RunResponse
	if err := json.Unmarshal(body2, &rr2); err != nil {
		t.Fatal(err)
	}
	if !rr2.Cached || rr2.Key != rr.Key {
		t.Fatalf("duplicate not served from cache: %+v", rr2)
	}
}

func TestHTTPRunRejectsBadBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []string{
		`{"cyclez":100}`,
		`{"architecture":"hypercube"}`,
		`not json`,
		`{"cycles":100}{"cycles":200}`,
	}
	for _, body := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/run", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestHTTPSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", `{
		"base": {"cycles": 1200, "warmupCycles": 1000, "seed": 6},
		"architectures": ["firefly", "d-hetpnoc"],
		"loadScales": [0.5, 1]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 4 {
		t.Fatalf("sweep returned %d points, want 4", len(sr.Points))
	}
	keys := map[string]bool{}
	for i, p := range sr.Points {
		if p.Result.PacketsDelivered == 0 {
			t.Errorf("point %d delivered an empty result", i)
		}
		keys[p.Key] = true
	}
	if len(keys) != 4 {
		t.Fatalf("sweep points share keys: %d distinct of 4", len(keys))
	}
}

// TestHTTPSweepThroughPool pins that every sweep point is an ordinary
// pool job: a point already in the result cache is served from it, each
// other point runs its own simulation and publishes it to the cache, and
// every result is byte-identical to the standalone /v1/run result for
// the same config.
func TestHTTPSweepThroughPool(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	// Prime the cache with one of the sweep's points.
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"cycles":1200,"warmupCycles":1000,"seed":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime status %d: %s", resp.StatusCode, body)
	}
	var primed RunResponse
	if err := json.Unmarshal(body, &primed); err != nil {
		t.Fatal(err)
	}
	before := s.Metrics()

	resp, body = postJSON(t, ts.URL+"/v1/sweep", `{
		"base": {"cycles": 1200, "warmupCycles": 1000},
		"seeds": [1, 2, 3],
		"loadScales": [1, 2]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 6 {
		t.Fatalf("sweep returned %d points, want 6", len(sr.Points))
	}
	var simulated, cached int
	for i, p := range sr.Points {
		switch {
		case p.Cached:
			cached++
			if p.Key != primed.Key {
				t.Errorf("point %d cached under key %s, primed key was %s", i, p.Key, primed.Key)
			}
		case p.Coalesced:
			t.Errorf("point %d coalesced, but the sweep has no duplicate points", i)
		default:
			simulated++
		}
		if p.Result.PacketsDelivered == 0 {
			t.Errorf("point %d delivered an empty result", i)
		}
	}
	if cached != 1 || simulated != 5 {
		t.Fatalf("got %d cached and %d simulated points, want 1 and 5", cached, simulated)
	}
	if got := s.Metrics().Completed - before.Completed; got != 5 {
		t.Errorf("sweep completed %d simulations, want 5", got)
	}

	// A sweep point's result matches the standalone run byte for byte.
	resp, body = postJSON(t, ts.URL+"/v1/run", `{"cycles":1200,"warmupCycles":1000,"seed":3,"loadScale":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solo status %d: %s", resp.StatusCode, body)
	}
	var solo RunResponse
	if err := json.Unmarshal(body, &solo); err != nil {
		t.Fatal(err)
	}
	if !solo.Cached {
		t.Error("sweep did not publish its results to the cache")
	}
	for _, p := range sr.Points {
		if p.Key != solo.Key {
			continue
		}
		a, err := p.Result.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := solo.Result.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("sweep point diverges from the standalone run:\nsweep: %s\nsolo:  %s", a, b)
		}
	}
}

func TestHTTPHealthzAndMetricsz(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers != 1 || m.QueueCapacity != 2 {
		t.Fatalf("metrics = %+v, want 1 worker, queue capacity 2", m)
	}

	// Draining flips healthz to 503.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
}

func TestHTTPMethodRouting(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /v1/run should not succeed")
	}
}

// TestHTTPSweepDuplicatePoints: seed 0 normalizes to seed 1, so the two
// points share one content key and one simulation, and both carry the
// same result bytes.
func TestHTTPSweepDuplicatePoints(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", `{
		"base": {"cycles": 1200, "warmupCycles": 1000},
		"seeds": [0, 1]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr struct {
		Points []struct {
			Key    string          `json:"key"`
			Result json.RawMessage `json:"result"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 2 {
		t.Fatalf("sweep returned %d points, want 2", len(sr.Points))
	}
	a, b := sr.Points[0], sr.Points[1]
	if a.Key != b.Key {
		t.Errorf("points have keys %s and %s, want one", a.Key, b.Key)
	}
	if string(a.Result) != string(b.Result) {
		t.Errorf("duplicate points diverge:\n%s\n%s", a.Result, b.Result)
	}
	if m := s.Metrics(); m.Completed != 1 {
		t.Errorf("duplicate points ran %d simulations, want 1", m.Completed)
	}
}
