package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// slowSeed marks a submission that must stay running until it is
// canceled: the scan server gets a matrix large enough to outlast the
// test's requests, and the coordinator's worker holds every chunk
// submission with a seed at or above it.
const slowSeed = 1000

// blockSlowChunks wraps a worker so that chunk submissions carrying a
// slow seed hang until the coordinator abandons them.
func blockSlowChunks(t testing.TB, worker *httptest.Server) {
	t.Helper()
	inner := worker.Config.Handler
	release := make(chan struct{})
	worker.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var seed int
		fmt.Sscan(r.URL.Query().Get("seed"), &seed)
		if r.Method == http.MethodPost && seed >= slowSeed {
			select {
			case <-r.Context().Done():
			case <-release:
			}
			http.Error(w, "held", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	})
	t.Cleanup(func() { close(release) })
}

// contractAPI is one runner behind the job API with room for a single
// active job.
type contractAPI struct {
	url string
	// job returns the body and query of a submission: a quick scan, or
	// a slow one that runs until it is canceled.
	job func(slow bool, seed int) ([]byte, string)
}

func startServerAPI(t *testing.T, ttl time.Duration) contractAPI {
	s := server.New()
	s.MaxRunning, s.MaxQueued = 1, 0
	s.TTL, s.EventPoll = ttl, 5*time.Millisecond
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	quick, big := fleetBody(t, 16, 12, 4), fleetBody(t, 200, 300, 4)
	return contractAPI{ts.URL, func(slow bool, seed int) ([]byte, string) {
		if slow {
			return big, fmt.Sprintf("permutations=30&workers=1&seed=%d", seed+slowSeed)
		}
		return quick, fmt.Sprintf("permutations=8&seed=%d", seed)
	}}
}

func startCoordinatorAPI(t *testing.T, ttl time.Duration) contractAPI {
	c, workers := newFleet(t, 1)
	blockSlowChunks(t, workers[0])
	c.MaxActiveScans, c.TTL = 1, ttl
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	body := fleetBody(t, 16, 12, 4)
	return contractAPI{ts.URL, func(slow bool, seed int) ([]byte, string) {
		if slow {
			seed += slowSeed
		}
		return body, fmt.Sprintf("permutations=8&tile=4&seed=%d", seed)
	}}
}

// submit posts one job and returns the response with its body read.
func (a contractAPI) submit(t *testing.T, slow bool, seed int) (*http.Response, []byte) {
	t.Helper()
	body, params := a.job(slow, seed)
	resp, err := http.Post(a.url+"/jobs?"+params, "text/tab-separated-values", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

// start submits a job that must be admitted and returns its id and key.
func (a contractAPI) start(t *testing.T, slow bool, seed int) (id, key string) {
	t.Helper()
	resp, body := a.submit(t, slow, seed)
	var sub struct{ ID, Key string }
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &sub) != nil || sub.ID == "" || sub.Key == "" {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	return sub.ID, sub.Key
}

func (a contractAPI) do(t *testing.T, method, path string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, a.url+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

// waitState polls a job until it reports want.
func (a contractAPI) waitState(t *testing.T, id string, want server.JobState) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := a.do(t, http.MethodGet, "/jobs/"+id)
		var st server.Status
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &st) != nil {
			t.Fatalf("status of %s: %d %s", id, resp.StatusCode, body)
		}
		if st.State == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// cancel deletes a job and waits until it reports canceled.
func (a contractAPI) cancel(t *testing.T, id string) {
	t.Helper()
	if resp, body := a.do(t, http.MethodDelete, "/jobs/"+id); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE %s: %d %s", id, resp.StatusCode, body)
	}
	a.waitState(t, id, server.StateCanceled)
}

// TestJobAPIContract runs the job API's route contract against both
// runners: the scan server and the fleet coordinator.
func TestJobAPIContract(t *testing.T) {
	subRoutes := []string{"", "/network", "/result", "/support", "/events"}
	cases := []struct {
		name string
		ttl  time.Duration
		run  func(t *testing.T, a contractAPI)
	}{
		{"unknown id is 404", 0, func(t *testing.T, a contractAPI) {
			for _, path := range subRoutes {
				if resp, _ := a.do(t, http.MethodGet, "/jobs/never-issued"+path); resp.StatusCode != http.StatusNotFound {
					t.Fatalf("GET %s: %d, want 404", path, resp.StatusCode)
				}
			}
			if resp, _ := a.do(t, http.MethodDelete, "/jobs/never-issued"); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("DELETE: %d, want 404", resp.StatusCode)
			}
		}},
		{"evicted id is 410 with the key", time.Millisecond, func(t *testing.T, a contractAPI) {
			id, key := a.start(t, false, 1)
			deadline := time.Now().Add(120 * time.Second)
			for {
				resp, _ := a.do(t, http.MethodGet, "/jobs/"+id)
				if resp.StatusCode == http.StatusGone {
					break
				}
				if resp.StatusCode != http.StatusOK || time.Now().After(deadline) {
					t.Fatalf("job %s: %d while waiting for eviction", id, resp.StatusCode)
				}
				time.Sleep(5 * time.Millisecond)
			}
			for _, path := range subRoutes {
				resp, body := a.do(t, http.MethodGet, "/jobs/"+id+path)
				var gone struct{ Error, Key string }
				if resp.StatusCode != http.StatusGone || json.Unmarshal(body, &gone) != nil || gone.Key != key || gone.Error == "" {
					t.Fatalf("GET %s after eviction: %d %s, want 410 with key %s", path, resp.StatusCode, body, key)
				}
			}
		}},
		{"results are 409 before done", 0, func(t *testing.T, a contractAPI) {
			id, _ := a.start(t, true, 1)
			for _, path := range []string{"/network", "/result", "/support"} {
				resp, body := a.do(t, http.MethodGet, "/jobs/"+id+path)
				if resp.StatusCode != http.StatusConflict || !strings.HasPrefix(string(body), "job is ") {
					t.Fatalf("GET %s before done: %d %q, want 409 \"job is <state>\"", path, resp.StatusCode, body)
				}
			}
			a.cancel(t, id)
		}},
		{"429 carries Retry-After", 0, func(t *testing.T, a contractAPI) {
			id, _ := a.start(t, true, 1)
			resp, body := a.submit(t, false, 2)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("submit past capacity: %d %s, want 429", resp.StatusCode, body)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Fatalf("Retry-After = %q, want \"1\"", ra)
			}
			a.cancel(t, id)
		}},
		{"DELETE is 204", 0, func(t *testing.T, a contractAPI) {
			id, _ := a.start(t, true, 1)
			a.cancel(t, id)
		}},
		{"SSE ends on exactly one terminal event", 0, func(t *testing.T, a contractAPI) {
			id, _ := a.start(t, false, 1)
			resp, err := http.Get(a.url + "/jobs/" + id + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var names []string
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
					names = append(names, name)
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				if terminal := name != "progress"; terminal != (i == len(names)-1) {
					t.Fatalf("events %v: want progress events then one terminal event", names)
				}
			}
			if len(names) == 0 || names[len(names)-1] != "done" {
				t.Fatalf("events %v: want a final done", names)
			}
		}},
		{"GET /jobs lists oldest first", 0, func(t *testing.T, a contractAPI) {
			first, _ := a.start(t, false, 1)
			a.waitState(t, first, server.StateDone)
			second, _ := a.start(t, false, 2)
			resp, body := a.do(t, http.MethodGet, "/jobs")
			var list []server.Status
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &list) != nil {
				t.Fatalf("GET /jobs: %d %s", resp.StatusCode, body)
			}
			if len(list) != 2 || list[0].ID != first || list[1].ID != second {
				t.Fatalf("GET /jobs = %s, want %s then %s", body, first, second)
			}
			a.waitState(t, second, server.StateDone)
		}},
	}
	for _, sys := range []struct {
		name  string
		start func(*testing.T, time.Duration) contractAPI
	}{
		{"server", startServerAPI},
		{"coordinator", startCoordinatorAPI},
	} {
		for _, c := range cases {
			t.Run(sys.name+"/"+c.name, func(t *testing.T) {
				c.run(t, sys.start(t, c.ttl))
			})
		}
	}
}

// fakeClock is an injectable lifecycle clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestFleetCacheHitAgesFromItsOwnEnd is the regression test for cache
// hits evicted on their scan's clock: a hit on a scan that finished
// longer than TTL ago must stay queryable for a full TTL from its own
// submission.
func TestFleetCacheHitAgesFromItsOwnEnd(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	c, _ := newFleet(t, 1)
	c.TTL, c.CacheTTL = time.Minute, time.Hour
	c.now = clk.now
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	body, cfg := fleetBody(t, 16, 12, 4), scanConfig(t)

	id, _, err := c.Submit(body, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Minute)
	hitID, hit, err := c.Submit(body, cfg)
	if err != nil || !hit {
		t.Fatalf("resubmission: hit=%v err=%v, want a cache hit", hit, err)
	}
	get := func(id string) int {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(hitID); code != http.StatusOK {
		t.Fatalf("fresh cache hit %s: %d, want 200", hitID, code)
	}
	if code := get(id); code != http.StatusGone {
		t.Fatalf("original job %s two TTLs after its end: %d, want 410", id, code)
	}
	clk.advance(59 * time.Second)
	if code := get(hitID); code != http.StatusOK {
		t.Fatalf("cache hit %s within TTL: %d, want 200", hitID, code)
	}
	clk.advance(2 * time.Second)
	if code := get(hitID); code != http.StatusGone {
		t.Fatalf("cache hit %s past TTL: %d, want 410", hitID, code)
	}
}

// TestFleetJobsGaugeCountsReportedState: a canceled watcher of a scan
// that still runs for another watcher reports canceled, and the
// tinge_fleet_jobs gauge counts it as canceled too.
func TestFleetJobsGaugeCountsReportedState(t *testing.T) {
	a := startCoordinatorAPI(t, 0)
	first, _ := a.start(t, true, 1)
	second, _ := a.start(t, true, 1) // the same scan: a second watcher
	a.waitState(t, second, server.StateRunning)
	a.cancel(t, first)

	_, scrape := a.do(t, http.MethodGet, "/metrics")
	for state, want := range map[string]string{"running": "1", "canceled": "1", "queued": "0"} {
		line := `tinge_fleet_jobs{state="` + state + `"} ` + want + "\n"
		if !strings.Contains(string(scrape), line) {
			t.Errorf("metrics lack %q:\n%s", line, scrape)
		}
	}
	a.cancel(t, second)
}
