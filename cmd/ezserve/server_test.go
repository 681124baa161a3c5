package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// newTestServer builds a server backed by a throwaway cache directory
// and returns it with an httptest front end.
func newTestServer(t *testing.T, cacheDir string) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(serverOptions{cacheDir: cacheDir, parallel: 2, maxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.shutdown()
		s.wait()
	})
	return s, ts
}

// submitBody is the tiny sweep every test submits: 2 points × 2 reps of
// a 5-simulated-second chain.
const submitBody = `{"name":"t","sweeps":["hops=2,3"],"reps":2,"base_seed":5,"duration_sec":5}`

// submit POSTs a campaign and returns its accepted status.
func submit(t *testing.T, ts *httptest.Server, body string) jobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// await polls a campaign until it reaches a terminal state.
func await(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if terminal(st.State) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s never finished", id)
	return jobStatus{}
}

// get fetches a URL, asserting the status code.
func get(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d: %s", url, resp.StatusCode, wantCode, b)
	}
	return b
}

// TestServeCampaignLifecycle walks the whole API: submit, await, fetch
// result and CSV, then resubmit and require a 100% cache-hit replay
// with byte-identical output — the serving form of the warm-cache pin.
func TestServeCampaignLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, ts := newTestServer(t, filepath.Join(t.TempDir(), "cache"))

	st := submit(t, ts, submitBody)
	if st.ID == "" || st.Total != 4 || st.Points != 2 || st.Reps != 2 {
		t.Fatalf("accepted status = %+v", st)
	}
	fin := await(t, ts, st.ID)
	if fin.State != "completed" || fin.Done != 4 {
		t.Fatalf("final status = %+v", fin)
	}
	if fin.CacheMisses != 4 || fin.CacheHits != 0 {
		t.Errorf("cold campaign: %d hits / %d misses, want 0/4", fin.CacheHits, fin.CacheMisses)
	}

	coldJSON := get(t, ts.URL+"/campaigns/"+st.ID+"/result", http.StatusOK)
	coldCSV := get(t, ts.URL+"/campaigns/"+st.ID+"/result.csv", http.StatusOK)
	if !bytes.Contains(coldCSV, []byte("agg_kbps")) {
		t.Error("CSV result lacks its header")
	}

	// Resubmit the identical sweep: served entirely from the fabric store.
	st2 := submit(t, ts, submitBody)
	fin2 := await(t, ts, st2.ID)
	if fin2.State != "completed" {
		t.Fatalf("replay status = %+v", fin2)
	}
	if fin2.CacheMisses != 0 || fin2.CacheHits != 4 {
		t.Errorf("replay: %d hits / %d misses, want 4/0", fin2.CacheHits, fin2.CacheMisses)
	}
	warmJSON := get(t, ts.URL+"/campaigns/"+st2.ID+"/result", http.StatusOK)
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Error("cache-served result diverges from the simulated one")
	}

	// The listing shows both, in submission order.
	var list []jobStatus
	if err := json.Unmarshal(get(t, ts.URL+"/campaigns", http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != st.ID || list[1].ID != st2.ID {
		t.Errorf("listing = %+v", list)
	}

	// Stats and metrics reflect the traffic.
	var stats statsResponse
	if err := json.Unmarshal(get(t, ts.URL+"/stats", http.StatusOK), &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Cache.Enabled || stats.Cache.Hits != 4 || stats.Cache.Misses != 4 || stats.Cache.Entries != 4 {
		t.Errorf("stats = %+v", stats.Cache)
	}
	if stats.Campaigns.Completed != 2 {
		t.Errorf("completed = %d, want 2", stats.Campaigns.Completed)
	}
	metrics := get(t, ts.URL+"/metrics", http.StatusOK)
	for _, name := range []string{"fabric.cache.hits", "fabric.workers.active", "serve.campaigns.completed"} {
		if !bytes.Contains(metrics, []byte(name)) {
			t.Errorf("metrics snapshot lacks %s", name)
		}
	}
}

// TestServeEvents reads the NDJSON stream to completion: at least one
// progress line, ending with a terminal line.
func TestServeEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, ts := newTestServer(t, "")
	st := submit(t, ts, submitBody)
	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	var last jobStatus
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || !terminal(last.State) {
		t.Errorf("stream ended after %d lines in state %q", lines, last.State)
	}
	if last.State != "completed" || last.Done != 4 {
		t.Errorf("final event = %+v", last)
	}
}

// TestServeErrors pins the failure surfaces: malformed and invalid
// submissions are 400s, unknown campaigns 404, early result fetches 409.
func TestServeErrors(t *testing.T) {
	s, ts := newTestServer(t, "")

	for _, body := range []string{
		`{not json`,
		`{"sweeps":["bogus=1"]}`,
		`{"sweeps":["hops=2"],"unknown_field":1}`,
		`{"axes":[{"name":"mode","values":["warp-drive"]}]}`,
		// Hostile sizes: each would exhaust memory if accepted.
		`{"sweeps":["hops=2"],"reps":1000000000000}`,
		`{"sweeps":["hops=1..2000000000"]}`,
		`{"scenario":{"topology":{"kind":"tree","depth":20}}}`,
		`{"sweeps":["topology=grid","hops=5000"]}`,
	} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// The server survived the hostile bodies and still serves.
	get(t, ts.URL+"/stats", http.StatusOK)
	get(t, ts.URL+"/campaigns/c9999", http.StatusNotFound)
	get(t, ts.URL+"/campaigns/c9999/result", http.StatusNotFound)

	// A queued campaign has no result yet: occupy the server's single
	// execution slot so the submission cannot start (simulations finish
	// too fast to catch in flight reliably).
	s.active <- struct{}{}
	st := submit(t, ts, `{"name":"queued","sweeps":["hops=2"],"reps":1,"duration_sec":5}`)
	if body := get(t, ts.URL+"/campaigns/"+st.ID+"/result", http.StatusConflict); !bytes.Contains(body, []byte("not ready")) {
		t.Errorf("early result fetch = %s", body)
	}
	<-s.active
}

// TestServeShutdownInterruptsQueued checks shutdown marks queued
// campaigns interrupted instead of leaving clients hanging.
func TestServeShutdownInterruptsQueued(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s, ts := newTestServer(t, "")
	// Fill the single execution slot, then queue another campaign.
	first := submit(t, ts, submitBody)
	second := submit(t, ts, submitBody)
	s.shutdown()
	s.wait()
	for _, id := range []string{first.ID, second.ID} {
		st := await(t, ts, id)
		if !terminal(st.State) {
			t.Errorf("campaign %s left in state %q after shutdown", id, st.State)
		}
	}
	var stats statsResponse
	if err := json.Unmarshal(get(t, ts.URL+"/stats", http.StatusOK), &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.Campaigns.Completed + stats.Campaigns.Interrupted; got != 2 {
		t.Errorf("completed+interrupted = %d, want 2 (%+v)", got, stats.Campaigns)
	}
}

// TestJobIDsSequential pins the ID scheme clients script against.
func TestJobIDsSequential(t *testing.T) {
	_, ts := newTestServer(t, "")
	for i := 1; i <= 3; i++ {
		st := submit(t, ts, `{"name":"id","sweeps":["hops=2"],"reps":1,"duration_sec":1}`)
		if want := fmt.Sprintf("c%04d", i); st.ID != want {
			t.Errorf("submission %d got ID %q, want %q", i, st.ID, want)
		}
	}
}
