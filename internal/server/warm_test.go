package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fssim/internal/core"
	"fssim/internal/pltstore"
)

func warmServerConfig(dir string) Config {
	return Config{Scale: 0.1, Seed: 1, Workers: 2, Deadline: time.Minute, WarmDir: dir}
}

func accelRequest() RunRequest {
	return RunRequest{Benchmark: "srv-ok", Mode: "accel", Scale: 0.1, Seed: 1}
}

// TestServerWarmRestart is the restart story the store exists for: a second
// server process pointed at the same warm directory serves the identical
// accelerated request byte-for-byte from the snapshot, without simulating or
// learning anything.
func TestServerWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1, c1 := newTestServer(t, warmServerConfig(dir))
	cold, err := c1.Run(ctx, accelRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.Scheduler().Stats(); st.WarmSaves != 1 {
		t.Fatalf("first server saved %d snapshots, want 1: %+v", st.WarmSaves, st)
	}

	s2, c2 := newTestServer(t, warmServerConfig(dir))
	warm, err := c2.Run(ctx, accelRequest())
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Scheduler().Stats()
	if st.WarmHits != 1 || st.WarmInvalid != 0 {
		t.Errorf("restarted server: warm hits %d invalid %d, want 1 hit", st.WarmHits, st.WarmInvalid)
	}
	if st.PLTLearned != 0 {
		t.Errorf("restarted server learned %d instances, want 0 (replayed, nothing simulated)", st.PLTLearned)
	}
	if !bytes.Equal(warm.Body, cold.Body) {
		t.Errorf("replayed response differs from the cold one:\n warm: %s\n cold: %s", warm.Body, cold.Body)
	}

	// A corrupt snapshot degrades the next restart to cold simulation — same
	// bytes, the file quarantined at startup, never an error to the client.
	paths, err := pltstore.Open(dir).List("srv-ok")
	if err != nil || len(paths) != 1 {
		t.Fatalf("List = (%v, %v), want one snapshot", paths, err)
	}
	if err := os.WriteFile(paths[0], []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, c3 := newTestServer(t, warmServerConfig(dir))
	fallback, err := c3.Run(ctx, accelRequest())
	if err != nil {
		t.Fatal(err)
	}
	// The startup recovery sweep quarantines the corrupt snapshot before the
	// request arrives, so the run is a plain cold miss, not an invalidation.
	if st := s3.Scheduler().Stats(); st.WarmRecoveredQuarantined != 1 || st.WarmInvalid != 0 || st.WarmHits != 0 {
		t.Errorf("corrupt store: recovered quarantined %d invalid %d hits %d, want 1 quarantined 0 invalid 0 hits",
			st.WarmRecoveredQuarantined, st.WarmInvalid, st.WarmHits)
	}
	if !bytes.Equal(fallback.Body, cold.Body) {
		t.Error("cold fallback after corrupt snapshot produced a different response body")
	}
}

// TestSnapshotEndpoint covers GET /v1/plt/{benchmark}: the raw snapshot bytes
// once an accelerated run persisted them, and 404s for every absence.
func TestSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, c := newTestServer(t, warmServerConfig(dir))

	// Before any accelerated run: no snapshot yet.
	if _, err := c.Snapshot(ctx, "srv-ok"); !errors.As(err, new(*APIError)) {
		t.Fatalf("Snapshot before any run = %v, want *APIError (404)", err)
	}
	if _, err := c.Run(ctx, accelRequest()); err != nil {
		t.Fatal(err)
	}
	data, err := c.Snapshot(ctx, "srv-ok")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := pltstore.Decode(data)
	if err != nil {
		t.Fatalf("served snapshot does not decode: %v", err)
	}
	if snap.Benchmark != "srv-ok" {
		t.Errorf("served snapshot is for %q, want srv-ok", snap.Benchmark)
	}
	// The served bytes are exactly the on-disk file.
	paths, _ := pltstore.Open(dir).List("srv-ok")
	if len(paths) != 1 {
		t.Fatalf("want one snapshot on disk, have %v", paths)
	}
	disk, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, disk) {
		t.Error("served snapshot bytes differ from the on-disk file")
	}

	// Unknown benchmark and corrupt newest file both 404.
	if _, err := c.Snapshot(ctx, "no-such-bench"); !errors.As(err, new(*APIError)) {
		t.Errorf("Snapshot(no-such-bench) = %v, want *APIError", err)
	}
	if err := os.WriteFile(paths[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(ctx, "srv-ok"); !errors.As(err, new(*APIError)) {
		t.Errorf("Snapshot of corrupt file = %v, want *APIError (404, never garbage bytes)", err)
	}
	_ = s

	// A server without a warm dir 404s the whole endpoint.
	_, cNoWarm := newTestServer(t, Config{Scale: 0.1, Seed: 1, Workers: 2})
	var ae *APIError
	if _, err := cNoWarm.Snapshot(ctx, "srv-ok"); !errors.As(err, &ae) || ae.StatusCode != 404 {
		t.Errorf("Snapshot without warm dir = %v, want 404", err)
	}
}

// TestDrainFlushesWarm: the drain-time artifact flush re-persists every
// completed accelerated run even if the per-run save was lost.
func TestDrainFlushesWarm(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, c := newTestServer(t, warmServerConfig(dir))
	if _, err := c.Run(ctx, accelRequest()); err != nil {
		t.Fatal(err)
	}
	store := pltstore.Open(dir)
	paths, err := store.List("")
	if err != nil || len(paths) != 1 {
		t.Fatalf("List = (%v, %v), want one snapshot", paths, err)
	}
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	paths, err = store.List("")
	if err != nil || len(paths) != 1 {
		t.Errorf("after drain: List = (%v, %v), want the snapshot restored", paths, err)
	}
	if len(paths) == 1 {
		if _, err := os.Stat(filepath.Join(dir, filepath.Base(paths[0]))); err != nil {
			t.Errorf("restored snapshot not under the warm dir: %v", err)
		}
	}
}

// TestMemoHitServesStoredBody: a memo hit serves the first response's bytes
// and degraded flag, and GET /v1/runs/{id} the same bytes. The run is made
// degraded by restarting over a snapshot whose learner the watchdog demoted,
// so its warm replay ends with an unhealthy accelerator.
func TestMemoHitServesStoredBody(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, c1 := newTestServer(t, warmServerConfig(dir))
	if _, err := c1.Run(ctx, accelRequest()); err != nil {
		t.Fatal(err)
	}
	store := pltstore.Open(dir)
	paths, err := store.List("srv-ok")
	if err != nil || len(paths) != 1 {
		t.Fatalf("List = (%v, %v), want one snapshot", paths, err)
	}
	snap, err := store.LoadPath(paths[0])
	if err != nil || len(snap.State.Learners) == 0 {
		t.Fatalf("snapshot = %v (err %v), want one with a learner", snap, err)
	}
	// The phase numbering is core's own; take the value Health counts as
	// degraded.
	degraded := false
	for ph := 0; ph < 8 && !degraded; ph++ {
		snap.State.Learners[0].Phase = ph
		acc := core.NewAccelerator(snap.State.Params)
		degraded = acc.Import(snap.State) == nil && !acc.Health().Healthy()
	}
	if !degraded {
		t.Fatal("no learner phase reads as degraded")
	}
	if err := store.Save(snap); err != nil {
		t.Fatal(err)
	}

	srv := New(warmServerConfig(dir))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	body, err := json.Marshal(accelRequest())
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path string, reqBody []byte) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, hs.URL+path, bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d, %s (err %v)", method, path, resp.StatusCode, b, err)
		}
		return resp, b
	}
	first, firstBody := do(http.MethodPost, "/v1/runs", body)
	hit, hitBody := do(http.MethodPost, "/v1/runs", body)
	if st := srv.Scheduler().Stats(); st.WarmHits != 1 {
		t.Fatalf("warm hits %d, want the first request replayed from the snapshot", st.WarmHits)
	}
	if c := hit.Header.Get("X-Fssim-Cache"); c != "hit" {
		t.Fatalf("second request cache status %q, want hit", c)
	}
	for _, r := range []*http.Response{first, hit} {
		if d := r.Header.Get("X-Fssim-Degraded"); d != "true" {
			t.Errorf("%s response: X-Fssim-Degraded = %q, want true", r.Header.Get("X-Fssim-Cache"), d)
		}
	}
	if !bytes.Equal(hitBody, firstBody) {
		t.Errorf("memo hit body differs from the first response:\n%s\n%s", hitBody, firstBody)
	}
	var resp RunResponse
	if err := json.Unmarshal(firstBody, &resp); err != nil || !resp.Degraded {
		t.Fatalf("response %s does not report the degraded run (err %v)", firstBody, err)
	}
	if _, idBody := do(http.MethodGet, "/v1/runs/"+resp.ID, nil); !bytes.Equal(idBody, firstBody) {
		t.Errorf("GET /v1/runs/%s body differs from the POST body", resp.ID)
	}
}
