package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/wal"
)

// readMetrics fetches /v1/metrics and checks the write-pipeline and
// per-route gauges are registered.
func readMetrics(t *testing.T, ts *httptest.Server) map[string]interface{} {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var all map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"schemex_http", "schemex_queue"} {
		if _, ok := all[k]; !ok {
			t.Fatalf("metric %s missing from /v1/metrics", k)
		}
	}
	return all
}

// TestTwoServersOneProcess: constructing a second Server (and with it a
// second pass over the metric registrations) in one process must not panic —
// expvar refuses duplicate names, so registration has to be idempotent. Both
// servers serve the shared process-wide counters.
func TestTwoServersOneProcess(t *testing.T) {
	s1, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []*Server{s1, s2} {
		ts := httptest.NewServer(s.Handler())
		readMetrics(t, ts)
		id := createSession(t, ts, sampleText)
		mutateOK(t, ts, id, nthDelta(i))
		ts.Close()
	}
}

// TestShardGranularRecovery: a restart recovers a spilled session from its
// core blob and shard files without recompiling, and the recovered session
// extracts the identical schema.
func TestShardGranularRecovery(t *testing.T) {
	t.Setenv(compile.TestShardsEnv, "4")
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir, SpillEvery: 2})
	id := createSession(t, ts1, chainData(256))
	for i := 0; i < 4; i++ {
		mutateOK(t, ts1, id, fmt.Sprintf("link n%d n%d next\n", i*8, i*8+64))
	}
	want := extractSchema(t, ts1, id)
	ts1.Close()
	s1.Close()

	// The committed manifest names the shard-granular spill.
	m, err := wal.ReadManifest(filepath.Join(dir, sessionsSubdir, id))
	if err != nil {
		t.Fatal(err)
	}
	if m.Core == "" || len(m.Shards) == 0 {
		t.Fatalf("manifest is not shard-granular: %+v", m)
	}
	for _, n := range append([]string{m.Core}, m.Shards...) {
		if _, err := os.Stat(filepath.Join(dir, sessionsSubdir, id, n)); err != nil {
			t.Fatalf("manifest names missing file %s: %v", n, err)
		}
	}

	logs := captureLog(t)
	s2, ts2 := durableServer(t, Config{DataDir: dir, SpillEvery: 2})
	if strings.Contains(logs.String(), "spilled snapshot rejected") {
		t.Fatalf("recovery rejected an intact spill:\n%s", logs.String())
	}
	if got := extractSchema(t, ts2, id); got != want {
		t.Fatalf("recovered schema differs:\n%s\nvs\n%s", got, want)
	}
	// The recovered session keeps accepting mutations and spilling.
	mutateOK(t, ts2, id, "link n1 n200 next\n")
	mutateOK(t, ts2, id, "link n2 n201 next\n")
	ts2.Close()
	s2.Close()
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// captureLog redirects the standard logger into a buffer for the rest of
// the test.
func captureLog(t *testing.T) *syncBuffer {
	t.Helper()
	buf := &syncBuffer{}
	prev := log.Writer()
	log.SetOutput(buf)
	t.Cleanup(func() { log.SetOutput(prev) })
	return buf
}

// recoverDamagedSpill spills a four-shard session, lets damage alter its
// committed spill files, and restarts the server over the directory.
// Recovery must log the rejection (with wantLog in the reason), recompile
// from the graph snapshot instead of refusing the session, serve the schema
// it served before the restart, and keep accepting mutations.
func recoverDamagedSpill(t *testing.T, wantLog string, damage func(sdir string, m wal.Manifest) error) {
	t.Helper()
	t.Setenv(compile.TestShardsEnv, "4")
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir, SpillEvery: 1})
	id := createSession(t, ts1, chainData(256))
	// Growth plus links back across the ID space: the recompile fallback
	// must re-read the graph text with every object on its old ID, or it
	// serves a different schema.
	mutateOK(t, ts1, id, "link n255 n256 next\n")
	mutateOK(t, ts1, id, "link n0 n100 next\nlink n1 n101 next\n")
	want := extractSchema(t, ts1, id)
	ts1.Close()
	s1.Close()

	sdir := filepath.Join(dir, sessionsSubdir, id)
	m, err := wal.ReadManifest(sdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) < 2 || m.Core == "" {
		t.Fatalf("want a multi-shard spill, got %+v", m)
	}
	if err := damage(sdir, m); err != nil {
		t.Fatal(err)
	}

	logs := captureLog(t)
	_, ts2 := durableServer(t, Config{DataDir: dir, SpillEvery: 1})
	got := logs.String()
	if !strings.Contains(got, "spilled snapshot rejected, recompiling") || !strings.Contains(got, wantLog) {
		t.Fatalf("recovery did not log the rejection (want %q):\n%s", wantLog, got)
	}
	if got := extractSchema(t, ts2, id); got != want {
		t.Fatalf("schema after recompile fallback differs:\n%s\nvs\n%s", got, want)
	}
	mutateOK(t, ts2, id, "link n0 n200 next\n")
}

// flipByte flips one bit in the middle of a file: the checksum no longer
// matches, whatever the byte held.
func flipByte(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0x10
	return os.WriteFile(path, data, 0o644)
}

// TestMissingShardFileFallsBackToRecompile: recovery with a missing shard
// file must not refuse the session — the spill is an optimization, so the
// failed load routes recovery to a recompile from the graph snapshot and
// the session serves the identical schema.
func TestMissingShardFileFallsBackToRecompile(t *testing.T) {
	recoverDamagedSpill(t, "no such file", func(sdir string, m wal.Manifest) error {
		return os.Remove(filepath.Join(sdir, m.Shards[1]))
	})
}

// TestTruncatedShardFileRejectedTyped: a shard file damaged after the spill
// is caught when recovery decodes it — the rejection is logged with the
// codec's typed reason and the session is recompiled from its graph
// snapshot, never served from silently wrong data.
func TestTruncatedShardFileRejectedTyped(t *testing.T) {
	recoverDamagedSpill(t, "bad shard encoding: truncated header", func(sdir string, m wal.Manifest) error {
		return os.Truncate(filepath.Join(sdir, m.Shards[1]), 5)
	})
}

// TestBitFlippedSpillFallsBackToRecompile: a flipped bit in a shard file or
// in the core blob fails its checksum at load, and recovery recompiles.
func TestBitFlippedSpillFallsBackToRecompile(t *testing.T) {
	t.Run("shard", func(t *testing.T) {
		recoverDamagedSpill(t, "bad shard encoding: checksum mismatch", func(sdir string, m wal.Manifest) error {
			return flipByte(filepath.Join(sdir, m.Shards[2]))
		})
	})
	t.Run("core", func(t *testing.T) {
		recoverDamagedSpill(t, "bad core encoding: checksum mismatch", func(sdir string, m wal.Manifest) error {
			return flipByte(filepath.Join(sdir, m.Core))
		})
	})
}

// TestRecoveredGenerationSweptAfterSpill: recovery decodes the spilled
// generation's core and shard files up front and never reads them again,
// so the first spill the recovered session commits sweeps them along with
// the rest of that generation.
func TestRecoveredGenerationSweptAfterSpill(t *testing.T) {
	t.Setenv(compile.TestShardsEnv, "4")
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir, SpillEvery: 2})
	id := createSession(t, ts1, chainData(256))
	mutateOK(t, ts1, id, "link n0 n100 next\n")
	mutateOK(t, ts1, id, "link n1 n101 next\n") // spills generation 2
	ts1.Close()
	s1.Close()

	sdir := filepath.Join(dir, sessionsSubdir, id)
	adopted, err := wal.ReadManifest(sdir)
	if err != nil {
		t.Fatal(err)
	}
	if adopted.Version != 2 || len(adopted.Shards) < 2 {
		t.Fatalf("want a multi-shard generation 2, got %+v", adopted)
	}

	_, ts2 := durableServer(t, Config{DataDir: dir, SpillEvery: 2})
	mutateOK(t, ts2, id, "link n2 n102 next\n")
	mutateOK(t, ts2, id, "link n3 n103 next\n") // commits generation 4
	if m, err := wal.ReadManifest(sdir); err != nil || m.Version != 4 {
		t.Fatalf("manifest after the next spill: %+v, %v", m, err)
	}
	for _, n := range append([]string{adopted.Snapshot, adopted.Core, adopted.Log}, adopted.Shards...) {
		if _, err := os.Stat(filepath.Join(sdir, n)); !os.IsNotExist(err) {
			t.Errorf("adopted generation file %s survived the next spill (stat err %v)", n, err)
		}
	}
	// The swept files were not needed: the session serves the schema of an
	// in-memory session that took the same four deltas.
	mem := httptest.NewServer(Handler())
	defer mem.Close()
	ref := createSession(t, mem, chainData(256))
	for i := 0; i < 4; i++ {
		mutateOK(t, mem, ref, fmt.Sprintf("link n%d n%d next\n", i, 100+i))
	}
	if got, want := extractSchema(t, ts2, id), extractSchema(t, mem, ref); got != want {
		t.Fatalf("schema after the sweep differs:\n%s\nvs\n%s", got, want)
	}
}

// TestInterruptedSpillRecoversAndSweeps: a spill that dies between writing
// its generation files and the manifest rename leaves the old generation
// authoritative. Recovery serves the old state, and the next committed spill
// sweeps the orphaned files.
func TestInterruptedSpillRecoversAndSweeps(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir, SpillEvery: 2})
	id := createSession(t, ts1, sampleText)
	mutateOK(t, ts1, id, nthDelta(1))
	mutateOK(t, ts1, id, nthDelta(2)) // spills generation 2
	want := extractSchema(t, ts1, id)
	ts1.Close()
	s1.Close()

	// Simulate a crash mid-spill of generation 9: generation files exist but
	// the manifest still names generation 2.
	sdir := filepath.Join(dir, sessionsSubdir, id)
	for _, n := range []string{"snapshot-9.graph", "snapshot-9.core", "shard-9-0.shard", "wal-9.log"} {
		if err := os.WriteFile(filepath.Join(sdir, n), []byte("orphaned partial spill"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, ts2 := durableServer(t, Config{DataDir: dir, SpillEvery: 2})
	defer func() { ts2.Close(); s2.Close() }()
	if got := extractSchema(t, ts2, id); got != want {
		t.Fatalf("schema after interrupted spill differs:\n%s\nvs\n%s", got, want)
	}
	// Two more deltas commit a fresh generation, whose sweep removes the
	// orphans alongside the retired old generation.
	mutateOK(t, ts2, id, nthDelta(3))
	mutateOK(t, ts2, id, nthDelta(4))
	entries, err := os.ReadDir(sdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "-9") {
			t.Fatalf("orphaned spill file survived the sweep: %s", e.Name())
		}
		// The graph snapshot and log of the retired generation are gone
		// (TestRecoveredGenerationSweptAfterSpill covers its core and shard
		// files).
		if e.Name() == "snapshot-2.graph" || e.Name() == "wal-2.log" {
			t.Fatalf("retired generation survived the sweep: %s", e.Name())
		}
	}
}
