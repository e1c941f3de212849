package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"schemex/internal/graph"
	"schemex/internal/httpapi"
	"schemex/internal/wal"
	"schemex/perfbench/churn"
	"schemex/perfbench/trace"
)

// ingest-dbg4: one producer streams churn deltas into one durable DBG x4
// session in bursts: burstLen-1 async mutates, then a sync one whose reply
// means the whole burst is applied and durable (the queue is FIFO). The
// burst is pipelined on one connection, written at once, so the producer
// waits for one round trip per burst and the server's write path, not the
// client's HTTP stack, sets the pace. No extraction runs.
//
// A burst is as long as the server's spill cadence, so every burst carries
// exactly one snapshot spill. With bursts of half that length, every other
// burst spilled: burst times fell in two groups of equal size and their
// median sat in the gap between them, moving by 15% from run to run.
const (
	ingestScale = 4
	burstLen    = httpapi.DefaultSpillEvery
)

var ingestChurn = churn.Config{Slots: 64, MinLive: 16, UnlinkProb: 0.02, MaxRelinkDelay: 8}

// producer is the workload's single caller.
type producer struct {
	srv     *server
	id      string
	gen     *churn.Gen
	version uint64
	deltas  []string // every delta sent, in order
	// Per-delta time from the burst's send to its acknowledgement.
	lat []float64
}

func (p *producer) loop(ctx context.Context, d time.Duration, rec *trace.Recorder) error {
	p.lat = nil
	conn, err := p.srv.dialPipe()
	if err != nil {
		return err
	}
	defer conn.close()
	path := "/v1/session/" + p.id + "/mutate"
	start := time.Now()
	for n := int64(1); time.Since(start) < d; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		burst := make([]string, burstLen)
		reqs := make([]pipeReq, burstLen)
		for i := range burst {
			delta, err := p.gen.Next()
			if err != nil {
				return err
			}
			burst[i] = delta.String()
			body, err := json.Marshal(map[string]string{"delta": burst[i]})
			if err != nil {
				return err
			}
			reqs[i] = pipeReq{path: path + "?mode=async", body: body, want: http.StatusAccepted}
		}
		reqs[burstLen-1].path, reqs[burstLen-1].want = path, http.StatusOK
		var info sessionInfo
		sent := time.Now()
		s := rec.Start("httpapi.burst", n, 0)
		err := conn.send(reqs, &info)
		rec.End(s)
		if err != nil {
			return fmt.Errorf("burst %d: %w", len(p.deltas)/burstLen+1, err)
		}
		ack := msOf(time.Since(sent))
		if info.Version != p.version+burstLen {
			return fmt.Errorf("gate: burst acknowledged version %d, want %d", info.Version, p.version+burstLen)
		}
		for range burst {
			p.lat = append(p.lat, ack)
		}
		p.version += burstLen
		p.deltas = append(p.deltas, burst...)
	}
	return nil
}

func runIngest(ctx context.Context, cfg config) (*result, error) {
	run, err := setUpServer(ctx, cfg, func() ([]byte, error) { return dbgText(cfg.seed, ingestScale) }, nil)
	if err != nil {
		return nil, err
	}
	defer run.srv.release()
	base, err := readText(run.text)
	if err != nil {
		return nil, err
	}
	cc := ingestChurn
	cc.Seed = cfg.seed
	gen, err := churn.New(base, cc)
	if err != nil {
		return nil, err
	}
	p := &producer{srv: run.srv, id: run.session.ID, gen: gen}
	res := &result{metrics: map[string]float64{}}
	res.note("data: DBG x%d, %d objects, %d links; bursts of %d deltas", ingestScale, run.session.Objects, run.session.Links, burstLen)
	res.note("setup runs (s): %v", run.setup)

	if !cfg.traced {
		start := time.Now()
		if err := p.loop(ctx, cfg.seconds, nil); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		rss, err := peakRSSMB(run.srv.pid())
		if err != nil {
			return nil, err
		}
		if err := ingestGate(ctx, cfg, run, p); err != nil {
			return nil, err
		}
		res.attempted = len(p.lat)
		res.metrics["setup_s"] = median(run.setup)
		res.metrics["op_ms_p50"] = median(p.lat)
		res.metrics["op_ms_tail"], _, _ = tail(p.lat)
		res.metrics["ops_per_s"] = float64(len(p.lat)) / elapsed.Seconds()
		res.metrics["peak_rss_mb"] = rss
		res.note("%s", tailNote("op_ms_tail", p.lat))
		res.note("churn ops %v, live copies at end %d; failed_frac = 0 of %d deltas", gen.Counts(), gen.Live(), len(p.lat))
		return res, nil
	}

	m := res.metrics
	for _, x := range perLayer {
		m[x.Name] = 0
	}
	a, err := run.srv.metrics()
	if err != nil {
		return nil, err
	}
	if err := p.loop(ctx, cfg.seconds/2, nil); err != nil {
		return nil, err
	}
	untraced, untracedOps := median(p.lat), len(p.lat)
	b, err := run.srv.metrics()
	if err != nil {
		return nil, err
	}
	serverAlloc(m, a, b, untracedOps)
	rec := trace.New()
	if err := p.loop(ctx, cfg.seconds/2, rec); err != nil {
		return nil, err
	}
	c, err := run.srv.metrics()
	if err != nil {
		return nil, err
	}
	metricsDelta(m, b, c, len(p.lat))
	m["httpapi.mutate_ms_p50"] = median(p.lat)
	if err := ingestGate(ctx, cfg, run, p); err != nil {
		return nil, err
	}
	res.attempted = untracedOps + len(p.lat)
	selfPerOp(m, rec, len(p.lat))
	overhead(res, untraced, median(p.lat))

	// Replay in the batches the server's drainer actually formed: their
	// mean size over the traced phase, not the client's bursts.
	batchLen := max(1, int(math.Round(fraction(float64(len(p.lat)), c.Queue.Batches-b.Queue.Batches))))
	rp, err := replay(ctx, run.text, p.deltas, batchLen, filepath.Join(cfg.work, "replay"), cfg.seconds/2)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := replayGate(rp, p.version, p.gen.Graph()); err != nil {
		return nil, err
	}
	replayMetrics(m, rp)
	selfPerOp(m, rp.rec, rp.deltas)
	res.note("traced %d deltas after %d untraced; replayed %d of %d deltas in-process in batches of %d", len(p.lat), untracedOps, rp.deltas, len(p.deltas), batchLen)
	res.spans = func(path string) error {
		return writeSpans(path, cfg, []phase{{"http", rec}, {"replay", rp.rec}})
	}
	return res, nil
}

// ingestGate restarts the server over its data directory and checks the
// recovered session against the generator's expected graph: its version
// must equal the number of acknowledged deltas, and the graph the durable
// state encodes — snapshot plus log suffix — must equal the expected graph.
func ingestGate(ctx context.Context, cfg config, run *serverRun, p *producer) error {
	if err := run.srv.stop(); err != nil {
		return err
	}
	srv, err := startServer(ctx, cfg.server, run.dataDir)
	if err != nil {
		return fmt.Errorf("gate: restart: %w", err)
	}
	defer srv.release()
	var info sessionInfo
	if err := srv.call("GET", "/v1/session/"+p.id, nil, http.StatusOK, &info); err != nil {
		return fmt.Errorf("gate: recovered session: %w", err)
	}
	want := p.gen.Graph()
	if info.Version != p.version || info.Objects != want.NumObjects() || info.Links != want.NumLinks() {
		return fmt.Errorf("gate: recovered session at version %d with %d objects, %d links; acknowledged %d deltas, expected %d objects, %d links",
			info.Version, info.Objects, info.Links, p.version, want.NumObjects(), want.NumLinks())
	}
	if err := srv.stop(); err != nil {
		return err
	}
	got, version, err := readDurable(filepath.Join(run.dataDir, "sessions", p.id))
	if err != nil {
		return fmt.Errorf("gate: reading durable state: %w", err)
	}
	if version != p.version {
		return fmt.Errorf("gate: durable state at version %d, acknowledged %d", version, p.version)
	}
	g, err := canonical(got)
	if err != nil {
		return err
	}
	w, err := canonical(want)
	if err != nil {
		return err
	}
	if g != w {
		return fmt.Errorf("gate: recovered graph text differs from the expected graph")
	}
	return nil
}

// readDurable decodes a session directory the way recovery does: the
// manifest's snapshot graph plus every delta logged after it.
func readDurable(dir string) (*graph.DB, uint64, error) {
	m, err := wal.ReadManifest(dir)
	if err != nil {
		return nil, 0, err
	}
	data, err := os.ReadFile(filepath.Join(dir, m.Snapshot))
	if err != nil {
		return nil, 0, err
	}
	db, err := graph.Read(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	version := m.Version
	_, _, err = wal.Replay(filepath.Join(dir, m.Log), m.LogOffset, func(r wal.Record) error {
		if r.Kind != wal.KindDelta {
			return fmt.Errorf("record kind %d after the snapshot offset", r.Kind)
		}
		d, err := graph.ParseDelta(bytes.NewReader(r.Payload))
		if err != nil {
			return err
		}
		if db, _, err = db.ApplyDelta(d); err != nil {
			return err
		}
		version++
		return nil
	})
	return db, version, err
}

// canonical is a graph's text with its lines sorted: object IDs, and so line
// order, depend on whether the graph was rebuilt from a snapshot, the facts
// do not.
func canonical(db *graph.DB) (string, error) {
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		return "", err
	}
	lines := strings.Split(buf.String(), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n"), nil
}
