// Command perfbench is schemex's benchmark. Each run measures one workload
// in a fresh process, checks the program's outputs, and prints its metrics
// as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload cold-dbg8 --seed 1 --seconds 20 --trace 0
//
// run.sh builds this command and the server binary into .bench_build/ and
// runs it from the repository root. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the same workload with spans recorded around the
// benchmark's calls into each layer and reports the per-layer metrics (see
// README.md for what each one measures and which end-to-end metric it should
// move).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"schemex/internal/httpapi"
	"schemex/perfbench/trace"
)

// metric is one reported quantity.
type metric struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0. An op is the unit of work the workload's single
// caller waits for: one extraction (cold-dbg8), one mutate plus extraction
// (edit-db8), one delta until its durable acknowledgement (ingest-dbg4).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, reported by every workload with
// --trace 1; a layer a workload does not exercise reads 0.
var perLayer = []metric{
	{"graph.read_ms", "ms"},
	{"graph.parse_delta_us", "us"},
	{"graph.coalesced_ops_per_batch", "count"},
	{"compile.compile_ms", "ms"},
	{"compile.snapshot_bytes", "bytes"},
	{"compile.apply_ms", "ms"},
	{"compile.apply_incremental_frac", "fraction"},
	{"perfect.qd_build_ms", "ms"},
	{"typing.gfp_ms", "ms"},
	{"perfect.merge_ms", "ms"},
	{"perfect.stage1_ms", "ms"},
	{"perfect.classes", "count"},
	{"typing.stage1_warm_frac", "fraction"},
	{"cluster.stage2_ms", "ms"},
	{"cluster.stage2_warm_frac", "fraction"},
	{"cluster.dirty_types_frac", "fraction"},
	{"recast.stage3_ms", "ms"},
	{"recast.stage3_warm_frac", "fraction"},
	{"core.apply_batch_ms", "ms"},
	{"wal.append_ms", "ms"},
	{"wal.spill_ms", "ms"},
	{"wal.fsyncs_per_delta", "fraction"},
	{"httpapi.extract_ms_p50", "ms"},
	{"httpapi.mutate_ms_p50", "ms"},
	{"httpapi.extract_overhead_ms", "ms"},
	{"httpapi.batch_size_p50", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"graph.self_ms", "ms"},
	{"compile.self_ms", "ms"},
	{"perfect.self_ms", "ms"},
	{"typing.self_ms", "ms"},
	{"cluster.self_ms", "ms"},
	{"recast.self_ms", "ms"},
	{"core.self_ms", "ms"},
	{"wal.self_ms", "ms"},
	{"httpapi.self_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
}

// layers are the program's modules that own spans; their self time per op
// is reported as <layer>.self_ms.
var layers = []string{"graph", "compile", "perfect", "typing", "cluster", "recast", "core", "wal", "httpapi"}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	server   string // schemex-server binary
	work     string // scratch directory for this run, removed at exit
	traceDir string // where a traced run writes its spans
}

// result is what a workload returns: its metrics by name and the lines the
// run prints before the JSON object.
type result struct {
	attempted int
	metrics   map[string]float64
	notes     []string
	spans     func(path string) error // writes the trace; nil when untraced
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupRuns is how many times each workload sets itself up; setup_s is the
// median. A single set-up of cold-dbg8 is one extraction, and single
// extractions spread by ±15% with where the collector's cycles fall, so the
// median needs this many.
const setupRuns = 11

var workloads = map[string]func(context.Context, config) (*result, error){
	"cold-dbg8":   runCold,
	"edit-db8":    runEdit,
	"ingest-dbg4": runIngest,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var secs float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (data generator, perturbation and delta stream)")
	flag.Float64Var(&secs, "seconds", 50, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: record spans and report per-layer metrics")
	flag.StringVar(&cfg.server, "server", filepath.Join(".bench_build", "bin", "schemex-server"), "schemex-server binary")
	flag.StringVar(&cfg.work, "workdir", filepath.Join(".bench_build", "work"), "parent of the run's scratch directory")
	flag.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "where --trace 1 writes its spans")
	flag.Parse()
	w, ok := workloads[cfg.workload]
	if !ok || secs <= 0 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ","))
		return 2
	}
	cfg.seconds = time.Duration(secs * float64(time.Second))
	cfg.traced = trace == 1

	work, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg.work = work
	defer os.RemoveAll(work)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	res, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", cfg.workload, cfg.seed, err)
		return 1
	}
	if err := report(cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the fingerprint and notes, writes the trace file, and ends
// with the JSON result line. Every metric of the run's set must be present:
// a workload that forgets one is a benchmark bug, not a zero.
func report(cfg config, res *result) error {
	set := endToEnd
	if cfg.traced {
		set = perLayer
	}
	fp := fingerprint()
	fpJSON, _ := json.Marshal(fp) // map of strings and numbers; cannot fail
	fmt.Printf("# machine %s\n", fpJSON)
	fmt.Printf("# workload %s seed %d seconds %g trace %t\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.traced)
	for _, n := range res.notes {
		fmt.Printf("# %s\n", n)
	}
	if res.spans != nil {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := res.spans(path); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(set))
	for _, m := range set {
		v, ok := res.metrics[m.Name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", cfg.workload, m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, res.attempted, 0, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// fingerprint identifies the machine and the durability settings a result
// was measured with, so no number is read against another machine's.
func fingerprint() map[string]any {
	return map[string]any{
		"cpu_model":   cpuModel(),
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"fsync":       "always",
		"spill_every": httpapi.DefaultSpillEvery,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfPerOp reports each layer's self time per op.
func selfPerOp(m map[string]float64, rec *trace.Recorder, ops int) {
	self := rec.SelfTimes()
	for _, l := range layers {
		m[l+".self_ms"] += fraction(msOf(self[l]), float64(ops))
	}
}

// overhead reports the traced-minus-untraced op median.
func overhead(res *result, untracedMs, tracedMs float64) {
	res.metrics["trace.overhead_ms"] = tracedMs - untracedMs
	res.metrics["trace.overhead_frac"] = fraction(tracedMs-untracedMs, untracedMs)
	res.note("tracing overhead: traced op p50 %.4f ms vs untraced %.4f ms", tracedMs, untracedMs)
}

// phase is one recorder of a traced run and its name in the trace file.
type phase struct {
	name string
	rec  *trace.Recorder
}

// writeSpans writes a run's recorders to one file, one JSON document each.
func writeSpans(path string, cfg config, phases []phase) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, p := range phases {
		meta := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "phase": p.name, "machine": fingerprint()}
		if err := p.rec.WriteJSON(f, meta); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
