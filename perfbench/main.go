// Command perfbench is the repository benchmark. It runs one named
// workload (bulk, access or serve) against the stz packages in process,
// checks every output, and prints the metrics of BENCHMARK.json as one
// JSON object on the last line of standard output. With --trace 1 it
// records spans around the calls into each layer and prints the per-layer
// metrics instead; the spans are written to --trace-out.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     int // grid edge: gridEdge, smaller only in the smoke test
	traceOut string
}

func (o opts) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// mainWindow is the part of the window access and serve spend in their
// own loop; the probe takes the rest.
func (o opts) mainWindow() time.Duration { return o.window() - o.window()/3 }

// gridEdge is the edge of the generated grids: 128³ f32 is 8 MiB and
// 128³ f64 16 MiB, above a 2 MiB L2 and far below a large shared L3.
const gridEdge = 128

// setupReps is how often an untraced run builds its set-up; setup_s is the
// median. A traced run builds it once.
func (o opts) setupReps() int {
	if o.trace {
		return 1
	}
	return 3
}

// metricSpec names one metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"stz_compress_MBps", "MB/s"},
	{"stz_decompress_MBps", "MB/s"},
	{"sz3_compress_MBps", "MB/s"},
	{"sz3_decompress_MBps", "MB/s"},
	{"stz_ratio", "x"},
	{"sz3_ratio", "x"},
	{"stz_psnr_db", "dB"},
	{"preview_ms", "ms"},
	{"p50_ms", "ms"},
	{"ok_pct", "%"},
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
// p99_ms is here rather than in endToEnd: across ten seeds its quartile
// spread was 0.16–0.33 of its median, against 0.07–0.12 for p50_ms.
var perLayer = []metricSpec{
	{"p99_ms", "ms"},
	{"core.l1_encode_ms", "ms"},
	{"core.class_encode_ms", "ms"},
	{"core.l1_decode_ms", "ms"},
	{"core.entropy_decode_ms", "ms"},
	{"core.predict_ms", "ms"},
	{"core.recon_ms", "ms"},
	{"core.box_class_skip_pct", "%"},
	{"huffman.decode_ns_per_code", "ns"},
	{"huffman.encode_ns_per_code", "ns"},
	{"huffman.table_build_us", "us"},
	{"huffman.bits_per_code", "bit"},
	{"huffman.long_code_pct", "%"},
	{"codec.slab_encode_ms", "ms"},
	{"codec.slab_decode_ms", "ms"},
	{"codec.pipeline_overhead_pct", "%"},
	{"codec.box_ms", "ms"},
	{"codec.box_read_B_per_voxel", "B"},
	{"container.open_us", "us"},
	{"stzd.box_cache_hit_pct", "%"},
	{"stzd.zero_copy_pct", "%"},
	{"stzd.http_overhead_ms", "ms"},
	{"stzd.rejected_pct", "%"},
	{"serve.box_p50_ms", "ms"},
	{"serve.box_p99_ms", "ms"},
	{"serve.section_p50_ms", "ms"},
	{"serve.section_p99_ms", "ms"},
	{"serve.decomp_p50_ms", "ms"},
	{"serve.decomp_p99_ms", "ms"},
	{"serve.compress_p50_ms", "ms"},
	{"serve.compress_p99_ms", "ms"},
	{"serve.put_p50_ms", "ms"},
	{"serve.put_p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.repeat_pct", "%"},
	{"scratch.pool_hit_pct", "%"},
	{"runtime.alloc_MB_per_op", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_MB", "MB"},
	{"parallel.speedup", "x"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) { m[name] = metric{Value: v} }

// finish keeps exactly the metrics of specs, with their units, and fails
// if any of them was never set.
func (m metricSet) finish(specs []metricSpec) (metricSet, error) {
	out := metricSet{}
	var missing []string
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok {
			missing = append(missing, s.name)
			continue
		}
		out[s.name] = metric{Value: v.Value, Unit: s.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}

// runner carries one run's tracer and its operation accounting. Every
// checked operation counts as attempted; it fails when it errors, is
// refused, or its output fails the check. Only the last makes the run
// incorrect.
type runner struct {
	tr  *tracer
	ops atomic.Int64

	mu        sync.Mutex
	attempted int64
	failed    int64
	wrong     int64
	reported  int
}

// newRunner returns a runner whose tracer is off; a traced run turns it
// on for its traced phase.
func newRunner() *runner { return &runner{tr: newTracer()} }

func (rn *runner) nextOp() int64 { return rn.ops.Add(1) }

// check counts one operation whose output was checked; ok false marks it
// failed and wrong.
func (rn *runner) check(ok bool, format string, args ...any) bool {
	rn.count(ok, !ok, format, args...)
	return ok
}

// refused counts one operation that returned no output to check (an
// error status or a transport failure).
func (rn *runner) refused(format string, args ...any) {
	rn.count(false, false, format, args...)
}

func (rn *runner) count(ok, wrong bool, format string, args ...any) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	rn.attempted++
	if ok {
		return
	}
	rn.failed++
	if wrong {
		rn.wrong++
	}
	if rn.reported < 10 {
		rn.reported++
		fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
	}
}

func (rn *runner) okPct() float64 {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return pct(float64(rn.attempted-rn.failed), float64(rn.attempted))
}

// setupReps runs build reps times and returns the median wall time. Each
// build replaces the previous one, whose release func is called first.
func setupReps(reps int, build func() (release func(), err error)) (float64, error) {
	var times []float64
	var release func()
	for i := 0; i < reps; i++ {
		if release != nil {
			release()
		}
		runtime.GC()
		t := time.Now()
		var err error
		release, err = build()
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return median(times), nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: bulk, access or serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	flag.Parse()
	o.trace = trace == 1
	o.size = gridEdge
	if o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.json", o.workload, o.seed)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and returns its result line.
func run(o opts) (result, error) {
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be > 0")
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%t size=%d cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, o.size, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	l2, l3 := cacheSizes()
	f32 := float64(o.size*o.size*o.size*4) / (1 << 20)
	fmt.Printf("# grids: f32 %d³ = %.1f MiB, f64 %d³ = %.1f MiB; caches: L2 %.1f MiB per core, L3 %.1f MiB (0 = unknown)\n",
		o.size, f32, o.size, 2*f32, float64(l2)/(1<<20), float64(l3)/(1<<20))
	rn := newRunner()
	var m metricSet
	var err error
	switch o.workload {
	case "bulk":
		m, err = runBulk(rn, o)
	case "access":
		m, err = runAccess(rn, o)
	case "serve":
		m, err = runServe(rn, o)
	default:
		return result{}, fmt.Errorf("unknown workload %q (want bulk, access or serve)", o.workload)
	}
	if err != nil {
		return result{}, err
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
		if err := rn.tr.write(o.traceOut); err != nil {
			return result{}, err
		}
		fmt.Printf("# spans: %d written to %s\n", len(rn.tr.spans), o.traceOut)
	} else {
		m.set("ok_pct", rn.okPct())
	}
	if m, err = m.finish(specs); err != nil {
		return result{}, err
	}
	return result{
		Correct: rn.wrong == 0, Attempted: rn.attempted, Failed: rn.failed, Metrics: m,
	}, nil
}
