// Command fluxperf is the repository's benchmark. It runs one named
// workload for a fixed time over seeded XMark documents, checks every
// output against the DOM oracle, and prints one JSON result line: the
// end-to-end metrics untraced (-trace 0), or the per-layer metrics from a
// traced run (-trace 1).
//
// Build and run it through run.sh from the repository root:
//
//	bash fluxperf/run.sh --workload fig4-join --seed 1 --seconds 15 --trace 0
//
// BENCHMARK.json at the repository root names the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload run gets: its seed, its measuring time, whether
// it is the traced run, and a directory for generated files.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string
}

// report is what a workload run produces. Operations are the units the
// workload times (a query run, a batch, a request, a replay round);
// failed counts those that errored, were refused or differed from the
// oracle. problems are correctness failures that are not operations, such
// as a broken zero-buffer claim or a generator that fell behind.
type report struct {
	attempted int64
	failed    int64
	problems  []string
	e2e       map[string]metric
	layer     map[string]metric
	absent    map[string]string // per-layer metric -> why it is 0 here
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, absent: map[string]string{}}
}

// op records one operation's outcome.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintln(os.Stderr, "fluxperf: failed:", err)
		}
	}
}

func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "fluxperf: check failed:", msg)
	r.problems = append(r.problems, msg)
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(context.Context, env) (*report, error){
	"fig4-join":     runFig4Join,
	"fig4-stream":   runFig4Stream,
	"wide-batch":    runWideBatch,
	"served-mix":    runServedMix,
	"ingest-replay": runIngestReplay,
}

// endToEnd lists the end-to-end metrics every workload reports untraced.
var endToEnd = []string{"setup_s", "ok_frac", "peak_heap_bytes", "p50_ms"}

// perLayer lists the per-layer metrics every traced run reports, with
// their units.
var perLayer = []struct{ name, unit string }{
	{"sax.self_ms", "ms"}, {"sax.tokens", "count"}, {"sax.skip_elements", "count"},
	{"autom.self_ms", "ms"}, {"autom.build_ms", "ms"}, {"autom.states", "count"}, {"autom.delivery_ratio", "ratio"},
	{"engine.self_ms", "ms"}, {"engine.tokens", "count"}, {"engine.peak_buffer_bytes", "B"},
	{"engine.peak_buffer_bytes.q1", "B"}, {"engine.peak_buffer_bytes.q8", "B"}, {"engine.peak_buffer_bytes.q11", "B"},
	{"engine.peak_buffer_bytes.q13", "B"}, {"engine.peak_buffer_bytes.q20", "B"},
	{"mux.seq_ms", "ms"}, {"mux.parallel_ms", "ms"}, {"mux.parallel_speedup", "ratio"}, {"mux.events", "count"},
	{"output.self_ms", "ms"}, {"output.bytes", "B"},
	{"compile.prepare_ms", "ms"},
	{"executor.first_byte_ms", "ms"}, {"executor.batch_size", "count"},
	{"catalog.cache_hit_ratio", "ratio"}, {"catalog.admission_waiting", "count"},
	{"shard.router_ms", "ms"},
	{"stream.write_block_ms", "ms"}, {"stream.first_result_ms", "ms"}, {"stream.dropped_bytes", "B"}, {"stream.mb_per_s", "MB/s"},
	{"served.p99_ms", "ms"}, {"served.requests", "count"}, {"served.gen_late_p50_ms", "ms"}, {"served.gen_late_p99_ms", "ms"},
	{"trace.overhead_ms", "ms"}, {"trace.spans", "count"},
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig4-join, fig4-stream, wide-batch, served-mix or ingest-replay")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 15, "how long the run measures, in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	dir := flag.String("dir", ".bench_build/fluxperf", "directory for generated documents and span dumps")
	tier := flag.Bool("tier", false, "run as served-mix's serving tier child process (started by the benchmark itself)")
	flag.Parse()

	if *tier {
		if err := tierMain(*dir, *seed, *trace == 1); err != nil {
			fatal(err)
		}
		return
	}

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "fluxperf: need --workload <name> --seconds >= 1 --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	e := env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: *dir}

	machine, _ := json.Marshal(map[string]any{"machine": map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"seed": *seed, "workload": *workload, "seconds": *seconds, "trace": *trace,
	}})
	fmt.Println(string(machine))

	rep, err := run(context.Background(), e)
	if err != nil {
		fatal(err)
	}
	res := result{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if rep.attempted < 1 {
		fatal(errors.New("no operation attempted"))
	}
	if e.trace {
		for _, m := range perLayer {
			v, ok := rep.layer[m.name]
			if !ok {
				v = metric{0, m.unit}
				if why := rep.absent[m.name]; why != "" {
					fmt.Printf("absent %s: %s\n", m.name, why)
				} else {
					fatal(fmt.Errorf("per-layer metric %s not measured", m.name))
				}
			}
			res.Metrics[m.name] = v
		}
	} else {
		rep.e2e["ok_frac"] = metric{float64(rep.attempted-rep.failed) / float64(rep.attempted), "ratio"}
		for _, name := range endToEnd {
			v, ok := rep.e2e[name]
			if !ok {
				fatal(fmt.Errorf("end-to-end metric %s not measured", name))
			}
			res.Metrics[name] = v
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fluxperf:", err)
	os.Exit(1)
}

// --- measurement helpers --------------------------------------------------

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of ds (nearest rank on a sorted copy).
func quantile[T ~int64](ds []T, q float64) T {
	if len(ds) == 0 {
		return 0
	}
	s := append([]T(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the median of ds, averaging the middle pair.
func median[T ~int64](ds []T) T {
	if len(ds) == 0 {
		return 0
	}
	s := append([]T(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median.
const setupRepeats = 31

// timeSetup runs fn setupRepeats times and returns the median duration.
// Each call's teardown, if any, is returned by fn and runs untimed.
func timeSetup(fn func() (teardown func(), err error)) (time.Duration, error) {
	var ds []time.Duration
	for range setupRepeats {
		start := time.Now()
		teardown, err := fn()
		ds = append(ds, time.Since(start))
		if err != nil {
			return 0, err
		}
		if teardown != nil {
			teardown()
		}
	}
	return median(ds), nil
}

// loopFor calls fn until d has elapsed (at least once) and returns each
// call's duration.
func loopFor(d time.Duration, fn func() error) ([]time.Duration, error) {
	var ds []time.Duration
	deadline := time.Now().Add(d)
	for len(ds) == 0 || time.Now().Before(deadline) {
		start := time.Now()
		if err := fn(); err != nil {
			return ds, err
		}
		ds = append(ds, time.Since(start))
	}
	return ds, nil
}
