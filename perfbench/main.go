// Command perfbench is the repository's end-to-end benchmark. It drives
// the public layers from outside, in one process: a loopback ndpserve
// (serve.NewServer over serve.NewManager) under closed-loop client
// traffic for the serve-cold and serve-hot workloads, and out-of-core
// kernel runs from a gcsr2 container file for the ooc workload.
//
//	perfbench --workload serve-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced pass;
// with --trace 1 it also runs a traced pass and reports per-layer
// metrics instead, writing the spans to a JSON artifact. Every served
// result and every out-of-core result is checked against the offline
// reference. The last line of standard output is the JSON result; the
// lines before it print each metric with its unit and the run's host
// and inputs. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds one invocation; a run that has not finished by then
// exits without a result.
const runLimit = 170 * time.Second

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what a run measured.
type report struct {
	workload string
	seed     uint64
	trace    bool
	out      string

	metrics   map[string]metric
	info      map[string]any
	attempted int64
	failed    int64
	problems  []string
}

func newReport(workload string, seed uint64, trace bool, out string) *report {
	return &report{workload: workload, seed: seed, trace: trace, out: out,
		metrics: make(map[string]metric), info: make(map[string]any)}
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// fail records a failed or wrong operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// artifact names a per-run output file.
func (r *report) artifact(kind string) string {
	return filepath.Join(r.out, fmt.Sprintf("%s-%s-seed%d-trace%d.json", kind, r.workload, r.seed, b2i(r.trace)))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func main() {
	workload := flag.String("workload", "", "workload: serve-cold, serve-hot, or ooc")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for run artifacts")
	flag.Parse()

	timer := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	defer timer.Stop()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *trace != 0 && *trace != 1 || !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	rep := newReport(*workload, *seed, *trace == 1, *out)
	hostInfo(rep)
	rep.info["seconds"] = *seconds
	var err error
	switch *workload {
	case "serve-cold", "serve-hot":
		err = runServe(ctx, rep, *workload == "serve-hot", *seconds)
	case "ooc":
		err = runOOC(ctx, rep, *seconds)
	default:
		err = fmt.Errorf("unknown workload %q (want serve-cold, serve-hot, or ooc)", *workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := emit(rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// hostInfo records the host every result was measured on.
func hostInfo(rep *report) {
	rep.info["workload"] = rep.workload
	rep.info["seed"] = rep.seed
	rep.info["trace"] = b2i(rep.trace)
	rep.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.info["nproc"] = runtime.NumCPU()
	rep.info["go_version"] = runtime.Version()
	rep.info["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
	rep.info["cpu_model"] = cpuModel()
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// emit prints the human summary and the result line, and writes the
// result artifact.
func emit(rep *report) error {
	metrics, unreached, err := resultMetrics(rep.metrics, rep.trace)
	if err != nil {
		return err
	}
	if rep.trace {
		rep.info["unreached"] = unreached
	}
	info, err := json.Marshal(rep.info)
	if err != nil {
		return err
	}
	fmt.Printf("info %s\n", info)
	for _, p := range rep.problems {
		fmt.Printf("problem %s\n", p)
	}
	fmt.Printf("error_rate %.6g ratio (%d failed of %d attempted)\n",
		ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	defs := endToEnd
	if rep.trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := metrics[d.name]
		fmt.Printf("%-40s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	doc, err := json.MarshalIndent(map[string]any{"info": rep.info, "problems": rep.problems, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(rep.out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(rep.artifact("result"), doc, 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measureHeapMB returns the live heap in MiB after a full collection.
func measureHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
