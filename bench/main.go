// Command bench is enBlogue's end-to-end and per-layer benchmark: six
// deterministic, seed-driven workloads, each run untraced for the
// end-to-end metrics and traced for the itemised layer bill. See README.md.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench --workload all [--smoke]
//	bench compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Smoke shrinks every workload to a fixed few passes with all checks
	// on: a CI-speed proof that the harness and the engine still agree.
	Smoke  bool
	Append string
}

// minChunks is the least number of chunks a measured region is cut into: a
// smoke run measures just the passes the comparable digest covers.
func (o options) minChunks() int {
	if o.Smoke {
		return hashPasses
	}
	return minChunks
}

// setupRuns is how many times an untraced run sets its workload up.
func (o options) setupRuns() int {
	if o.Smoke {
		return 1
	}
	return setupRuns
}

// traceDir is where a traced run writes trace-<workload>.json, under the
// checkout's build directory like everything else a run leaves behind.
const traceDir = ".bench_build/out"

// defaultSeed is the generator seed of a run that names none (README).
const defaultSeed = 20110612

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]any    `json:"info"`
	Errors    []string          `json:"errors,omitempty"`
}

func newResult(w *workload, o options) *result {
	return &result{
		Workload: w.Name, Seed: o.Seed, Trace: o.Trace, Correct: true,
		Metrics: map[string]metric{}, Info: map[string]any{},
	}
}

// fail records an output check that did not hold, with the number of
// failed operations it stands for.
func (r *result) fail(n int64, format string, args ...any) {
	r.Correct = false
	r.Failed += max(n, 1)
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// sized records a check on a property the workload was sized for. On a
// shrunken copy of the workload it only warns.
func (r *result) sized(w *workload, n int64, format string, args ...any) {
	if w.Unsized {
		fmt.Fprintf(os.Stderr, "bench: %s: at smoke size: %s\n", w.Name, fmt.Sprintf(format, args...))
		return
	}
	r.fail(n, format, args...)
}

// environment describes where the numbers were taken.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// commit names the measured source tree when it is a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	trace := 0
	flag.StringVar(&o.Workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.Seed, "seed", defaultSeed, "generator seed; reaches only the generator")
	flag.Float64Var(&o.Seconds, "seconds", 15, "length of each measured region")
	flag.IntVar(&trace, "trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
	flag.StringVar(&o.Append, "append", "", "append each result as a JSON line to this file (a set, for compare)")
	flag.BoolVar(&o.Smoke, "smoke", false, "every workload at a fraction of its size, untraced and traced, all checks on")
	flag.Parse()
	o.Trace = trace != 0

	names := []string{o.Workload}
	if o.Workload == "all" {
		names = names[:0]
		for i := range workloads {
			names = append(names, workloads[i].Name)
		}
	}
	env := environment()
	ok := true
	for _, name := range names {
		w := findWorkload(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			os.Exit(2)
		}
		modes := []bool{o.Trace}
		if o.Smoke {
			modes = []bool{false, true}
		}
		var hashes []any
		for _, traced := range modes {
			ro := o
			ro.Trace = traced
			res, err := runWorkload(w, ro)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				os.Exit(1)
			}
			res.Info["env"] = env
			if !res.Correct {
				for _, e := range res.Errors {
					fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", name, e)
				}
				ok = false
				continue
			}
			hashes = append(hashes, res.Info["hash"])
			if err := emit(res, ro); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
		}
		if len(hashes) == 2 && hashes[0] != hashes[1] {
			fmt.Fprintf(os.Stderr, "bench: %s: untraced and traced runs published different rankings\n", name)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload dispatches one run to the harness that drives the workload.
func runWorkload(w *workload, o options) (*result, error) {
	if o.Smoke {
		w = w.smoke()
		o.Seconds = 0
	}
	switch {
	case w.Serve && o.Trace:
		return traceServe(w, o)
	case w.Serve:
		return runServe(w, o)
	case o.Trace:
		return traceInproc(w, o)
	default:
		return runInproc(w, o)
	}
}

// emit prints a run: the environment and details, every metric by name
// with its unit, and — last — the one-line result object.
func emit(res *result, o options) error {
	info, err := json.Marshal(res.Info)
	if err != nil {
		return fmt.Errorf("encoding info: %w", err)
	}
	fmt.Printf("# %s seed=%d trace=%v %s\n", res.Workload, res.Seed, res.Trace, info)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if o.Append != "" {
		line, err := json.Marshal(res)
		if err != nil {
			return fmt.Errorf("encoding result: %w", err)
		}
		f, err := os.OpenFile(o.Append, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening set: %w", err)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return fmt.Errorf("appending to set: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing set: %w", err)
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Printf("%s\n", last)
	return nil
}
