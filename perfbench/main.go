// Command perfbench is the repository benchmark. One run drives one
// workload — the serving stack on cache hits or fresh executions, the
// sketching engine through batches, or the lower-bound pipeline — with a
// single closed-loop client for a fixed time, checks every result it got
// back, and prints one JSON object as the last line of standard output:
// the end-to-end metrics, or with --trace 1 the per-layer metrics of a
// traced run. See README.md for the workloads and what each metric means.
//
//	perfbench --workload cluster-hit --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's parameters, as parsed from the command line.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	spans    string
}

// runBudget bounds a whole run, set-up and checks included, so a hung
// request cannot keep the process running for three minutes.
const runBudget = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 records per-layer spans and prints the per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", "", "file a traced run writes its spans to (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", cfg.workload, workloadNames())
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	}

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	out, err := execute(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, e := range out.errors {
		fmt.Fprintf(stderr, "perfbench: check: %s\n", e)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(out.report); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(out.result); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: what the run ran on and the
// counts behind its figures.
type report struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Env       environment      `json:"env"`
	Attempted map[string]int   `json:"attempted"`
	Failed    map[string]int   `json:"failed"`
	Rounds    int              `json:"rounds"`
	Classes   map[string]class `json:"classes"`
	// Extra carries workload-specific counts (whp obligation passes on
	// lb-sweep), the wall-clock figures the metrics leave out (the
	// window's wall_ops_per_s, the set-ups' setup_wall_s) and, on a traced
	// run, its end-to-end figures so the tracing overhead can be read off
	// against an untraced run.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// environment records what a run ran on.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// StealTicks is the machine-wide steal time during the window, in
	// USER_HZ ticks, read from /proc/stat (-1 when unreadable).
	StealTicks int64 `json:"steal_ticks"`
	// SharedProcess records that the client and every server of the
	// workload run in this one process, on the same cores.
	SharedProcess bool `json:"shared_process"`
}

// class summarises one latency class of the window.
type class struct {
	Count   int     `json:"count"`
	TailPct float64 `json:"tail_pct"`
}

type runOutput struct {
	report report
	result result
	errors []string
}

// setups is how many times a run sets its workload up, each time on
// inputs of its own; setup_s is the median of their process CPU times, so
// one slow set-up does not move it. The first set-up, which alone meets a
// cold runtime, is reported as setup_first_s in the report line.
const setups = 7

func execute(ctx context.Context, cfg config) (*runOutput, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var w workload
	setupCPU := make([]float64, 0, setups)
	setupWall := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		c0 := cpuTime()
		start := time.Now()
		cand, err := workloads[cfg.workload](ctx, cfg.seed, i, tr)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", cfg.workload, err)
		}
		setupWall = append(setupWall, time.Since(start).Seconds())
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		if i < setups-1 {
			cand.close()
			continue
		}
		w = cand
	}
	defer w.close()
	if tr != nil {
		tr.start(ctx, w)
	}

	rec := &recorder{}
	win, err := measure(ctx, w, rec, cfg.window)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.finishWindow(ctx, w, win, rec)
	}
	checkErrs := w.check(ctx, rec)
	if ctx.Err() != nil {
		return nil, fmt.Errorf("run budget exceeded: %w", ctx.Err())
	}

	e2e := rec.endToEnd(median(setupCPU))
	rec.addExtra("setup_first_s", setupCPU[0])
	rec.addExtra("setup_wall_s", median(setupWall))
	rec.addExtra("wall_ops_per_s", rec.wallRate())
	out := &runOutput{
		report: report{
			Workload:  cfg.workload,
			Seed:      cfg.seed,
			Trace:     cfg.trace,
			Env:       win.env,
			Attempted: map[string]int{cfg.workload: rec.attempted},
			Failed:    map[string]int{cfg.workload: rec.failed},
			Rounds:    len(rec.rounds),
			Classes: map[string]class{
				"heavy": {Count: len(rec.heavy), TailPct: tailPct(len(rec.heavy))},
				"light": {Count: len(rec.light), TailPct: tailPct(len(rec.light))},
			},
			Extra: rec.extra,
		},
		result: result{
			Attempted: rec.attempted,
			Failed:    rec.failed,
		},
	}
	for _, e := range checkErrs {
		out.errors = append(out.errors, e.Error())
	}
	out.result.Correct = rec.failed == 0 && len(checkErrs) == 0 && rec.attempted > 0
	if tr == nil {
		out.result.Metrics = e2e
		return out, nil
	}
	if out.report.Extra == nil {
		out.report.Extra = map[string]float64{}
	}
	for name, m := range e2e {
		out.report.Extra["e2e."+name] = m.Value
	}
	out.result.Metrics = tr.metrics()
	if err := tr.writeSpans(cfg.spans); err != nil {
		return nil, err
	}
	return out, nil
}

// window is what measure saw around the timed rounds.
type window struct {
	env       environment
	memBefore runtime.MemStats
	memAfter  runtime.MemStats
}

// measure runs whole rounds of w until the window has elapsed (at least
// one round).
func measure(ctx context.Context, w workload, rec *recorder, length time.Duration) (*window, error) {
	win := &window{env: environment{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		SharedProcess: true,
	}}
	runtime.GC()
	runtime.ReadMemStats(&win.memBefore)
	steal0, stealErr := stealTicks()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < length; i++ {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("window: %w", ctx.Err())
		}
		rec.beginRound()
		if err := w.round(ctx, i, rec); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rec.endRound()
	}
	steal1, err := stealTicks()
	win.env.StealTicks = steal1 - steal0
	if errors.Join(stealErr, err) != nil {
		win.env.StealTicks = -1
	}
	runtime.ReadMemStats(&win.memAfter)
	return win, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
