package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with: the metric names each mode prints.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func units(list []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func printedUnits(metrics map[string]metric) map[string]string {
	out := map[string]string{}
	for name, m := range metrics {
		out[name] = m.Unit
	}
	return out
}

// TestShortPassOfEveryWorkload runs one round of every workload, untraced
// and traced, through the command's own entry point, and checks that the
// last line is a correct result carrying exactly the metrics
// BENCHMARK.json declares.
func TestShortPassOfEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bench := loadBenchmark(t)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "7", "--seconds", "0.001", "--trace", trace,
					"--spans", filepath.Join(t.TempDir(), "spans.jsonl")}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := units(bench.EndToEnd)
				if trace == "1" {
					want = units(bench.PerLayer)
				}
				if got := printedUnits(res.Metrics); !reflect.DeepEqual(got, want) {
					t.Fatalf("printed metrics %v, BENCHMARK.json declares %v", got, want)
				}
				if trace == "0" {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestTamperedResultsCountAsFailed checks that the per-operation checks
// catch a served result that differs from a local execution in its
// digest, outcome or deterministic stats, and an outcome that contradicts
// the benchmark's own component count under verdict ok.
func TestTamperedResultsCountAsFailed(t *testing.T) {
	ctx := context.Background()
	spec := wire.SmokeSpecs(0)[0] // agm-forest
	if spec.Protocol != "agm-forest" {
		t.Fatalf("smoke spec 0 is %s", spec.Protocol)
	}
	rep, err := wire.ExecuteSpec(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	good := served{spec: spec, result: resultOf(rep), count: 1}
	if c := checkRuns(ctx, []served{good}); c.failed != 0 {
		t.Fatalf("untampered result failed: %v", c.errs)
	}
	digest, outcome, stats := good, good, good
	digest.result.digest = strings.Repeat("0", 64)
	outcome.result.outcome.Size++
	stats.result.det.totalBits++
	for _, tc := range []struct {
		name string
		op   served
	}{{"digest", digest}, {"outcome", outcome}, {"stats", stats}} {
		if c := checkRuns(ctx, []served{good, tc.op}); c.failed != 1 {
			t.Errorf("tampered %s: %d failed, want 1", tc.name, c.failed)
		}
	}

	tr, err := truthOf(spec.Graph)
	if err != nil {
		t.Fatal(err)
	}
	items := []wire.BatchItem{{Label: spec.Label, Stats: rep.Stats, Outcome: rep.Outcome}}
	if c := checkBatch([]wire.RunSpec{spec}, items, nil); c.failed != 0 {
		t.Fatalf("untampered batch item failed: %v", c.errs)
	}
	items[0].Outcome.Size = tr.n // one edge too many for a spanning forest
	if c := checkBatch([]wire.RunSpec{spec}, items, nil); c.failed != 1 {
		t.Errorf("tampered batch outcome: %d failed, want 1", c.failed)
	}
	items[0].Stats.Faults.Resilience = core.ResilienceDegraded
	if c := checkBatch([]wire.RunSpec{spec}, items, nil); c.failed != 0 {
		t.Errorf("a degraded verdict is allowed a wrong output, got %d failed", c.failed)
	}
	if c := checkBatch([]wire.RunSpec{spec}, items[:0], nil); c.failed != 1 {
		t.Errorf("a missing batch item: %d failed, want 1", c.failed)
	}
}

// TestEstimatorBandMissIsTallied checks that a triangle estimate outside
// its verifier's band under verdict ok is tallied for the report line,
// not counted as failed, while any other rejected outcome fails.
func TestEstimatorBandMissIsTallied(t *testing.T) {
	spec := wire.RunSpec{Label: "tri", Protocol: "triangle-count-sketch", Graph: wire.GraphSpec{Kind: "path", N: 9}}
	miss := []wire.BatchItem{{Label: "tri", Outcome: wire.Outcome{Checked: true, Valid: false}}}
	c := checkBatch([]wire.RunSpec{spec}, miss, nil)
	if c.failed != 0 || c.whp["whp.triangle-count-sketch.band_miss"] != 1 {
		t.Errorf("band miss: %d failed, tally %v; want 0 failed and one miss", c.failed, c.whp)
	}
	spec.Protocol = "mm-tworound"
	if c := checkBatch([]wire.RunSpec{spec}, miss, nil); c.failed != 1 || len(c.whp) != 0 {
		t.Errorf("rejected matching: %d failed, tally %v; want 1 failed", c.failed, c.whp)
	}
}

// TestCheckOutcomeAgainstOwnComponentCount pins the AGM size rules.
func TestCheckOutcomeAgainstOwnComponentCount(t *testing.T) {
	tr := truth{n: 10, comps: 3}
	ok := core.ResilienceOK
	for _, tc := range []struct {
		protocol string
		size     int
		valid    bool
	}{
		{"agm-forest", 7, true},
		{"agm-forest", 6, false},
		{"agm-forest-backup", 8, false},
		{"agm-components", 3, true},
		{"agm-components", 4, false},
		{"agm-skeleton", 7, true},
		{"agm-skeleton", 14, true},
		{"agm-skeleton", 15, false},
		{"agm-skeleton", 6, false},
	} {
		err := checkOutcome(tc.protocol, wire.Outcome{Size: tc.size}, ok, tr)
		if (err == nil) != tc.valid {
			t.Errorf("%s size %d: err = %v, want valid=%v", tc.protocol, tc.size, err, tc.valid)
		}
	}
	if err := checkOutcome("mm-tworound", wire.Outcome{Checked: true}, ok, tr); err == nil {
		t.Error("an outcome the verifier rejected passed under verdict ok")
	}
}

// TestTruthCountsComponents checks the union-find against the graph
// package's own component count.
func TestTruthCountsComponents(t *testing.T) {
	for _, g := range []wire.GraphSpec{
		{Kind: "gnp", N: 200, P: 0.004, Seed: 3},
		{Kind: "path", N: 9},
		{Kind: "dyn-churn", N: 40, M: 4, R: 50, T: 80, P: 0.3, Seed: 49},
	} {
		tr, err := truthOf(g)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := wire.BuildGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, c := gr.Components(); c != tr.comps || gr.N() != tr.n {
			t.Errorf("%+v: union-find n=%d c=%d, graph package c=%d", g, tr.n, tr.comps, c)
		}
	}
}

// TestInputsFollowTheSeed checks that the same seed gives the same inputs
// and another seed other ones.
func TestInputsFollowTheSeed(t *testing.T) {
	if !reflect.DeepEqual(freshSpecs(5, "window", 3), freshSpecs(5, "window", 3)) {
		t.Error("same seed, different run-miss specs")
	}
	if reflect.DeepEqual(freshSpecs(5, "window", 3), freshSpecs(6, "window", 3)) {
		t.Error("different seeds, same run-miss specs")
	}
	if !reflect.DeepEqual(roundOrder(5, 2, 20), roundOrder(5, 2, 20)) {
		t.Error("same seed, different request order")
	}
	if !reflect.DeepEqual(batchSpecs(5, "window", 1), batchSpecs(5, "window", 1)) {
		t.Error("same seed, different batch specs")
	}
	if reflect.DeepEqual(freshSpecs(5, "setup", 0), freshSpecs(5, "setup", 1)) {
		t.Error("two set-ups of one run warm the same specs")
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 99; i++ {
		xs = append(xs, float64(i))
	}
	if got := tail(xs); got != 89 {
		t.Errorf("tail of 1..99 = %v, want 89 (ten samples beyond it)", got)
	}
	if got := tail(xs[:39]); got != median(xs[:39]) {
		t.Errorf("tail of 39 samples = %v, want the median %v", got, median(xs[:39]))
	}
	// Three blocks of 100 whose tails are 90, 190 and 1090: the median
	// block tail ignores the one block a stall pushed up.
	var long []float64
	for _, shift := range []float64{0, 100, 1000} {
		for i := 1; i <= 100; i++ {
			long = append(long, float64(i)+shift)
		}
	}
	if got := tail(long); got != 190 {
		t.Errorf("median block tail = %v, want 190", got)
	}
	if got := tailPct(300); got != 90 {
		t.Errorf("tailPct(300) = %v, want 90", got)
	}
}
