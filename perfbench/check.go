package main

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// runResult is what the checks keep of one served report: the
// transcript digest, the outcome and the deterministic part of the run
// statistics. Whole frames are not compared, because they carry
// wall-clock fields that differ between any two executions.
type runResult struct {
	digest  string
	outcome wire.Outcome
	det     detStats
}

// detStats are the RunStats fields the determinism contract fixes for a
// spec, whatever the worker count: bit accounting, rounds, broadcasts and
// the fault record with its resilience verdict.
type detStats struct {
	rounds, completed   int
	broadcasts, empty   int64
	totalBits, feedback int64
	maxBits             int
	faults              engine.FaultStats
}

func detOf(s *engine.RunStats) detStats {
	return detStats{
		rounds: s.Rounds, completed: s.CompletedRounds,
		broadcasts: s.Broadcasts, empty: s.EmptyMessages,
		totalBits: s.TotalBits, feedback: s.FeedbackBits,
		maxBits: s.MaxMessageBits,
		faults:  s.Faults,
	}
}

func resultOf(rep *wire.RunReport) runResult {
	return runResult{digest: rep.Digest(), outcome: rep.Outcome, det: detOf(&rep.Stats)}
}

// compareRun reports how a served result differs from the reference
// execution of the same spec.
func compareRun(got, want runResult) error {
	switch {
	case got.digest != want.digest:
		return fmt.Errorf("transcript digest %.12s, local execution gives %.12s", got.digest, want.digest)
	case got.outcome != want.outcome:
		return fmt.Errorf("outcome %+v, local execution gives %+v", got.outcome, want.outcome)
	case got.det != want.det:
		return fmt.Errorf("run stats %+v, local execution gives %+v", got.det, want.det)
	}
	return nil
}

// truth is what the benchmark computes itself about an input graph.
type truth struct {
	n, comps int
}

// truthOf builds the spec's graph and counts its connected components
// with the benchmark's own union-find over the edge list.
func truthOf(g wire.GraphSpec) (truth, error) {
	gr, err := wire.BuildGraph(g)
	if err != nil {
		return truth{}, fmt.Errorf("build graph: %w", err)
	}
	parent := make([]int, gr.N())
	for v := range parent {
		parent[v] = v
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	comps := gr.N()
	for _, e := range gr.Edges() {
		if a, b := find(e.U), find(e.V); a != b {
			parent[a] = b
			comps--
		}
	}
	return truth{n: gr.N(), comps: comps}, nil
}

// estimators are the protocols whose output is a noisy estimate and whose
// verifier is a band around the exact value, not a property every correct
// answer has: triangle-count-sketch is unbiased but lands outside its
// factor-2 band on a few per cent of seeds. Like a whp obligation, its
// band misses are tallied into the report line, not counted as failed.
var estimators = map[string]bool{"triangle-count-sketch": true}

// errBandMiss marks an estimator's outcome its verifier's band rejected.
var errBandMiss = errors.New("estimate outside the verifier's band")

// checkOutcome checks an outcome the referee reported with verdict ok: a
// ground-truth verifier that ran must have accepted it (an estimator's
// band miss is returned as errBandMiss), and the AGM
// connectivity outputs must match the benchmark's own component count —
// a spanning forest has n−c edges, a component count is c, and the
// 2-skeleton (two edge-disjoint forests) has between n−c and 2(n−c).
// A degraded or failed verdict is allowed a wrong output.
func checkOutcome(protocol string, o wire.Outcome, res core.Resilience, t truth) error {
	if res != core.ResilienceOK {
		return nil
	}
	if o.Checked && !o.Valid {
		if estimators[protocol] {
			return errBandMiss
		}
		return fmt.Errorf("%s: verifier rejected the outcome under verdict ok", protocol)
	}
	forest := t.n - t.comps
	switch protocol {
	case "agm-forest", "agm-forest-backup":
		if o.Size != forest {
			return fmt.Errorf("%s: forest of %d edges, want n-c = %d", protocol, o.Size, forest)
		}
	case "agm-components":
		if o.Size != t.comps {
			return fmt.Errorf("%s: %d components, want %d", protocol, o.Size, t.comps)
		}
	case "agm-skeleton":
		if o.Size < forest || o.Size > 2*forest {
			return fmt.Errorf("%s: skeleton of %d edges, want [%d, %d]", protocol, o.Size, forest, 2*forest)
		}
	}
	return nil
}

// served is a /v1/run operation as the window saw it. Identical results
// for one spec share a record, so the records of a run that replays a
// fixed set of specs stay a fixed size however many requests it sends.
type served struct {
	spec   wire.RunSpec
	result runResult
	err    error
	count  int
}

// reference is a local execution of a spec at Workers=1 together with
// the benchmark's own facts about its graph.
type reference struct {
	result runResult
	truth  truth
	err    error
}

func localReference(ctx context.Context, spec wire.RunSpec) *reference {
	spec.Workers = 1
	rep, err := wire.ExecuteSpec(ctx, spec)
	if err != nil {
		return &reference{err: fmt.Errorf("local execution of %s: %w", spec.Label, err)}
	}
	t, err := truthOf(spec.Graph)
	if err != nil {
		return &reference{err: err}
	}
	return &reference{result: resultOf(rep), truth: t}
}

// checks collects failed operations and the messages that explain them,
// and tallies the checks that are allowed isolated failures (whp
// obligations, estimator bands) for the report line.
type checks struct {
	failed int
	errs   []error
	whp    map[string]float64
}

// maxMessages bounds how many failure messages a run prints; every
// failure is still counted.
const maxMessages = 10

func (c *checks) fail(err error, ops int) {
	c.failed += ops
	if len(c.errs) < maxMessages {
		c.errs = append(c.errs, err)
	}
}

// addWHP adds n to the tally of a check allowed isolated failures.
func (c *checks) addWHP(name string, n int) {
	if c.whp == nil {
		c.whp = map[string]float64{}
	}
	c.whp["whp."+name] += float64(n)
}

// outcome files the result of checkOutcome for ops operations: a band
// miss is tallied, any other error fails them.
func (c *checks) outcome(label, protocol string, err error, ops int) {
	switch {
	case errors.Is(err, errBandMiss):
		c.addWHP(protocol+".band_miss", ops)
	case err != nil:
		c.fail(fmt.Errorf("%s: %w", label, err), ops)
	}
}

// record adds the failed operations and the tallies to rec.
func (c *checks) record(rec *recorder) {
	rec.failed += c.failed
	for name, v := range c.whp {
		rec.addExtra(name, v)
	}
}

// checkRuns checks every served /v1/run operation against a local
// execution of its spec and against the benchmark's own graph facts.
func checkRuns(ctx context.Context, ops []served) checks {
	var c checks
	refs := map[string]*reference{}
	for _, op := range ops {
		if op.err != nil {
			c.fail(fmt.Errorf("%s: %w", op.spec.Label, op.err), op.count)
			continue
		}
		key := wire.SpecCacheKey(op.spec)
		ref := refs[key]
		if ref == nil {
			ref = localReference(ctx, op.spec)
			refs[key] = ref
		}
		if ref.err != nil {
			c.fail(ref.err, op.count)
			continue
		}
		if err := compareRun(op.result, ref.result); err != nil {
			c.fail(fmt.Errorf("%s: %w", op.spec.Label, err), op.count)
			continue
		}
		err := checkOutcome(op.spec.Protocol, op.result.outcome, op.result.det.faults.Resilience, ref.truth)
		c.outcome(op.spec.Label, op.spec.Protocol, err, op.count)
	}
	return c
}

// checkBatch checks the items of one /v1/batch reply against the
// benchmark's own graph facts.
func checkBatch(specs []wire.RunSpec, items []wire.BatchItem, reqErr error) checks {
	var c checks
	if reqErr == nil && len(items) != len(specs) {
		reqErr = fmt.Errorf("%d items for %d specs", len(items), len(specs))
	}
	for i, spec := range specs {
		if reqErr != nil {
			c.fail(fmt.Errorf("batch: %w", reqErr), 1)
			continue
		}
		it := items[i]
		if it.Err != "" {
			c.fail(fmt.Errorf("%s: %s", spec.Label, it.Err), 1)
			continue
		}
		t, err := truthOf(spec.Graph)
		if err != nil {
			c.fail(fmt.Errorf("%s: %w", spec.Label, err), 1)
			continue
		}
		err = checkOutcome(spec.Protocol, it.Outcome, it.Stats.Faults.Resilience, t)
		c.outcome(spec.Label, spec.Protocol, err, 1)
	}
	return c
}
