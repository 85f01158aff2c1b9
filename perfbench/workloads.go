package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	_ "repro/internal/connlb"
	_ "repro/internal/harddist"
	"repro/internal/lowerbound"
	_ "repro/internal/misreduce"
	_ "repro/internal/proofcheck"
	"repro/internal/wire"
)

// workload is one traffic mix. Its constructor builds and warms it (that
// is the set-up the benchmark times); round runs one round of the same
// operations, and check verifies, after the window, what the rounds got
// back. A run sets its workload up several times, and each set-up warms
// it with inputs of its own, drawn from the workload seed and the set-up's
// index, so no set-up reuses what an earlier one derived.
type workload interface {
	round(ctx context.Context, i int, rec *recorder) error
	// check counts failed operations into rec and returns the messages
	// explaining them, plus any violated workload invariant.
	check(ctx context.Context, rec *recorder) []error
	// stack is the serving side, nil for a workload without one.
	stack() *stack
	close()
}

var workloads = map[string]func(ctx context.Context, seed uint64, setup int, tr *tracer) (workload, error){
	"cluster-hit": newClusterHit,
	"run-miss":    newRunMiss,
	"batch-sweep": newBatchSweep,
	"lb-sweep":    newLBSweep,
}

// derive draws an input seed from the workload seed, a label and two
// indices, so every spec of every round gets its own seed and the same
// workload seed always yields the same inputs.
func derive(seed uint64, label string, i, j int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := mix(seed ^ h.Sum64())
	x = mix(x + uint64(i)*0x9e3779b97f4a7c15)
	return mix(x + uint64(j)*0xbf58476d1ce4e5b9)
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// serving is what the /v1/run workloads share: the stack, the tracer and
// the operations the window served.
type serving struct {
	st   *stack
	tr   *tracer
	ops  []served
	seen map[servedKey]int // index into ops of each distinct result
}

type servedKey struct {
	spec   string // wire.SpecCacheKey
	result runResult
}

// keep files one operation's result for the checks.
func (s *serving) keep(spec wire.RunSpec, result runResult, err error) {
	if err != nil {
		s.ops = append(s.ops, served{spec: spec, err: err, count: 1})
		return
	}
	key := servedKey{wire.SpecCacheKey(spec), result}
	if i, ok := s.seen[key]; ok {
		s.ops[i].count++
		return
	}
	if s.seen == nil {
		s.seen = map[servedKey]int{}
	}
	s.seen[key] = len(s.ops)
	s.ops = append(s.ops, served{spec: spec, result: result, count: 1})
}

// opCount is the number of operations the records stand for.
func (s *serving) opCount() int {
	n := 0
	for _, op := range s.ops {
		n += op.count
	}
	return n
}

func (s *serving) stack() *stack { return s.st }

func (s *serving) close() { s.st.close() }

// send runs one client request carrying ops operations: timed for the
// round and, when tracing, recorded as the client span. It returns the
// request's CPU time.
func (s *serving) send(rec *recorder, ops int, fn func() error) (time.Duration, error) {
	s.tr.beginOp()
	start := time.Now()
	wall, cpu, err := rec.request(ops, fn)
	s.tr.span("client", "", start, start.Add(wall))
	return cpu, err
}

// run sends one /v1/run request. The digest and stats the checks need are
// taken after the request is timed; a traced run then replays the wire
// and graph layers on the report.
func (s *serving) run(ctx context.Context, rec *recorder, spec wire.RunSpec) error {
	var rep *wire.RunReport
	cpu, err := s.send(rec, 1, func() (err error) {
		rep, err = s.st.client.Run(ctx, spec)
		return err
	})
	if err != nil {
		s.keep(spec, runResult{}, err)
		return nil
	}
	frame := s.st.body.last.Load()
	rec.latency(frame >= heavyBytes, cpu)
	s.keep(spec, resultOf(rep), nil)
	if s.tr != nil {
		s.tr.observe("wire.frame_bytes", float64(frame))
		s.tr.replayGraph(spec)
		s.tr.engineStats(&rep.Stats)
		return s.tr.replayRun(spec, rep)
	}
	return nil
}

// roundOrder is round i's seeded order over n specs: every round sends
// each spec once, so every run attempts whole rounds of the same mix.
func roundOrder(seed uint64, i, n int) []int {
	return rand.New(rand.NewSource(int64(derive(seed, "order", i, 0)))).Perm(n)
}

// clusterHit: a coordinator over two caching backends. Set-up sends each
// smoke spec once, with graph and coin seeds drawn for the set-up; the
// window then replays those specs in seeded order, so every request is a
// cache hit and the time goes to the hit path, the coordinator's decode
// and re-encode and the client's decode of transcripts up to 1.14 MB.
// The engine does no work here.
type clusterHit struct {
	serving
	seed  uint64
	specs []wire.RunSpec
	hits0 int64
}

// clusterCacheBytes holds every smoke result with room to spare, so the
// window never evicts.
const clusterCacheBytes = 64 << 20

func newClusterHit(ctx context.Context, seed uint64, setup int, tr *tracer) (workload, error) {
	st, err := newStack(2, clusterCacheBytes, true, tr)
	if err != nil {
		return nil, err
	}
	w := &clusterHit{serving: serving{st: st, tr: tr}, seed: seed, specs: freshSpecs(seed, "setup", setup)}
	for _, spec := range w.specs {
		if _, err := st.client.Run(ctx, spec); err != nil {
			st.close()
			return nil, fmt.Errorf("warm %s: %w", spec.Label, err)
		}
	}
	w.hits0, _, _, _ = st.cacheTotals()
	return w, nil
}

func (w *clusterHit) round(ctx context.Context, i int, rec *recorder) error {
	for _, k := range roundOrder(w.seed, i, len(w.specs)) {
		if err := w.run(ctx, rec, w.specs[k]); err != nil {
			return err
		}
	}
	return nil
}

func (w *clusterHit) check(ctx context.Context, rec *recorder) []error {
	hits, misses, _, _ := w.st.cacheTotals()
	c := checkRuns(ctx, w.ops)
	c.record(rec)
	if served := int64(w.opCount() - c.failed); hits-w.hits0 < served {
		c.errs = append(c.errs, fmt.Errorf("cluster-hit: %d cache hits for %d served requests (%d misses in total)",
			hits-w.hits0, served, misses))
	}
	return c.errs
}

// runMiss: one caching daemon, fresh specs. Each request is a smoke spec
// template with graph and coin seeds drawn from the workload seed, so no
// cache key repeats; the cache budget is below a run's result bytes, so
// Put and eviction run too.
type runMiss struct {
	serving
	seed    uint64
	misses0 int64
}

// missCacheBytes is below one round's result bytes (about 5.3 MB of
// transcripts per 20 specs), so the cache evicts from the second round on.
const missCacheBytes = 4 << 20

func newRunMiss(ctx context.Context, seed uint64, setup int, tr *tracer) (workload, error) {
	st, err := newStack(1, missCacheBytes, false, tr)
	if err != nil {
		return nil, err
	}
	w := &runMiss{serving: serving{st: st, tr: tr}, seed: seed}
	for _, spec := range freshSpecs(seed, "setup", setup) {
		if _, err := st.client.Run(ctx, spec); err != nil {
			st.close()
			return nil, fmt.Errorf("warm %s: %w", spec.Label, err)
		}
	}
	_, w.misses0, _, _ = st.cacheTotals()
	return w, nil
}

// freshSpecs is the smoke sweep with every graph and coin seed redrawn.
func freshSpecs(seed uint64, label string, i int) []wire.RunSpec {
	specs := wire.SmokeSpecs(0)
	for k := range specs {
		specs[k].Graph.Seed = derive(seed, label+"/graph", i, k)
		specs[k].Seed = derive(seed, label+"/coins", i, k)
	}
	return specs
}

func (w *runMiss) round(ctx context.Context, i int, rec *recorder) error {
	specs := freshSpecs(w.seed, "window", i)
	for _, k := range roundOrder(w.seed, i, len(specs)) {
		if err := w.run(ctx, rec, specs[k]); err != nil {
			return err
		}
	}
	return nil
}

func (w *runMiss) check(ctx context.Context, rec *recorder) []error {
	_, misses, _, _ := w.st.cacheTotals()
	c := checkRuns(ctx, w.ops)
	c.record(rec)
	if n := int64(w.opCount()); misses-w.misses0 != n {
		c.errs = append(c.errs, fmt.Errorf("run-miss: %d cache misses for %d requests", misses-w.misses0, n))
	}
	return c.errs
}

// batchSweep: one daemon, one /v1/batch of eight fresh specs per round at
// n = 500–2000. Batch replies carry no transcripts, so graph build,
// engine rounds, the sketch kernels and referee decode do the work.
type batchSweep struct {
	serving
	seed    uint64
	batches []sentBatch
}

type sentBatch struct {
	specs []wire.RunSpec
	items []wire.BatchItem
	err   error
}

// batchTemplates are the batch-sweep specs; seeds are drawn per round.
var batchTemplates = []wire.RunSpec{
	{Label: "agm-forest-1k", Protocol: "agm-forest", Graph: wire.GraphSpec{Kind: "gnp", N: 1000, P: 0.01}},
	{Label: "agm-components-1k", Protocol: "agm-components", Graph: wire.GraphSpec{Kind: "gnp", N: 1000, P: 0.002}},
	{Label: "mm-tworound-2k", Protocol: "mm-tworound", Graph: wire.GraphSpec{Kind: "gnp", N: 2000, P: 0.005}},
	{Label: "mis-tworound-2k", Protocol: "mis-tworound", Graph: wire.GraphSpec{Kind: "gnp", N: 2000, P: 0.005}},
	{Label: "semistream-matching-500", Protocol: "semistream-matching", Graph: wire.GraphSpec{Kind: "gnp", N: 500, P: 0.02}},
	{Label: "semistream-matching-dyn-500", Protocol: "semistream-matching",
		Graph: wire.GraphSpec{Kind: "dyn-churn", N: 500, M: 4, R: 500, T: 1000, P: 0.3}},
	{Label: "palette-sparsification-1k", Protocol: "palette-sparsification", Graph: wire.GraphSpec{Kind: "gnp", N: 1000, P: 0.01}},
	{Label: "triangle-count-sketch-1k", Protocol: "triangle-count-sketch", Graph: wire.GraphSpec{Kind: "gnp", N: 1000, P: 0.01}},
}

func batchSpecs(seed uint64, label string, i int) []wire.RunSpec {
	specs := append([]wire.RunSpec(nil), batchTemplates...)
	for k := range specs {
		specs[k].Graph.Seed = derive(seed, label+"/graph", i, k)
		specs[k].Seed = derive(seed, label+"/coins", i, k)
	}
	return specs
}

func newBatchSweep(ctx context.Context, seed uint64, setup int, tr *tracer) (workload, error) {
	st, err := newStack(1, 0, false, tr)
	if err != nil {
		return nil, err
	}
	w := &batchSweep{serving: serving{st: st, tr: tr}, seed: seed}
	if _, err := st.client.RunBatch(ctx, batchSpecs(seed, "setup", setup)); err != nil {
		st.close()
		return nil, fmt.Errorf("warm batch: %w", err)
	}
	return w, nil
}

func (w *batchSweep) round(ctx context.Context, i int, rec *recorder) error {
	specs := batchSpecs(w.seed, "window", i)
	var items []wire.BatchItem
	cpu, err := w.send(rec, len(specs), func() (err error) {
		items, err = w.st.client.RunBatch(ctx, specs)
		return err
	})
	w.batches = append(w.batches, sentBatch{specs: specs, items: items, err: err})
	if err != nil {
		return nil
	}
	// The items of a batch run concurrently inside one request, so an
	// item's CPU time is not measurable from outside; each is charged the
	// batch's CPU time in proportion to the wall time its execution
	// reports.
	var walls time.Duration
	for _, it := range items {
		walls += it.Stats.TotalWall
	}
	for _, it := range items {
		share := cpu / time.Duration(len(items))
		if walls > 0 {
			share = time.Duration(float64(cpu) * float64(it.Stats.TotalWall) / float64(walls))
		}
		rec.latency((it.Stats.TotalBits+it.Stats.FeedbackBits)/8 >= heavyBytes, share)
	}
	if w.tr != nil {
		w.tr.observe("wire.frame_bytes", float64(w.st.body.last.Load()))
		for k, it := range items {
			w.tr.replayGraph(specs[k])
			w.tr.engineStats(&it.Stats)
		}
	}
	return nil
}

func (w *batchSweep) check(_ context.Context, rec *recorder) []error {
	var errs []error
	for _, b := range w.batches {
		c := checkBatch(b.specs, b.items, b.err)
		c.record(rec)
		errs = append(errs, c.errs...)
	}
	if len(errs) > maxMessages {
		errs = errs[:maxMessages]
	}
	return errs
}

// lbDists are the lb-sweep instances of one round: every registered
// distribution above its smoke size. The exact-enumeration micro
// distribution costs about 0.6 s an instance at t = 3 (t = 4 takes
// minutes), so it runs once a round and its instances form the heavy
// class; the sampled distributions run four times each.
var lbDists = []struct {
	name  string
	spec  lowerbound.Spec
	count int
	heavy bool
}{
	{"conn-hidden-perm", lowerbound.Spec{Size: 4096}, 4, false},
	{"mis-reduction", lowerbound.Spec{Size: 64}, 4, false},
	{"mm-dmm", lowerbound.Spec{Size: 64}, 4, false},
	{"mm-dmm-micro", lowerbound.Spec{Size: 3}, 1, true},
}

// lbSweep: lowerbound.Runner over every registered distribution. One
// operation is one sampled instance with all its obligations checked.
type lbSweep struct {
	seed uint64
	tr   *tracer
	// checks counts instances on which an exact obligation failed; whp
	// obligations are allowed isolated failures, so their verdicts are
	// tallied into the report line instead. Both are counted as the
	// window goes, so no per-instance record grows the heap.
	checks checks
}

func newLBSweep(ctx context.Context, seed uint64, setup int, tr *tracer) (workload, error) {
	w := &lbSweep{seed: seed, tr: tr}
	for _, d := range lbDists {
		rep, err := lowerbound.Runner{Trials: 1}.Run(d.name, d.spec, derive(seed, "setup/"+d.name, setup, 0))
		if err != nil {
			return nil, fmt.Errorf("warm %s: %w", d.name, err)
		}
		if !rep.AllExactHold() {
			return nil, fmt.Errorf("warm %s: an exact obligation failed", d.name)
		}
	}
	return w, nil
}

func (w *lbSweep) stack() *stack { return nil }

func (w *lbSweep) close() {}

func (w *lbSweep) round(_ context.Context, i int, rec *recorder) error {
	for _, d := range lbDists {
		obs := lowerbound.ObligationsFor(d.name)
		for k := 0; k < d.count; k++ {
			seed := derive(w.seed, "lb/"+d.name, i, k)
			var rep *lowerbound.RunReport
			lat, cpu, err := rec.request(1, func() (err error) {
				rep, err = lowerbound.Runner{Trials: 1}.RunObligations(d.name, d.spec, seed, obs)
				return err
			})
			if err != nil {
				w.checks.fail(fmt.Errorf("%s: %w", d.name, err), 1)
				continue
			}
			if !rep.AllExactHold() {
				w.checks.fail(fmt.Errorf("%s seed %d: an exact obligation failed", d.name, seed), 1)
			}
			for _, ob := range rep.Obligations {
				if ob.Severity == lowerbound.SevWHP.String() {
					w.checks.addWHP(ob.Obligation+".pass", ob.Pass)
					w.checks.addWHP(ob.Obligation+".fail", ob.Fail)
				}
			}
			rec.latency(d.heavy, cpu)
			if w.tr != nil {
				// Sampling alone, replayed from the same seed: the rest of
				// the instance's time is its obligation checks.
				start := time.Now()
				if _, err := (lowerbound.Runner{Trials: 1}).RunObligations(d.name, d.spec, seed, nil); err != nil {
					return fmt.Errorf("replay %s: %w", d.name, err)
				}
				sample := time.Since(start)
				w.tr.observeMS("lowerbound."+d.name+".sample_ms", sample)
				w.tr.observeMS("lowerbound."+d.name+".check_ms", lat-sample)
			}
		}
	}
	return nil
}

func (w *lbSweep) check(_ context.Context, rec *recorder) []error {
	w.checks.record(rec)
	return w.checks.errs
}
