package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/wire"
)

// span is one timed interval at a layer boundary. Spans of one client
// request share Op; with one request in flight they nest, so a layer's
// self time is its span minus its children's.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans and per-operation samples in memory;
// they are written out when the run ends. A nil *tracer traces nothing.
type tracer struct {
	t0      time.Time
	op      atomic.Int64
	mu      sync.Mutex
	spans   []span
	samples map[string]*mean
	values  map[string]float64
	// cache and failover counters at the start of the window.
	hits0, misses0, evictions0, failovers0 int64
}

// mean accumulates a per-operation average.
type mean struct {
	sum float64
	n   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start drops what set-up recorded and snapshots the counters the window
// is measured against.
func (t *tracer) start(ctx context.Context, w workload) {
	t.mu.Lock()
	t.spans = nil
	t.samples = map[string]*mean{}
	t.values = map[string]float64{}
	t.mu.Unlock()
	if st := w.stack(); st != nil {
		t.hits0, t.misses0, t.evictions0, _ = st.cacheTotals()
		t.failovers0 = failovers(ctx, st)
	}
}

// beginOp starts a new client request and returns its id.
func (t *tracer) beginOp() int64 {
	if t == nil {
		return 0
	}
	return t.op.Add(1)
}

func (t *tracer) span(name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: t.op.Load(), Name: name, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// observe adds one per-operation sample of a per-layer metric.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	m := t.samples[name]
	if m == nil {
		m = &mean{}
		t.samples[name] = m
	}
	m.sum += v
	m.n++
	t.mu.Unlock()
}

func (t *tracer) observeMS(name string, d time.Duration) {
	t.observe(name, float64(d)/float64(time.Millisecond))
}

// layerHandler wraps h in a span named name.
func (t *tracer) layerHandler(name, parent string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if r.Method == http.MethodPost {
			t.span(name, parent, start, time.Now())
		}
	})
}

// backendHandler wraps a refereed backend in a span named after the path
// the request took: server.batch, server.hit (the result cache answered)
// or server.miss (the engine executed).
func (t *tracer) backendHandler(s *server.Server, parent string) http.Handler {
	if t == nil {
		return s
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits := s.Stats().Cache.Hits
		start := time.Now()
		s.ServeHTTP(w, r)
		end := time.Now()
		switch {
		case r.Method != http.MethodPost:
		case r.URL.Path == "/v1/batch":
			t.span("server.batch", parent, start, end)
		case s.Stats().Cache.Hits > hits:
			t.span("server.hit", parent, start, end)
		default:
			t.span("server.miss", parent, start, end)
		}
	})
}

// replayRun times the wire layer on a report the client was served, once
// per codec step, after the request has completed: encode and decode of
// the full frame, the cache hit's re-frame around a spec echo, and the
// transcript digest.
func (t *tracer) replayRun(spec wire.RunSpec, rep *wire.RunReport) error {
	if t == nil {
		return nil
	}
	start := time.Now()
	frame := wire.EncodeRunReport(rep)
	t.observeMS("wire.encode_ms", time.Since(start))
	start = time.Now()
	if _, err := wire.DecodeRunReport(frame); err != nil {
		return fmt.Errorf("re-decode %s: %w", spec.Label, err)
	}
	t.observeMS("wire.decode_ms", time.Since(start))
	payload := wire.EncodeResultPayload(rep)
	start = time.Now()
	wire.EncodeRunReportForSpec(spec, payload)
	t.observeMS("wire.reframe_ms", time.Since(start))
	start = time.Now()
	wire.TranscriptDigest(rep.Transcript)
	t.observeMS("wire.digest_ms", time.Since(start))
	return nil
}

// replayGraph times the graph build of a served spec.
func (t *tracer) replayGraph(spec wire.RunSpec) {
	if t == nil {
		return
	}
	start := time.Now()
	if _, err := wire.BuildGraph(spec.Graph); err != nil {
		return
	}
	t.observeMS("graph.build_ms", time.Since(start))
}

// engineStats files the engine's own accounting of one execution, as
// every response carries it.
func (t *tracer) engineStats(s *engine.RunStats) {
	if t == nil {
		return
	}
	t.observeMS("engine.broadcast_ms", s.BroadcastWall)
	t.observeMS("referee.decode_ms", s.DecodeWall)
	t.observe("engine.rounds", float64(s.CompletedRounds))
	t.observe("engine.player_bits", float64(s.TotalBits))
	t.observe("engine.feedback_bits", float64(s.FeedbackBits))
	t.observe("faults.straggled", float64(s.Faults.Straggled))
}

// finishWindow turns the window's spans and counters into per-layer
// values.
func (t *tracer) finishWindow(ctx context.Context, w workload, win *window, rec *recorder) {
	type opSpans struct{ client, cluster, server time.Duration }
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	byOp := map[int64]*opSpans{}
	for _, s := range spans {
		o := byOp[s.Op]
		if o == nil {
			o = &opSpans{}
			byOp[s.Op] = o
		}
		d := time.Duration(s.End - s.Start)
		switch s.Name {
		case "client":
			o.client += d
		case "cluster":
			o.cluster += d
		default:
			o.server += d
			t.observeMS(s.Name+"_ms", d)
		}
	}
	for _, o := range byOp {
		if o.client == 0 {
			continue
		}
		if o.cluster > 0 {
			t.observeMS("client.self_ms", o.client-o.cluster)
			t.observeMS("cluster.self_ms", o.cluster-o.server)
		} else {
			t.observeMS("client.self_ms", o.client-o.server)
		}
	}

	ops := float64(rec.attempted)
	before, after := &win.memBefore, &win.memAfter
	t.values["runtime.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / ops
	t.values["runtime.gc_cycles_per_op"] = float64(after.NumGC-before.NumGC) / ops
	t.values["runtime.gc_pause_ms_per_op"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / ops

	if st := w.stack(); st != nil {
		hits, misses, evictions, bytes := st.cacheTotals()
		hits -= t.hits0
		misses -= t.misses0
		t.values["cache.hits"] = float64(hits)
		t.values["cache.misses"] = float64(misses)
		t.values["cache.evictions"] = float64(evictions - t.evictions0)
		t.values["cache.bytes"] = float64(bytes)
		if hits+misses > 0 {
			t.values["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		t.values["cluster.failovers"] = float64(failovers(ctx, st) - t.failovers0)
	}
}

// failovers reads the coordinator's failover counter (0 without one).
func failovers(ctx context.Context, st *stack) int64 {
	if st.coord == nil {
		return 0
	}
	return st.coord.Stats(ctx).Failovers
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists the per-layer metrics a traced run prints, with
// their units. Timings, bytes and engine counts are means per operation
// (per request for the client, cluster and server spans); cache and
// failover counts cover the window.
var layerMetrics = append([]layerMetric{
	{"wire.frame_bytes", "bytes"},
	{"wire.encode_ms", "ms"},
	{"wire.decode_ms", "ms"},
	{"wire.reframe_ms", "ms"},
	{"wire.digest_ms", "ms"},
	{"client.self_ms", "ms"},
	{"cluster.self_ms", "ms"},
	{"server.hit_ms", "ms"},
	{"server.miss_ms", "ms"},
	{"server.batch_ms", "ms"},
	{"cluster.failovers", "count"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.evictions", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.bytes", "bytes"},
	{"graph.build_ms", "ms"},
	{"engine.broadcast_ms", "ms"},
	{"referee.decode_ms", "ms"},
	{"engine.rounds", "count"},
	{"engine.player_bits", "bits"},
	{"engine.feedback_bits", "bits"},
	{"faults.straggled", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
}, lowerboundLayerMetrics()...)

// lowerboundLayerMetrics are the sampling and checking time of each
// lb-sweep distribution.
func lowerboundLayerMetrics() []layerMetric {
	var out []layerMetric
	for _, d := range lbDists {
		out = append(out,
			layerMetric{"lowerbound." + d.name + ".sample_ms", "ms"},
			layerMetric{"lowerbound." + d.name + ".check_ms", "ms"})
	}
	return out
}

// metrics returns every per-layer metric; a layer the workload does not
// reach reads 0.
func (t *tracer) metrics() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		v, ok := t.values[m.name]
		if s := t.samples[m.name]; !ok && s != nil && s.n > 0 {
			v = s.sum / float64(s.n)
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
