package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// heavyBytes splits operations into two latency classes: an operation is
// heavy when the transcript it moves or produces is at least 64 KiB (the
// AGM family, MST and the cut sparsifier at smoke sizes). One percentile
// over both classes would land on the boundary between 0.03 ms and 35 ms
// requests and describe neither.
const heavyBytes = 64 << 10

// recorder collects the timed window's samples and its operation counts.
//
// Every time it keeps is process CPU time (user+system, all threads:
// client, servers and garbage collector alike), not wall time. Client and
// servers share one process and one request is in flight, so a request's
// CPU time is what serving it cost the machine. Wall time on a shared
// 2-vCPU host follows the host instead: under steal the same instances
// ran twice as long for minutes at a time while their CPU time moved by
// a third as much (README: End-to-end metrics).
type recorder struct {
	// heavy and light are per-operation CPU times in milliseconds.
	heavy, light []float64
	rounds       []roundSample
	cur          roundSample
	// liveHeap is the heap the runtime's latest collection found live,
	// read after every round, in bytes.
	liveHeap  []float64
	attempted int
	failed    int
	// extra carries workload-specific counts into the report line.
	extra map[string]float64
}

// roundSample is one round's request time: wall and process CPU summed
// over its requests, so the benchmark's own bookkeeping between requests
// (digests kept for the checks, trace replays) is not charged to the
// system under test.
type roundSample struct {
	wall, cpu time.Duration
	ops       int
}

func (r *recorder) beginRound() { r.cur = roundSample{} }

func (r *recorder) endRound() {
	r.rounds = append(r.rounds, r.cur)
	r.liveHeap = append(r.liveHeap, float64(liveHeapBytes()))
}

// liveHeapBytes is the heap marked live by the most recent garbage
// collection. It needs no forced collection, so reading it after every
// round leaves the program's own GC pacing alone.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// request times fn as one request of the current round and returns its
// wall and process CPU time. ops is the number of operations the request
// carries.
func (r *recorder) request(ops int, fn func() error) (wall, cpu time.Duration, err error) {
	c0 := cpuTime()
	t0 := time.Now()
	err = fn()
	wall = time.Since(t0)
	cpu = cpuTime() - c0
	r.cur.wall += wall
	r.cur.cpu += cpu
	r.cur.ops += ops
	r.attempted += ops
	return wall, cpu, err
}

// latency files one operation's CPU time under its class.
func (r *recorder) latency(heavy bool, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	if heavy {
		r.heavy = append(r.heavy, ms)
	} else {
		r.light = append(r.light, ms)
	}
}

func (r *recorder) addExtra(name string, v float64) {
	if r.extra == nil {
		r.extra = map[string]float64{}
	}
	r.extra[name] += v
}

// endToEnd computes the end-to-end metrics of the window. ops_per_cpu_s
// is the window's operations over their summed CPU time and
// batch_cpu_p50_ms the median round's CPU time.
func (r *recorder) endToEnd(setupSeconds float64) map[string]metric {
	var roundMS []float64
	var ops int
	var cpu time.Duration
	for _, s := range r.rounds {
		if s.ops == 0 || s.cpu <= 0 {
			continue
		}
		ops += s.ops
		cpu += s.cpu
		roundMS = append(roundMS, float64(s.cpu)/float64(time.Millisecond))
	}
	var rate float64
	if cpu > 0 {
		rate = float64(ops) / cpu.Seconds()
	}
	return map[string]metric{
		"setup_s":           {setupSeconds, "s"},
		"ops_per_cpu_s":     {rate, "1/s"},
		"heavy_cpu_p50_ms":  {median(r.heavy), "ms"},
		"heavy_cpu_tail_ms": {tail(r.heavy), "ms"},
		"light_cpu_p50_ms":  {median(r.light), "ms"},
		"light_cpu_tail_ms": {tail(r.light), "ms"},
		"batch_cpu_p50_ms":  {median(roundMS), "ms"},
		"live_heap_mb":      {median(r.liveHeap) / (1 << 20), "MB"},
	}
}

// wallRate is the window's operations over their summed wall time. It
// goes to the report line only: on a shared host it follows the host.
func (r *recorder) wallRate() float64 {
	var ops int
	var wall time.Duration
	for _, s := range r.rounds {
		ops += s.ops
		wall += s.wall
	}
	if wall <= 0 {
		return 0
	}
	return float64(ops) / wall.Seconds()
}

// median returns the middle of xs (the mean of the middle two for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailBeyond is how many samples must lie beyond a tail percentile, and
// minTail the fewest samples a tail is reported for: below it the median
// stands in, since a percentile with fewer samples beyond it is no tail.
// tailBlock is the block a long run's samples are cut into: the tail of
// a block of 100 is its 90th percentile.
const (
	tailBeyond = 10
	minTail    = 40
	tailBlock  = 100
)

// tail returns the highest sample with tailBeyond samples above it. A
// class with at least tailBlock samples is cut into blocks of tailBlock
// consecutive samples and the median of the blocks' tails is returned:
// over a whole 20 s run that percentile would be a p98 or p99, which a
// few descheduled requests move by half from one run to the next.
func tail(xs []float64) float64 {
	if len(xs) < tailBlock {
		return blockTail(xs)
	}
	var tails []float64
	for i := 0; i+tailBlock <= len(xs); i += tailBlock {
		tails = append(tails, blockTail(xs[i:i+tailBlock]))
	}
	return median(tails)
}

// blockTail is the sample with tailBeyond samples above it, or the
// median of fewer than minTail samples.
func blockTail(xs []float64) float64 {
	if len(xs) < minTail {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)-1-tailBeyond]
}

// tailPct is the percentile tail reports for n samples (50 when it falls
// back to the median).
func tailPct(n int) float64 {
	switch {
	case n >= tailBlock:
		n = tailBlock
	case n < minTail:
		return 50
	}
	return 100 * float64(n-tailBeyond) / float64(n)
}

// cpuTime is the user+system CPU time the process has used so far, over
// all its threads: client, servers and garbage collector alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the machine-wide steal time from /proc/stat: time the
// hypervisor ran something else while this machine's CPUs wanted to run.
func stealTicks() (int64, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			return strconv.ParseInt(fields[8], 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/stat: no cpu line")
}
