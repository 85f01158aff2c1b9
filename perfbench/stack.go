package main

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
)

// stack is the serving side of a workload, in this process: refereed
// backends and optionally a coordinator in front of them, each on its own
// loopback listener, and the one client the closed loop sends through.
type stack struct {
	backends []*server.Server
	coord    *cluster.Coordinator // nil when the client talks to the backend directly
	nodes    []*node
	client   *client.Client
	// body counts the bytes of the most recent response the client read.
	body *countingTransport
}

// quiet drops every log record: the daemons log one line per request,
// which would otherwise be part of what the benchmark times.
var quiet = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(64)}))

// newStack starts n caching backends (cacheBytes 0 disables their result
// cache) and, when coordinated, a coordinator over them. With a tracer,
// every handler is wrapped in a span.
func newStack(n int, cacheBytes int64, coordinated bool, tr *tracer) (*stack, error) {
	st := &stack{}
	parent := "client"
	if coordinated {
		parent = "cluster"
	}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s := server.New(server.Config{CacheBytes: cacheBytes, Logger: quiet})
		nd, err := listen(tr.backendHandler(s, parent))
		if err != nil {
			st.close()
			return nil, err
		}
		st.backends = append(st.backends, s)
		st.nodes = append(st.nodes, nd)
		addrs = append(addrs, nd.addr)
	}
	target := "http://" + addrs[0]
	if coordinated {
		co, err := cluster.New(cluster.Config{Backends: addrs, Retries: -1, Logger: quiet})
		if err != nil {
			st.close()
			return nil, err
		}
		nd, err := listen(tr.layerHandler("cluster", "client", co))
		if err != nil {
			st.close()
			return nil, err
		}
		st.coord = co
		st.nodes = append(st.nodes, nd)
		target = "http://" + nd.addr
	}
	st.body = &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	st.client = client.New(client.Config{BaseURL: target, HTTPClient: &http.Client{Transport: st.body}, Retries: -1})
	return st, nil
}

// cacheTotals sums the backends' result-cache counters.
func (st *stack) cacheTotals() (hits, misses, evictions, bytes int64) {
	for _, s := range st.backends {
		c := s.Stats().Cache
		hits += c.Hits
		misses += c.Misses
		evictions += c.Evictions
		bytes += c.Bytes
	}
	return
}

// close shuts every listener down, waits for the servers to return and
// drops the idle keep-alive connections on both sides.
func (st *stack) close() {
	for i := len(st.nodes) - 1; i >= 0; i-- {
		st.nodes[i].close()
	}
	if st.body != nil {
		st.body.base.CloseIdleConnections()
	}
	// The coordinator's per-backend clients use http.DefaultClient.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// node is one loopback listener serving a handler until closed.
type node struct {
	addr string
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nd := &node{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { nd.done <- nd.srv.Serve(ln) }()
	return nd, nil
}

func (nd *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := nd.srv.Shutdown(ctx); err != nil {
		nd.srv.Close()
	}
	<-nd.done
}

// countingTransport counts the body bytes of the latest response: the
// size of the frame the client decoded.
type countingTransport struct {
	base *http.Transport
	last atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	t.last.Store(0)
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.last}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}
