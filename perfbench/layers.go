package main

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securearchive/internal/core"
	"securearchive/internal/obs/trace"
	"securearchive/internal/store"
)

// probe is the traced run's instrumentation, all of it in the
// benchmark's own files: decorators around the seams the program
// already exposes (the Encoding handed to NewVault, the store.Store
// handed to cluster.NewWithStore, the http.Handler from
// api.Server.Handler) and an exporter for the spans the program
// already records. Every counter restarts at reset, so a snapshot
// covers exactly the measured window.
type probe struct {
	enc     codecTimes
	store   storeTimes
	handler [numOps]timer
	spans   *spanAgg
}

func newProbe() *probe { return &probe{spans: &spanAgg{}} }

func (p *probe) reset() {
	for _, t := range []*timer{&p.enc.encode, &p.enc.decode,
		&p.store.stage, &p.store.get, &p.store.put, &p.store.commit} {
		t.reset()
	}
	for op := range p.handler {
		p.handler[op].reset()
	}
	p.spans.reset()
}

// timer accumulates calls, time and bytes at one seam.
type timer struct {
	n, ns, bytes atomic.Int64
}

func (t *timer) reset() {
	t.n.Store(0)
	t.ns.Store(0)
	t.bytes.Store(0)
}

func (t *timer) add(start time.Time, bytes int) {
	t.n.Add(1)
	t.ns.Add(time.Since(start).Nanoseconds())
	t.bytes.Add(int64(bytes))
}

// meanMs is the mean time per call in milliseconds; 0 with no calls.
func (t *timer) meanMs() float64 { return ratio(float64(t.ns.Load())/1e6, float64(t.n.Load())) }

// mbPerS is bytes over busy time in MB/s; 0 with no time.
func (t *timer) mbPerS() float64 { return ratio(float64(t.bytes.Load())*1e3, float64(t.ns.Load())) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// --- codec ---

type codecTimes struct{ encode, decode timer }

// timedEncoding decorates the vault's Encoding. It embeds the interface
// only, so it implements no optional interface (Parallelizable) and the
// vault takes the same paths as with the bare encoding.
type timedEncoding struct {
	core.Encoding
	t *codecTimes
}

func (p *probe) wrapEncoding(enc core.Encoding) core.Encoding {
	return timedEncoding{Encoding: enc, t: &p.enc}
}

func (e timedEncoding) Encode(data []byte, rnd io.Reader) (*core.Encoded, error) {
	start := time.Now()
	enc, err := e.Encoding.Encode(data, rnd)
	e.t.encode.add(start, len(data))
	return enc, err
}

func (e timedEncoding) Decode(enc *core.Encoded) ([]byte, error) {
	start := time.Now()
	data, err := e.Encoding.Decode(enc)
	e.t.decode.add(start, len(data))
	return data, err
}

// --- store ---

type storeTimes struct {
	stage, get, put, commit timer
}

// timedStore decorates the disk backend; CommitStage is the fsync
// commit point.
type timedStore struct {
	store.Store
	nodes []store.NodeStore
	t     *storeTimes
}

type timedNode struct {
	store.NodeStore
	t *storeTimes
}

func (p *probe) wrapStore(bk store.Store) store.Store {
	s := &timedStore{Store: bk, t: &p.store}
	for i := 0; i < bk.Nodes(); i++ {
		s.nodes = append(s.nodes, timedNode{NodeStore: bk.Node(i), t: &p.store})
	}
	return s
}

func (s *timedStore) Node(id int) store.NodeStore { return s.nodes[id] }

func (s *timedStore) CommitStage(stage string, epoch int) (int, error) {
	start := time.Now()
	n, err := s.Store.CommitStage(stage, epoch)
	s.t.commit.add(start, 0)
	return n, err
}

func (n timedNode) Put(sh store.Shard) error {
	start := time.Now()
	err := n.NodeStore.Put(sh)
	n.t.put.add(start, len(sh.Data))
	return err
}

func (n timedNode) Get(key store.ShardKey) (store.Shard, bool, error) {
	start := time.Now()
	sh, ok, err := n.NodeStore.Get(key)
	n.t.get.add(start, len(sh.Data))
	return sh, ok, err
}

func (n timedNode) Stage(stage string, sh store.Shard) error {
	start := time.Now()
	err := n.NodeStore.Stage(stage, sh)
	n.t.stage.add(start, len(sh.Data))
	return err
}

// --- api ---

// wrapHandler times each object request from the moment the service's
// handler receives it until the handler returns.
func (p *probe) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if op, ok := routeOp(r); ok {
			p.handler[op].add(start, 0)
		}
	})
}

func routeOp(r *http.Request) (opKind, bool) {
	switch {
	case r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/objects/"):
		return opPut, true
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/objects/"):
		return opGet, true
	case r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/scrub/"):
		return opScrub, true
	}
	return 0, false
}

// --- spans ---

// spanStat sums one span name's durations and self times (duration
// minus the part of it its direct children cover).
type spanStat struct {
	n, ns, selfNs int64
}

// rootStat aggregates the traces under one root span name (api.get,
// api.put, api.scrub).
type rootStat struct {
	traces, rootNs int64
	spans          map[string]*spanStat
	// probes and probeBytes count the shard reads the cluster made
	// (successful cluster.probe spans) and the bytes they returned.
	probes, probeBytes int64
}

// spanAgg is a trace.Exporter that folds every completed trace into
// per-root span statistics while armed.
type spanAgg struct {
	armed atomic.Bool
	mu    sync.Mutex
	roots map[string]*rootStat
}

func (a *spanAgg) reset() {
	a.mu.Lock()
	a.roots = make(map[string]*rootStat)
	a.mu.Unlock()
}

// root returns a copy of the statistics under one root span name.
func (a *spanAgg) root(name string) rootStat {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := rootStat{spans: map[string]*spanStat{}}
	if live := a.roots[name]; live != nil {
		r = *live
		r.spans = make(map[string]*spanStat, len(live.spans))
		for k, v := range live.spans {
			st := *v
			r.spans[k] = &st
		}
	}
	return r
}

// Export implements trace.Exporter.
func (a *spanAgg) Export(t *trace.Trace) {
	if !a.armed.Load() {
		return
	}
	root := t.RootSpan()
	if root == nil {
		return
	}
	kids := make(map[uint64][]*trace.SpanRecord, len(t.Spans))
	for _, s := range t.Spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rs := a.roots[root.Name]
	if rs == nil {
		rs = &rootStat{spans: map[string]*spanStat{}}
		a.roots[root.Name] = rs
	}
	rs.traces++
	rs.rootNs += root.DurNs
	for _, s := range t.Spans {
		st := rs.spans[s.Name]
		if st == nil {
			st = &spanStat{}
			rs.spans[s.Name] = st
		}
		st.n++
		st.ns += s.DurNs
		st.selfNs += selfNs(s, kids[s.SpanID])
		if s.Name == "cluster.probe" && s.Err == "" {
			rs.probes++
			if b, ok := s.Attr("bytes"); ok {
				rs.probeBytes += b.Num
			}
		}
	}
}

// selfNs is the span's duration minus the union of its children's
// intervals, clipped to the span.
func selfNs(s *trace.SpanRecord, kids []*trace.SpanRecord) int64 {
	lo, hi := s.Start.UnixNano(), s.Start.UnixNano()+s.DurNs
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start.UnixNano(), lo), min(k.Start.UnixNano()+k.DurNs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return s.DurNs - covered
}

// span returns the statistics of one span name under one root.
func (r *rootStat) span(name string) spanStat {
	if st := r.spans[name]; st != nil {
		return *st
	}
	return spanStat{}
}

func (s spanStat) meanMs() float64     { return ratio(float64(s.ns)/1e6, float64(s.n)) }
func (s spanStat) meanSelfMs() float64 { return ratio(float64(s.selfNs)/1e6, float64(s.n)) }
