// Command archivebench is the repository's benchmark: it starts the
// archive service the way `archivectl serve` does, but at production
// parameters (2048-bit commitment group, disk store fsyncing at every
// commit, AONT-RS 4-of-8), drives it over loopback HTTP with the
// service's Go client from a closed loop of two clients, and checks
// every response against a seeded oracle.
//
//	archivebench -workload archive-mix -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the same workload once plain and once with the per-layer decorators
// on, and reports the per-layer metrics. The last line of standard
// output is one JSON object: correct, attempted, failed, metrics. See
// README.md for the workloads and the metric map.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"securearchive/internal/core"
	"securearchive/internal/group"
	"securearchive/internal/obs"
)

// defaultSetups is how many times an end-to-end run sets up; setup_s is
// the median.
const defaultSetups = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	root     string
	setups   int
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "archive-mix", "workload name")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&opt.workdir, "workdir", ".bench_build/runs", "directory for the runs' temporary archives")
	flag.StringVar(&opt.root, "root", ".", "source tree, for provenance")
	flag.Parse()
	opt.trace = traceFlag == 1
	opt.setups = defaultSetups

	w, err := findWorkload(opt.workload)
	if err == nil {
		err = run(context.Background(), opt, w, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "archivebench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and prints each as it is added.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.note(name, value, unit, note)
}

// note prints a figure that is not one of the result's metrics.
func (r *report) note(name string, value float64, unit, note string) {
	fmt.Fprintf(r.out, "  %-40s %14.4f %-6s %s\n", name, value, unit, note)
}

func run(ctx context.Context, opt options, w workload, out io.Writer) error {
	if opt.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	fmt.Fprintf(out, "archivebench: workload=%s seed=%d seconds=%g trace=%t\n", w.name, opt.seed, opt.seconds, opt.trace)
	prov, err := json.Marshal(provenance(opt.root))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "provenance %s\n", prov)

	p := newPayloads(opt.seed, w.objSize)
	rep := &report{out: out, metrics: map[string]metric{}}
	var total tally
	if opt.trace {
		err = runTraced(ctx, opt, &w, p, rep, &total)
	} else {
		err = runEndToEnd(ctx, opt, &w, p, rep, &total)
	}
	if err != nil {
		return err
	}
	total.logErrors(w.name)
	res := result{
		Correct:   total.failed == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   rep.metrics,
	}
	rep.note("failed_ratio", ratio(float64(total.failed), float64(total.attempted)), "ratio",
		fmt.Sprintf("%d of %d requests", total.failed, total.attempted))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// setupOnce starts a deployment and preloads it; the duration covers
// both.
func setupOnce(ctx context.Context, opt options, w *workload, p *payloads, traced bool) (*deployment, time.Duration, *tally, error) {
	// Flush what earlier runs and set-ups left dirty in the page cache,
	// so their writeback does not land inside this measurement.
	syscall.Sync()
	start := time.Now()
	d, err := deploy(opt.workdir, w, traced)
	if err != nil {
		return nil, 0, nil, err
	}
	pre := d.preload(ctx, w, p)
	took := time.Since(start)
	if pre.failed > 0 {
		pre.logErrors("preload")
		return nil, 0, nil, errors.Join(fmt.Errorf("preload: %d of %d PUTs failed", pre.failed, pre.attempted), d.close())
	}
	return d, took, pre, nil
}

// phase is one measured window on a fresh deployment, followed by the
// read-back of every object the service acknowledged.
type phase struct {
	win       *tally
	diskRatio float64
	rssMB     float64
}

// measure warms the deployment up, drives the window, takes the at-rest
// and memory figures, and reads every acknowledged object back through
// the service.
func measure(ctx context.Context, d *deployment, w *workload, p *payloads, pre *tally, seed int64, dur time.Duration, total *tally) (*phase, error) {
	plans := newPlans(w, seed)
	warm := d.warmUp(ctx, w, plans, p)
	syscall.Sync()
	win := d.drive(ctx, plans, p, time.Now().Add(dur), 0)
	ph := &phase{win: win, rssMB: peakRSSMB()}
	disk, err := d.diskBytes()
	if err != nil {
		return nil, err
	}
	ph.diskRatio = ratio(float64(disk), float64(pre.bytes[opPut]+warm.bytes[opPut]+win.bytes[opPut]))
	rb, _ := d.readBack(ctx, p, acked(pre, warm, win), false)
	for _, t := range []*tally{pre, warm, win, rb} {
		total.merge(t)
	}
	return ph, nil
}

func runEndToEnd(ctx context.Context, opt options, w *workload, p *payloads, rep *report, total *tally) error {
	setups := max(opt.setups, 1)
	var setupS []float64
	preloads := &tally{}
	var d *deployment
	var pre *tally
	for i := 0; i < setups; i++ {
		nd, took, np, err := setupOnce(ctx, opt, w, p, false)
		if err != nil {
			return err
		}
		setupS = append(setupS, took.Seconds())
		preloads.merge(np)
		if i < setups-1 {
			total.merge(np)
			if err := nd.close(); err != nil {
				return err
			}
			continue
		}
		d, pre = nd, np
	}
	dur := time.Duration(opt.seconds * float64(time.Second))
	ph, err := measure(ctx, d, w, p, pre, opt.seed, dur, total)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	win := ph.win
	secs := win.elapsed.Seconds()
	rep.add("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups %s", len(setupS), fmtList(setupS)))
	rep.add("ops_per_s", float64(win.ok())/secs, "1/s", fmt.Sprintf("%d requests in %.2f s", win.ok(), secs))
	// A workload with no PUT in its window (hot-recall) reports its PUT
	// figures from the preload PUTs of all its set-ups, which the same
	// two clients drive through the same service.
	puts, putSecs, putSrc := win.lat[opPut], secs, "window"
	putBytes := win.bytes[opPut]
	if len(puts) == 0 {
		puts, putSecs, putSrc = preloads.lat[opPut], preloads.elapsed.Seconds(), "preload"
		putBytes = preloads.bytes[opPut]
	}
	rep.add("ingest_mb_s", float64(putBytes)/1e6/putSecs, "MB/s", putSrc)
	rep.add("recall_mb_s", float64(win.bytes[opGet])/1e6/secs, "MB/s", "")
	addLatency(rep, "put", puts, w.putTail, putSrc)
	addLatency(rep, "get", win.lat[opGet], w.getTail, "window")
	if n := len(win.lat[opScrub]); n > 0 {
		rep.note("scrub_p50_ms", quantile(win.lat[opScrub], 0.5), "ms", fmt.Sprintf("n=%d (not gated)", n))
	}
	rep.add("disk_bytes_per_user_byte", ph.diskRatio, "B/B", "")
	rep.add("peak_rss_mb", ph.rssMB, "MB", "VmHWM")
	return nil
}

// addLatency reports a median and the workload's tail percentile, and
// prints the tail under its percentile name too (get_p99_ms, put_p95_ms).
func addLatency(rep *report, op string, samples []time.Duration, tail float64, src string) {
	n := fmt.Sprintf("n=%d %s", len(samples), src)
	rep.add(op+"_p50_ms", quantile(samples, 0.5), "ms", n)
	pct := fmt.Sprintf("p%d", int(tail*100+0.5))
	rep.add(op+"_tail_ms", quantile(samples, tail), "ms", n+" "+pct)
	rep.note(op+"_"+pct+"_ms", quantile(samples, tail), "ms", n)
}

func runTraced(ctx context.Context, opt options, w *workload, p *payloads, rep *report, total *tally) error {
	half := time.Duration(opt.seconds * float64(time.Second) / 2)

	// Plain half: the end-to-end configuration, for the overhead ratio.
	d, _, pre, err := setupOnce(ctx, opt, w, p, false)
	if err != nil {
		return err
	}
	plain, err := measure(ctx, d, w, p, pre, opt.seed, half, total)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Traced half: the same workload with every decorator on.
	d, _, pre, err = setupOnce(ctx, opt, w, p, true)
	if err != nil {
		return err
	}
	plans := newPlans(w, opt.seed)
	warm := d.warmUp(ctx, w, plans, p)
	pr := d.probe
	pr.reset()
	cache0 := d.vault.CacheStats()
	lock0 := d.reg.Histogram("vault.lock.wait_ns", obs.LatencyBuckets())
	lockN0, lockSum0 := lock0.Count(), lock0.Sum()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	syscall.Sync()
	pr.spans.armed.Store(true)
	win := d.drive(ctx, plans, p, time.Now().Add(half), 0)
	pr.spans.armed.Store(false)
	runtime.ReadMemStats(&ms1)
	cache1 := d.vault.CacheStats()
	lockN1, lockSum1 := lock0.Count(), lock0.Sum()
	layerMetrics(rep, pr, win, plain.win)

	rep.add("vault.lock_wait_ms", ratio((lockSum1-lockSum0)/1e6, float64(lockN1-lockN0)), "ms",
		fmt.Sprintf("n=%d", lockN1-lockN0))
	gets := float64(len(win.lat[opGet]))
	var hitRatio, evictPerK float64
	if cache0 != nil {
		hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
		hitRatio = ratio(float64(hits), float64(hits+misses))
		evictPerK = ratio(float64(cache1.Evictions-cache0.Evictions)*1000, gets)
	}
	rep.add("cache.hit_ratio", hitRatio, "ratio", cacheNote(cache0))
	rep.add("cache.evictions_per_kget", evictPerK, "count", cacheNote(cache0))
	rep.add("stream.peak_buffered_bytes", float64(d.vault.StreamPeakBuffered()), "B", "")
	ops := float64(win.ok())
	rep.add("runtime.alloc_bytes_per_op", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), ops), "B", "client and server")
	rep.add("runtime.gc_pauses_per_s", float64(ms1.NumGC-ms0.NumGC)/win.elapsed.Seconds(), "1/s", "")

	rb, _ := d.readBack(ctx, p, acked(pre, warm, win), false)
	for _, t := range []*tally{pre, warm, win, rb} {
		total.merge(t)
	}
	if err := d.close(); err != nil {
		return err
	}
	return microLayers(rep)
}

func cacheNote(s *core.CacheStats) string {
	if s == nil {
		return "cache off"
	}
	return ""
}

// layerMetrics turns the traced window's decorator timers and span
// statistics into the per-layer metrics. Times are means per call, so
// they add: a layer's self time is its span minus its children.
func layerMetrics(rep *report, pr *probe, win, plain *tally) {
	get := pr.spans.root("api.get")
	put := pr.spans.root("api.put")
	clientGet, clientPut := meanMs(win.lat[opGet]), meanMs(win.lat[opPut])
	hGet, hPut := pr.handler[opGet].meanMs(), pr.handler[opPut].meanMs()
	vGet, vPut := get.span("vault.get"), put.span("vault.put")
	gets, puts := float64(len(win.lat[opGet])), float64(len(win.lat[opPut]))

	rep.add("api.handler_get_ms", hGet, "ms", fmt.Sprintf("n=%d", pr.handler[opGet].n.Load()))
	rep.add("api.handler_put_ms", hPut, "ms", fmt.Sprintf("n=%d", pr.handler[opPut].n.Load()))
	rep.add("api.transport_get_ms", nonNeg(clientGet-hGet, gets), "ms", "client GET minus handler")
	rep.add("api.transport_put_ms", nonNeg(clientPut-hPut, puts), "ms", "client PUT minus handler")
	rep.add("api.handler_self_get_ms", nonNeg(hGet-vGet.meanMs(), gets), "ms", "handler minus vault.get")

	rep.add("vault.put_ms", vPut.meanMs(), "ms", fmt.Sprintf("n=%d", vPut.n))
	rep.add("vault.get_ms", vGet.meanMs(), "ms", fmt.Sprintf("n=%d", vGet.n))
	rep.add("vault.self_get_ms", vGet.meanSelfMs(), "ms", "vault.get minus decode, fetch, verify")

	enc, dec := &pr.enc.encode, &pr.enc.decode
	rep.add("codec.encode_ms", enc.meanMs(), "ms", fmt.Sprintf("n=%d", enc.n.Load()))
	rep.add("codec.decode_ms", dec.meanMs(), "ms", fmt.Sprintf("n=%d", dec.n.Load()))
	rep.add("codec.encode_mb_s", enc.mbPerS(), "MB/s", "")
	rep.add("codec.decode_mb_s", dec.mbPerS(), "MB/s", "")
	rep.add("codec.encode_calls_per_put", ratio(float64(enc.n.Load()), puts), "count", "")

	verify := get.span("vault.verify")
	rep.add("integrity.verify_get_ms", ratio(float64(verify.ns)/1e6, float64(get.traces)), "ms", "vault.verify per GET")
	rep.add("integrity.share_of_get", ratio(float64(verify.ns), float64(sumNs(win.lat[opGet]))), "ratio", "of client GET time")

	fetch, stage := get.span("cluster.fetch"), put.span("cluster.stage")
	rep.add("cluster.fetch_ms", fetch.meanMs(), "ms", fmt.Sprintf("n=%d stripe fetches", fetch.n))
	rep.add("cluster.stage_ms", stage.meanMs(), "ms", fmt.Sprintf("n=%d", stage.n))
	rep.add("cluster.shard_reads_per_get", ratio(float64(get.probes), float64(get.traces)), "count", "cluster.probe spans")
	rep.add("cluster.read_bytes_per_recalled_byte", ratio(float64(get.probeBytes), float64(win.bytes[opGet])), "B/B", "")

	st := &pr.store
	rep.add("store.stage_ms", st.stage.meanMs(), "ms", fmt.Sprintf("n=%d", st.stage.n.Load()))
	rep.add("store.get_ms", st.get.meanMs(), "ms", fmt.Sprintf("n=%d", st.get.n.Load()))
	rep.add("store.commit_ms", st.commit.meanMs(), "ms", fmt.Sprintf("n=%d", st.commit.n.Load()))
	rep.add("store.commits_per_put", ratio(float64(st.commit.n.Load()), puts), "count", "")
	rep.add("store.write_bytes_per_ingested_byte",
		ratio(float64(st.stage.bytes.Load()+st.put.bytes.Load()), float64(win.bytes[opPut])), "B/B", "")

	var rootNs int64
	for _, r := range []string{"api.get", "api.put", "api.scrub"} {
		rootNs += pr.spans.root(r).rootNs
	}
	var clientNs int64
	for op := range win.lat {
		clientNs += sumNs(win.lat[op])
	}
	plainOps := float64(plain.ok()) / plain.elapsed.Seconds()
	tracedOps := float64(win.ok()) / win.elapsed.Seconds()
	rep.add("trace.overhead_ratio", ratio(plainOps, tracedOps), "ratio",
		fmt.Sprintf("plain %.1f/s over traced %.1f/s", plainOps, tracedOps))
	rep.add("trace.coverage", ratio(float64(rootNs), float64(clientNs)), "ratio", "api spans over client time")
}

// nonNeg is a difference of means, floored at zero, or zero when the
// window had no such request.
func nonNeg(v, n float64) float64 {
	if n == 0 || v < 0 {
		return 0
	}
	return v
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// provenance records what a result was measured on, so a change of
// machine can be told apart from a change of code.
func provenance(root string) map[string]any {
	sha, dirty := gitState(root)
	return map[string]any{
		"group_bits":  group.Default().P.BitLen(),
		"fsync":       fsyncPolicy,
		"encoding":    fmt.Sprintf("%s %d-of-%d", core.AONTRS{}.Name(), shardsNeeded, shardsTotal),
		"chunk_bytes": core.DefaultChunkSize,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
		"git_sha":     sha,
		"git_dirty":   dirty,
		"clients":     numClients,
	}
}

// gitState returns the tree's commit and whether tracked files differ
// from it; "none" when the tree is not a git checkout.
func gitState(root string) (string, bool) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none", false
	}
	sha, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none", false
	}
	st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
	return string(bytes.TrimSpace(sha)), err != nil || len(bytes.TrimSpace(st)) > 0
}
