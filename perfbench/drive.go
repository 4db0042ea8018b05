package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// maxLoggedFailures caps the failures echoed to standard error per run.
const maxLoggedFailures = 5

// tally is what one phase of closed-loop traffic produced: per-op
// latency samples and user bytes of the requests that succeeded and
// passed the oracle, the attempt and failure counts, and the payload
// indexes whose PUT the service acknowledged.
type tally struct {
	lat       [numOps][]time.Duration
	bytes     [numOps]int64
	attempted int
	failed    int
	acked     []int
	elapsed   time.Duration
	errs      []error
}

func (t *tally) merge(o *tally) {
	for op := range t.lat {
		t.lat[op] = append(t.lat[op], o.lat[op]...)
		t.bytes[op] += o.bytes[op]
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.acked = append(t.acked, o.acked...)
	t.elapsed += o.elapsed
	for _, err := range o.errs {
		if len(t.errs) < maxLoggedFailures {
			t.errs = append(t.errs, err)
		}
	}
}

// ok is the number of requests that succeeded.
func (t *tally) ok() int { return t.attempted - t.failed }

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < maxLoggedFailures {
		t.errs = append(t.errs, err)
	}
}

// logErrors echoes the phase's first failures to standard error.
func (t *tally) logErrors(phase string) {
	for _, err := range t.errs {
		fmt.Fprintf(os.Stderr, "archivebench: %s: %v\n", phase, err)
	}
}

// worker is one closed-loop client: its connection to the service and
// the buffer its GETs land in, reused across requests.
type worker struct {
	d   *deployment
	c   int
	buf bytes.Buffer
	t   tally
}

// do issues one request, times it from dispatch to the last response
// byte, and checks the response against the oracle outside the timed
// span.
func (wk *worker) do(ctx context.Context, p *payloads, op opKind, i int) {
	cl := wk.d.clients[wk.c]
	id := objectID(i)
	want := p.of(i)
	wk.t.attempted++
	var err error
	start := time.Now()
	switch op {
	case opPut:
		var n int64
		n, err = cl.PutBytes(ctx, id, want)
		if err == nil && n != int64(len(want)) {
			err = fmt.Errorf("put %s: service ingested %d of %d bytes", id, n, len(want))
		}
	case opGet:
		wk.buf.Reset()
		_, err = cl.GetTo(ctx, id, &wk.buf)
	case opScrub:
		sr, serr := cl.Scrub(ctx, id)
		err = serr
		if err == nil && (len(sr.Missing) > 0 || len(sr.Corrupt) > 0 || sr.Repaired) {
			err = fmt.Errorf("scrub %s: healthy stripe reported damage: %+v", id, sr)
		}
	}
	lat := time.Since(start)
	if err == nil && op == opGet && !bytes.Equal(wk.buf.Bytes(), want) {
		err = fmt.Errorf("get %s: %d bytes differ from the %d bytes put", id, wk.buf.Len(), len(want))
	}
	if err != nil {
		wk.t.fail(fmt.Errorf("%s %s: %w", opNames[op], id, err))
		return
	}
	if op == opPut {
		wk.t.acked = append(wk.t.acked, i)
	}
	wk.t.lat[op] = append(wk.t.lat[op], lat)
	if op != opScrub {
		wk.t.bytes[op] += int64(len(want))
	}
}

// runClients runs one worker per client until each returns from body,
// and merges their tallies; elapsed is the phase's wall time.
func (d *deployment) runClients(body func(wk *worker)) *tally {
	var wg sync.WaitGroup
	wks := make([]*worker, numClients)
	start := time.Now()
	for c := range wks {
		wks[c] = &worker{d: d, c: c}
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			body(wk)
		}(wks[c])
	}
	wg.Wait()
	t := &tally{elapsed: time.Since(start)}
	for _, wk := range wks {
		t.merge(&wk.t)
	}
	return t
}

// preload PUTs objects 0..w.preload-1 through the service, client c
// taking the indexes congruent to c.
func (d *deployment) preload(ctx context.Context, w *workload, p *payloads) *tally {
	return d.runClients(func(wk *worker) {
		for i := wk.c; i < w.preload; i += numClients {
			wk.do(ctx, p, opPut, i)
		}
	})
}

// drive runs the clients' plans as a closed loop: each client sends its
// next request when the previous reply is in, until the deadline passes
// or, when opsPerClient is positive, it has sent that many. A plan goes
// on where the previous phase that drove it stopped.
func (d *deployment) drive(ctx context.Context, plans []*clientPlan, p *payloads, deadline time.Time, opsPerClient int) *tally {
	return d.runClients(func(wk *worker) {
		plan := plans[wk.c]
		for n := 0; opsPerClient <= 0 || n < opsPerClient; n++ {
			if opsPerClient <= 0 && !time.Now().Before(deadline) {
				return
			}
			op, i := plan.next()
			wk.do(ctx, p, op, i)
		}
	})
}

// warmUp drives the workload's warm-up requests, untimed, so that the
// read cache holds the hot set when the window starts.
func (d *deployment) warmUp(ctx context.Context, w *workload, plans []*clientPlan, p *payloads) *tally {
	if w.warmup == 0 {
		return &tally{}
	}
	return d.drive(ctx, plans, p, time.Time{}, w.warmup)
}

// acked lists the payload indexes whose PUT the service acknowledged in
// the given phases.
func acked(phases ...*tally) []int {
	var ids []int
	for _, t := range phases {
		ids = append(ids, t.acked...)
	}
	return ids
}

// readBack GETs every listed object through the service and checks it
// against the oracle. With keep set it also returns the bytes received,
// by payload index.
func (d *deployment) readBack(ctx context.Context, p *payloads, ids []int, keep bool) (*tally, map[int][]byte) {
	var mu sync.Mutex
	got := make(map[int][]byte)
	t := d.runClients(func(wk *worker) {
		for k := wk.c; k < len(ids); k += numClients {
			wk.do(ctx, p, opGet, ids[k])
			if keep {
				mu.Lock()
				got[ids[k]] = bytes.Clone(wk.buf.Bytes())
				mu.Unlock()
			}
		}
	})
	return t, got
}

// quantile returns the q-quantile of the samples by the nearest-rank
// method, in milliseconds; 0 for no samples.
func quantile(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return ms(s[max(0, min(k, len(s)-1))])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// meanMs is the mean of the samples in milliseconds; 0 for none.
func meanMs(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return ms(sum) / float64(len(samples))
}

func sumNs(samples []time.Duration) int64 {
	var sum int64
	for _, s := range samples {
		sum += s.Nanoseconds()
	}
	return sum
}
