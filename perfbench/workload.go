package main

import (
	"fmt"
	"math/rand"
)

// workload is one traffic mix the benchmark drives through the service.
type workload struct {
	name string
	// objSize is every object's plaintext size in bytes.
	objSize int
	// preload is how many objects set-up archives before the window.
	preload int
	// putPct, getPct and scrubPct split the window's operations; they
	// sum to 100.
	putPct, getPct, scrubPct int
	// zipfS, when above 1, picks GET targets from a zipf distribution
	// with this exponent over the preload; 0 picks them uniformly.
	zipfS float64
	// cacheBytes is the vault's read-cache budget (0 = cache off).
	cacheBytes int64
	// warmup is how many requests of the mix each client sends, untimed,
	// between set-up and the window, so a cache is full when timing
	// starts.
	warmup int
	// getTail and putTail are the tail percentiles reported as
	// get_tail_ms and put_tail_ms: the highest each workload's sample
	// count supports with at least ten samples beyond it, unless a
	// workload says why not.
	getTail, putTail float64
}

var workloads = []workload{
	{
		name:    "archive-mix",
		objSize: 64 << 10, preload: 256,
		putPct: 45, getPct: 45, scrubPct: 10,
		getTail: 0.99, putTail: 0.99,
	},
	{
		name:    "hot-recall",
		objSize: 64 << 10, preload: 512,
		getPct:     100,
		zipfS:      1.1,
		cacheBytes: 16 << 20,
		warmup:     3 * 512,
		// Its PUT figures come from the preload PUTs of its set-ups, on
		// an otherwise idle service, where fsync stalls make p99 and p95
		// swing with the host from run to run more than the bound allows.
		getTail: 0.99, putTail: 0.90,
	},
	{
		name:    "bulk-stream",
		objSize: 4 << 20, preload: 8,
		putPct: 50, getPct: 50,
		getTail: 0.95, putTail: 0.95,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// objectID names the object with payload index i.
func objectID(i int) string { return fmt.Sprintf("obj-%07d", i) }

// payloadSpan is the number of distinct payload offsets; a power of
// two, so an odd multiplier maps indexes below it to distinct offsets.
const payloadSpan = 1 << 24

// payloads is the correctness oracle: object i's content is a window
// of a seeded random pool at an offset that is a bijection of i. Every
// payload is a slice of the pool, so producing one for a PUT and
// comparing a GET against one cost no generation at all.
type payloads struct {
	pool      []byte
	size      int
	mult, add uint64
}

func newPayloads(seed int64, size int) *payloads {
	rng := rand.New(rand.NewSource(seed))
	p := &payloads{
		pool: make([]byte, payloadSpan+size),
		size: size,
		mult: uint64(rng.Int63())<<1 | 1,
		add:  uint64(rng.Int63()),
	}
	rng.Read(p.pool)
	return p
}

// of returns object i's content. Callers must not modify it.
func (p *payloads) of(i int) []byte {
	off := (p.mult*uint64(i) + p.add) % payloadSpan
	return p.pool[off : off+uint64(p.size) : off+uint64(p.size)]
}

// opKind is one request type of a mix.
type opKind int

const (
	opPut opKind = iota
	opGet
	opScrub
	numOps
)

var opNames = [numOps]string{"put", "get", "scrub"}

// clientPlan is one client's deterministic op stream: the kind of each
// request and its target, drawn from a generator seeded by the run's
// seed and the client's number.
type clientPlan struct {
	w       *workload
	rng     *rand.Rand
	zipf    *rand.Zipf
	perm    []int // zipf rank -> preload index
	client  int
	clients int
	puts    int
}

// newPlans returns one plan per client of the deployment.
func newPlans(w *workload, seed int64) []*clientPlan {
	plans := make([]*clientPlan, numClients)
	for c := range plans {
		plans[c] = newClientPlan(w, seed, c, numClients)
	}
	return plans
}

func newClientPlan(w *workload, seed int64, client, clients int) *clientPlan {
	pl := &clientPlan{
		w:       w,
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1)),
		client:  client,
		clients: clients,
	}
	if w.zipfS > 1 {
		// The hot set is a seeded permutation of the preload, shared by
		// every client, so popularity does not follow write order.
		pl.perm = rand.New(rand.NewSource(seed)).Perm(w.preload)
		pl.zipf = rand.NewZipf(pl.rng, w.zipfS, 1, uint64(w.preload-1))
	}
	return pl
}

// next returns the next request: its kind and payload index. PUTs take
// fresh indexes above the preload, interleaved across clients so the
// same seed always gives the same object the same content.
func (pl *clientPlan) next() (opKind, int) {
	r := pl.rng.Intn(100)
	switch {
	case r < pl.w.putPct:
		i := pl.w.preload + pl.client + pl.clients*pl.puts
		pl.puts++
		return opPut, i
	case r < pl.w.putPct+pl.w.getPct:
		if pl.zipf != nil {
			return opGet, pl.perm[pl.zipf.Uint64()]
		}
		return opGet, pl.rng.Intn(pl.w.preload)
	default:
		return opScrub, pl.rng.Intn(pl.w.preload)
	}
}
