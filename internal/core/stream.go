package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"securearchive/internal/cluster"
	"securearchive/internal/obs/trace"
	"securearchive/internal/sig"
	"securearchive/internal/tstamp"
)

// Streaming ingest and retrieval, the single entry of each operation:
// PutReader feeds an io.Reader through the chunked encode→stage pipeline
// (pipeline.go), reading one chunk at a time, so an object of any size
// passes through the vault holding O(chunkSize) plaintext in memory —
// never the whole object. The integrity chain binds the object's SHA-256
// digest, computed incrementally as chunks stream past
// (tstamp.NewFromDigest). Put is PutReader over a slice.
//
// ReadTo is the mirror: chunks decode and flow to an io.Writer as they
// arrive, with the digest accumulated incrementally and checked against
// the chain after the last chunk. Get is ReadTo into a buffer. Note the
// streaming trade-off: bytes reach the writer before the final verify
// runs, so a non-nil error — even after a partial write — invalidates
// everything written.

// streamBufAdd adjusts the in-flight plaintext byte count (read from
// the client but not yet staged on the cluster) and maintains the
// lifetime high-water mark. Both mirror into the vault.stream.* gauges;
// the peak is the memory-boundedness evidence the streaming tests (and
// the API layer's multi-GiB claim) rest on.
func (v *Vault) streamBufAdd(n int64) {
	cur := v.streamBuffered.Add(n)
	v.obsm.streamBuffered.Set(cur)
	for {
		peak := v.streamPeak.Load()
		if cur <= peak {
			return
		}
		if v.streamPeak.CompareAndSwap(peak, cur) {
			v.obsm.streamPeak.Set(cur)
			return
		}
	}
}

// StreamPeakBuffered reports the high-water mark of plaintext bytes the
// streaming writer has held in memory at once over the vault's
// lifetime. For a healthy pipeline this stays at a few chunks'
// worth (the read-ahead chunk plus pipelineDepth in-flight encodes)
// regardless of object size.
func (v *Vault) StreamPeakBuffered() int64 { return v.streamPeak.Load() }

// PutReader archives the reader's content under id without ever
// materialising it: chunks are read, encoded, and staged as a bounded
// pipeline, and the integrity chain is opened from the incrementally
// computed digest. Returns the number of plaintext bytes consumed. The
// write is one "vault.put" span with each chunk's encode and the
// cluster staging below it, and one vault.put.ns observation.
func (v *Vault) PutReader(ctx context.Context, id string, r io.Reader) (int64, error) {
	ctx, sp := v.tracer.Start(ctx, "vault.put",
		trace.Str("object", id), trace.Str("encoding", v.Encoding.Name()))
	start := time.Now()
	n, err := v.putReader(ctx, id, r)
	v.obsm.putNsByEnc.Observe(float64(time.Since(start).Nanoseconds()))
	if err == nil {
		sp.SetAttrs(trace.Int64("bytes", n))
	}
	sp.End(err)
	return n, err
}

func (v *Vault) putReader(ctx context.Context, id string, r io.Reader) (int64, error) {
	st := v.stripe(id)
	// Cheap early check; racing Puts of the same id are caught again at
	// reservation time below.
	st.mu.RLock()
	_, exists := st.objects[id]
	st.mu.RUnlock()
	if exists {
		return 0, fmt.Errorf("%w: %s", ErrExists, id)
	}

	// Reserve the id: insert a non-live entry with its writer lock held,
	// so duplicate Puts fail fast while concurrent Gets that find the
	// entry block until the dispersal commits (then read it) or aborts
	// (then see ErrNotFound). The stripe mutex covers only the map
	// insert; locking the fresh object cannot block.
	obj := &vaultObject{}
	obj.mu.Lock()
	st.mu.Lock()
	if _, ok := st.objects[id]; ok {
		st.mu.Unlock()
		obj.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrExists, id)
	}
	st.objects[id] = obj
	st.mu.Unlock()

	// Stage-then-commit outside the stripe lock: a write that fails
	// partway aborts its stage and leaves no committed shards behind — no
	// orphans inflating StoredBytes, no registered entry. The chain opens
	// from the streamed digest before the commit, so a chain failure
	// aborts the stage too.
	var chain *tstamp.Chain
	metas, total, err := v.disperseStream(ctx, id, r, func(digest [sha256.Size]byte) (err error) {
		chain, err = tstamp.NewFromDigest(digest, v.IntegrityMode, sig.Ed25519, v.Cluster.Epoch(), v.Group, v.rnd)
		return err
	})
	if err != nil {
		st.mu.Lock()
		delete(st.objects, id)
		st.mu.Unlock()
		obj.mu.Unlock()
		return 0, err
	}
	obj.setChunks(metas, total)
	obj.chain = chain
	obj.live.Store(true)
	// Defensive invalidation while the write lock is still held: a fresh
	// id cannot have an entry unless it was deleted and re-put, in which
	// case Delete already dropped it — but the hook costs one map probe
	// and keeps "every mutator invalidates" unconditional.
	v.cacheInvalidate(id)
	obj.mu.Unlock()
	v.obsm.putBytes.Observe(float64(total))
	return total, nil
}

// ReadTo retrieves an object into w, chunk by chunk, so retrieval is as
// memory-bounded as ingest; a batch member is sliced out of its verified
// blob. Returns the number of plaintext bytes written. The final
// integrity verification runs after the last chunk: an error return
// invalidates any bytes already written to w. The read is one
// "vault.get" span — per chunk, a cluster.fetch (per-node probes with
// typed failure events) and a vault.decode as siblings, then one
// vault.verify — and one vault.get.ns observation.
func (v *Vault) ReadTo(ctx context.Context, id string, w io.Writer) (int64, error) {
	ctx, sp := v.tracer.Start(ctx, "vault.get",
		trace.Str("object", id), trace.Str("encoding", v.Encoding.Name()))
	start := time.Now()
	n, err := v.readTo(ctx, id, w)
	v.obsm.getNsByEnc.Observe(float64(time.Since(start).Nanoseconds()))
	if err == nil {
		sp.SetAttrs(trace.Int64("bytes", n))
	}
	sp.End(err)
	return n, err
}

func (v *Vault) readTo(ctx context.Context, id string, w io.Writer) (int64, error) {
	obj := v.lookup(id)
	if obj == nil {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	v.lockWait(trace.FromContext(ctx), obj.mu.RLock)
	defer obj.mu.RUnlock()
	if !obj.live.Load() {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if b, ok := w.(*bytes.Buffer); ok {
		b.Grow(obj.enc.PlainLen) // a materialising read (Get): size it once
	}
	// The epoch is captured before the cache probe AND before the stripe
	// fetch: an entry inserted below is reachable only while the cluster
	// is still in the epoch the read began in, so an AdvanceEpoch racing
	// this read can only make the insert unreachable — never stale.
	epoch := v.Cluster.Epoch()
	var tee *bytes.Buffer
	if v.cache != nil {
		// A hit streams the immutable cached copy straight to w with no
		// fetch and no decode.
		if cached, ok := v.cacheGet(ctx, id, epoch); ok {
			n, err := w.Write(cached)
			if err != nil {
				return int64(n), fmt.Errorf("core: get %s: write: %w", id, err)
			}
			return int64(n), nil
		}
		// The read materialises nothing by design — tee into a buffer only
		// when the whole object fits a cache entry anyway.
		if int64(obj.enc.PlainLen) <= v.cache.maxEntry {
			tee = bytes.NewBuffer(make([]byte, 0, obj.enc.PlainLen))
			w = io.MultiWriter(w, tee)
		}
	}
	var n int64
	var err error
	if obj.batch != nil {
		n, err = v.readBatchMember(ctx, id, obj, w)
	} else {
		n, err = v.readChunks(ctx, id, obj, w)
	}
	if err == nil && tee != nil {
		// Insert only after the chain verified the complete read, and
		// under the still-held read lock: any later mutation of this
		// object must take the write lock first, and its invalidate(id)
		// then runs strictly after this insert.
		v.cache.put(id, epoch, tee.Bytes())
	}
	return n, err
}

// readChunks is the one non-batch read body, streaming each decoded
// chunk to w as it clears its stripe; callers hold obj.mu (read or
// write) and have checked liveness. Each chunk is an independent k-of-n
// stripe read: the fetch fans out the decoder's minimum plus speculative
// probes, retries transient faults with bounded backoff, discards shards
// whose digest no longer matches (bit rot, tampering) and pulls from
// further nodes instead, stopping as soon as the minimum is in hand. The
// integrity chain verifies the digest of the whole, accumulated
// incrementally, so the reassembled object never needs to exist in
// memory.
//
// A read that had to discard rotted shards still succeeds, but queues
// the object for ScrubAll (see DirtyObjects) — routing around bit rot
// must trigger a repair, not hide the damage. A read that cannot reach
// the encoding's minimum returns *DegradedError (errors.Is ErrDegraded)
// carrying got/want and the per-node causes, never a raw decode error.
func (v *Vault) readChunks(ctx context.Context, id string, obj *vaultObject, w io.Writer) (int64, error) {
	sp := trace.FromContext(ctx)
	n, min := v.Encoding.Shards()
	h := sha256.New()
	var total int64
	// Prefetch overlaps the next window of stripe fetches with this
	// chunk's decode/digest/write; the deferred stop runs before the
	// caller releases obj.mu, so look-ahead goroutines never outlive the
	// object state they read (see prefetch.go).
	var pf *prefetcher
	if v.prefetchWindow > 0 && len(obj.chunks) > 1 {
		pf = v.newPrefetcher(ctx, id, obj)
		defer func() {
			issued, wasted := pf.stop()
			v.obsm.prefetchIssued.Add(issued)
			v.obsm.prefetchWasted.Add(wasted)
		}()
	}
	for ci := range obj.chunks {
		cm := &obj.chunks[ci]
		var res *cluster.StripeResult
		if pf != nil {
			res = pf.next(ci)
		} else {
			res = v.Cluster.FetchChunkStripeCtx(ctx, id, ci, n, min, v.retry, cm.valid)
		}
		if len(res.Discarded) > 0 {
			v.obsm.readDiscarded.Add(int64(len(res.Discarded)))
			v.markDirty(id)
			sp.Event("read.dirty", trace.Int("chunk", ci), trace.Int("discarded", len(res.Discarded)))
		}
		if res.Canceled != nil {
			// The caller went away mid-read: this is cancellation, not a
			// degraded stripe — surface the context error so errors.Is
			// (err, context.Canceled) holds for the abandoning client.
			return total, fmt.Errorf("core: get %s chunk %d: %w", id, ci, res.Canceled)
		}
		if res.Fetched < min {
			v.obsm.readInsufficient.Inc()
			sp.Event("read.insufficient",
				trace.Int("chunk", ci), trace.Int("got", res.Fetched), trace.Int("want", min))
			return total, &DegradedError{Object: id, Got: res.Fetched, Want: min, Failures: res.Failures}
		}
		if res.Degraded() {
			v.obsm.readDegraded.Inc()
		}
		_, dsp := trace.Child(ctx, "vault.decode", trace.Int("chunk", ci), trace.Int("shards", res.Fetched))
		decStart := time.Now()
		data, err := v.Encoding.Decode(cm.enc.withShards(res.Shards))
		decTime := time.Since(decStart)
		dsp.End(err)
		if err != nil {
			return total, fmt.Errorf("core: decode %s chunk %d: %w", id, ci, err)
		}
		observeRate(v.obsm.decodeMBs, len(data), decTime)
		h.Write(data)
		wn, err := w.Write(data)
		total += int64(wn)
		if err != nil {
			return total, fmt.Errorf("core: get %s chunk %d: write: %w", id, ci, err)
		}
	}
	v.obsm.getBytes.Observe(float64(total))
	var digest [sha256.Size]byte
	h.Sum(digest[:0])
	_, vsp := trace.Child(ctx, "vault.verify")
	err := obj.chain.VerifyDigest(digest)
	vsp.End(err)
	if err != nil {
		return total, fmt.Errorf("core: integrity chain rejects data for %s: %w", id, err)
	}
	return total, nil
}

// ObjectInfo is the client-visible metadata for one archived object —
// what the network API serves on HEAD/stat without touching the
// cluster.
type ObjectInfo struct {
	ID string
	// PlainLen is the object's plaintext length in bytes.
	PlainLen int64
	// Scheme names the encoding that produced the stored shards.
	Scheme string
	// Chunks is the number of chunk stripes (1 for a batch member).
	Chunks int
	// Width is the stripe width actually occupied on the cluster.
	Width int
	// ChainLen is the integrity chain's link count (grows with renewals).
	ChainLen int
}

// Stat reports an object's metadata from the vault's client-side state.
func (v *Vault) Stat(id string) (*ObjectInfo, error) {
	obj := v.lookup(id)
	if obj == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	if !obj.live.Load() {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if obj.batch != nil {
		// Members share one chain; lock against a batchmate's renewal.
		obj.batch.mu.RLock()
		defer obj.batch.mu.RUnlock()
	}
	return &ObjectInfo{
		ID:       id,
		PlainLen: int64(obj.enc.PlainLen),
		Scheme:   obj.enc.Scheme,
		Chunks:   max(len(obj.chunks), 1),
		Width:    obj.width,
		ChainLen: obj.chain.Len(),
	}, nil
}
