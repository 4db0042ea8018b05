package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"securearchive/internal/bufpool"
	"securearchive/internal/cluster"
	"securearchive/internal/obs/trace"
	"securearchive/internal/parallel"
	"securearchive/internal/sig"
	"securearchive/internal/tstamp"
)

// Streaming ingest and retrieval: PutReader feeds an io.Reader through
// the same chunked encode→stage pipeline putChunked uses, reading one
// chunk at a time, so an object of any size passes through the vault
// holding O(chunkSize) plaintext in memory — never the whole object.
// The integrity chain binds the object's SHA-256 digest, computed
// incrementally as chunks stream past (tstamp.NewFromDigest), and the
// whole multi-chunk write still commits under ONE stage token: a
// failure at any chunk aborts the stage and leaves nothing behind.
//
// ReadTo is the mirror: chunks decode and flow to an io.Writer as they
// arrive, with the digest accumulated incrementally and checked against
// the chain after the last chunk. Note the streaming trade-off: bytes
// reach the writer before the final verify runs, so a non-nil error —
// even after a partial write — invalidates everything written.

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
// computed digest. Returns the number of plaintext bytes consumed.
// With chunking disabled (WithChunkSize <= 0) there is no streaming
// frame to work in, so the reader is drained and the monolithic path
// used.
func (v *Vault) PutReader(ctx context.Context, id string, r io.Reader) (int64, error) {
	ctx, sp := v.tracer.Start(ctx, "vault.put",
		trace.Str("object", id), trace.Str("encoding", v.Encoding.Name()), trace.Str("mode", "stream"))
	n, err := v.putReader(ctx, id, r)
	if err == nil {
		sp.SetAttrs(trace.Int64("bytes", n))
	}
	sp.End(err)
	return n, err
}

func (v *Vault) putReader(ctx context.Context, id string, r io.Reader) (int64, error) {
	if v.chunkSize <= 0 {
		data, err := io.ReadAll(r)
		if err != nil {
			return 0, fmt.Errorf("core: put %s: read: %w", id, err)
		}
		return int64(len(data)), v.put(ctx, id, data)
	}
	st := v.stripe(id)
	st.mu.RLock()
	_, exists := st.objects[id]
	st.mu.RUnlock()
	if exists {
		return 0, fmt.Errorf("%w: %s", ErrExists, id)
	}

	// Reserve the id exactly as put/putChunked do: a non-live entry with
	// its writer lock held, rolled back if the dispersal fails.
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

	metas, chain, total, err := v.disperseStream(ctx, id, r)
	if err != nil {
		st.mu.Lock()
		delete(st.objects, id)
		st.mu.Unlock()
		obj.mu.Unlock()
		return 0, err
	}
	if len(metas) == 1 {
		// A chunked object reads only Scheme and PlainLen from obj.enc,
		// and for one chunk they are the chunk's own: share its Encoded
		// rather than keep a second one per object. Rewrites replace
		// chunk metas whole, never mutate them in place.
		obj.enc = metas[0].enc
	} else {
		obj.enc = &Encoded{Scheme: metas[0].enc.Scheme, PlainLen: int(total)}
	}
	obj.chunks = metas
	obj.width = len(metas[0].digests)
	obj.chain = chain
	obj.live.Store(true)
	v.cacheInvalidate(id) // defensive, as in put
	obj.mu.Unlock()
	v.obsm.putBytes.Observe(float64(total))
	v.obsm.pipelinePuts.Inc()
	v.obsm.streamPuts.Inc()
	return total, nil
}

// disperseStream runs the reader-fed encode→stage pipeline. The
// producer reads chunkSize-byte chunks with one chunk of lookahead so
// the tail can fold per numChunks semantics (a sub-floor remainder
// joins the previous chunk rather than becoming a runt stripe), hashes
// the plaintext incrementally, and encodes; the consumer stages each
// chunk under the shared token. The chain is opened from the digest
// BEFORE the commit so a chain failure still aborts cleanly. Callers
// hold the object's write lock.
func (v *Vault) disperseStream(ctx context.Context, id string, r io.Reader) ([]chunkMeta, *tstamp.Chain, int64, error) {
	cs := v.chunkSize
	stage := v.newStageToken(id)
	pctx, psp := trace.Child(ctx, "vault.pipeline",
		trace.Str("object", id), trace.Str("mode", "stream"))
	// The staging side gets its own cluster.stage span — the same shape
	// the monolithic disperse has — so a cross-boundary trace shows the
	// cluster work as one child regardless of which write path ran. It
	// covers first-stage through commit/abort (staging interleaves with
	// encoding, so that is its true extent).
	sctx, ssp := trace.Child(pctx, "cluster.stage", trace.Str("object", id))
	start := time.Now()
	h := sha256.New()
	var total int64
	var metas []chunkMeta

	// inFlight tracks this put's share of the vault-wide buffered-bytes
	// gauge: bytes add as they are read, subtract as their chunk stages
	// (or is dropped by a failing pipeline). The deferred release zeroes
	// whatever an error path left accounted, so the gauge never leaks.
	var inFlight atomic.Int64
	track := func(n int64) {
		inFlight.Add(n)
		v.streamBufAdd(n)
	}
	defer func() { v.streamBufAdd(-inFlight.Swap(0)) }()

	err := parallel.Pipeline(pipelineDepth,
		func(emit func(encodedChunk) bool) error {
			var pending []byte // lookahead: last full chunk, unemitted
			idx := 0
			emitChunk := func(data []byte) (bool, error) {
				// Cancellation checkpoint between chunk encodes: a
				// disconnected client must not keep burning CPU on chunks
				// nobody will commit.
				if err := ctx.Err(); err != nil {
					return false, fmt.Errorf("core: encode %s chunk %d: %w", id, idx, err)
				}
				enc, err := v.Encoding.Encode(data, v.rnd)
				if err != nil {
					return false, fmt.Errorf("core: encode %s chunk %d: %w", id, idx, err)
				}
				ok := emit(encodedChunk{idx: idx, enc: enc})
				idx++
				return ok, nil
			}
			probe := bufpool.Get(min(cs, streamProbeBytes))
			defer probe.Release()
			for {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: read %s chunk %d: %w", id, idx, err)
				}
				buf, rerr := readChunk(r, cs, probe.B)
				n := len(buf)
				if n > 0 {
					h.Write(buf)
					total += int64(n)
					track(int64(n))
				}
				if rerr == nil {
					// A full chunk landed, so the previous one cannot be the
					// tail — emit it and hold this one back instead.
					if pending != nil {
						if ok, err := emitChunk(pending); err != nil || !ok {
							return err // !ok: consumer failed, its error wins
						}
					}
					pending = buf
					continue
				}
				if rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
					return fmt.Errorf("core: read %s chunk %d: %w", id, idx, rerr)
				}
				tail := buf
				switch {
				case n == 0:
					// Clean EOF on a chunk boundary. An empty reader still
					// encodes the empty slice so the encoding's own empty-data
					// rejection surfaces, matching Put(nil).
					if pending == nil {
						pending = tail
					}
				case pending != nil && n < chunkTailFloor:
					pending = append(pending, tail...) // fold sub-floor tail
				default:
					if pending != nil {
						if ok, err := emitChunk(pending); err != nil || !ok {
							return err
						}
					}
					pending = tail
				}
				_, err := emitChunk(pending)
				return err
			}
		},
		func(c encodedChunk) error {
			// Mirror checkpoint on the staging side: RetryTransientCtx
			// inside stageShards aborts an in-flight backoff, this stops
			// the next chunk's staging from starting at all.
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: stage %s chunk %d: %w", id, c.idx, err)
			}
			if err := v.stageShards(sctx, stage, id, c.idx, c.enc.Shards); err != nil {
				return err
			}
			metas = append(metas, chunkMeta{
				enc: &Encoded{
					Scheme:       c.enc.Scheme,
					PlainLen:     c.enc.PlainLen,
					ClientSecret: c.enc.ClientSecret,
					PublicMeta:   c.enc.PublicMeta,
				},
				digests: ShardDigests(c.enc.Shards),
			})
			track(-int64(c.enc.PlainLen))
			v.obsm.pipelineChunks.Inc()
			return nil
		},
		func(c encodedChunk) { track(-int64(c.enc.PlainLen)) },
	)
	if err != nil {
		v.Cluster.AbortStage(stage)
		ssp.Event("stage.aborted")
		ssp.End(err)
		psp.End(err)
		return nil, nil, 0, err
	}
	var digest [sha256.Size]byte
	h.Sum(digest[:0])
	chain, err := tstamp.NewFromDigest(digest, v.IntegrityMode, sig.Ed25519, v.Cluster.Epoch(), v.Group, v.rnd)
	if err != nil {
		v.Cluster.AbortStage(stage)
		ssp.Event("stage.aborted")
		ssp.End(err)
		psp.End(err)
		return nil, nil, 0, err
	}
	n, err := v.Cluster.CommitStage(stage)
	if err != nil {
		v.Cluster.AbortStage(stage)
		ssp.Event("stage.aborted")
		ssp.End(err)
		psp.End(err)
		return nil, nil, 0, fmt.Errorf("core: commit %s: %w", id, err)
	}
	observeRate(v.obsm.pipelineMBs, int(total), time.Since(start))
	ssp.Event("stage.committed", trace.Int("shards", n))
	ssp.End(nil)
	psp.SetAttrs(trace.Int("chunks", len(metas)), trace.Int64("bytes", total))
	psp.End(nil)
	return metas, chain, total, nil
}

// streamProbeBytes sizes the pooled buffer a streaming put first reads
// each chunk into: bodies shorter than it — a 64 KiB archival object —
// are read without allocating, or keeping pooled, a chunk-sized buffer.
const streamProbeBytes = 128 << 10

// readChunk reads the next chunk, up to cs bytes, into a private slice
// (encodings may alias their input) whose length is what was read, with
// io.ReadFull's error semantics. The read starts in probe; a body that
// ends there is copied out at its exact size, and one that outgrows it
// continues in a fresh chunk-sized slice, which a full chunk keeps.
func readChunk(r io.Reader, cs int, probe []byte) ([]byte, error) {
	n, err := io.ReadFull(r, probe)
	if err != nil || n == cs {
		return append(make([]byte, 0, n), probe[:n]...), err
	}
	buf := make([]byte, cs)
	copy(buf, probe)
	m, err := io.ReadFull(r, buf[n:])
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // the probe's bytes were read
	}
	return buf[:n+m], err
}

// ReadTo retrieves an object into w, streaming chunk by chunk for
// pipeline-written objects so retrieval is as memory-bounded as ingest.
// Monolithic and batch-member objects are at most one chunk's worth by
// construction, so materialising them first costs O(chunk) anyway.
// Returns the number of plaintext bytes written. The final integrity
// verification runs after the last chunk: an error return invalidates
// any bytes already written to w.
func (v *Vault) ReadTo(ctx context.Context, id string, w io.Writer) (int64, error) {
	ctx, sp := v.tracer.Start(ctx, "vault.get",
		trace.Str("object", id), trace.Str("encoding", v.Encoding.Name()), trace.Str("mode", "stream"))
	n, err := v.readTo(ctx, id, w)
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
	// Cache probe for every shape (monolithic, batch member, chunked): a
	// hit streams the immutable cached copy straight to w with no fetch,
	// no decode, and no extra allocation. Epoch capture mirrors get().
	epoch := v.Cluster.Epoch()
	if v.cache != nil {
		if cached, ok := v.cacheGet(ctx, id, epoch); ok {
			n, err := w.Write(cached)
			if err != nil {
				return int64(n), fmt.Errorf("core: get %s: write: %w", id, err)
			}
			return int64(n), nil
		}
	}
	if obj.batch == nil && len(obj.chunks) > 0 {
		// Small chunked objects are worth caching, but the streaming read
		// materialises nothing by design — tee into a buffer only when the
		// whole object fits a cache entry anyway, and insert only after
		// the chain verified the complete read.
		if v.cache != nil && int64(obj.enc.PlainLen) <= v.cache.maxEntry {
			var buf bytes.Buffer
			buf.Grow(obj.enc.PlainLen)
			n, err := v.readChunkedTo(ctx, id, obj, io.MultiWriter(w, &buf))
			if err == nil {
				v.cache.put(id, epoch, buf.Bytes())
			}
			return n, err
		}
		return v.readChunkedTo(ctx, id, obj, w)
	}
	data, err := v.readObject(ctx, id, obj)
	if err != nil {
		return 0, err
	}
	if v.cache != nil {
		v.cache.put(id, epoch, data)
	}
	n, err := w.Write(data)
	if err != nil {
		return int64(n), fmt.Errorf("core: get %s: write: %w", id, err)
	}
	return int64(n), nil
}

// readChunkedTo is the degraded read body for pipeline-written objects,
// streaming each decoded chunk to w as it clears its stripe; callers
// hold obj.mu and have checked liveness. Each chunk is an independent
// k-of-n stripe read validated against its own digests; the integrity
// chain verifies the digest of the whole, accumulated incrementally, so
// the reassembled object never needs to exist in memory. readChunked
// (pipeline.go) is this with a buffer for callers that want bytes.
func (v *Vault) readChunkedTo(ctx context.Context, id string, obj *vaultObject, w io.Writer) (int64, error) {
	sp := trace.FromContext(ctx)
	n, min := v.Encoding.Shards()
	h := sha256.New()
	var total int64
	dctx, dsp := trace.Child(ctx, "vault.decode", trace.Int("chunks", len(obj.chunks)))
	decStart := time.Now()
	// Prefetch overlaps the next window of stripe fetches with this
	// chunk's decode/digest/write; the deferred stop runs before the
	// caller releases obj.mu, so look-ahead goroutines never outlive the
	// object state they read (see prefetch.go).
	var pf *prefetcher
	if v.prefetchWindow > 0 && len(obj.chunks) > 1 {
		pf = v.newPrefetcher(dctx, id, obj)
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
			res = v.Cluster.FetchChunkStripeCtx(dctx, id, ci, n, min, v.retry, func(i int, data []byte) bool {
				return i < len(cm.digests) && sha256.Sum256(data) == cm.digests[i]
			})
		}
		if len(res.Discarded) > 0 {
			v.obsm.readDiscarded.Add(int64(len(res.Discarded)))
			v.markDirty(id)
			sp.Event("read.dirty", trace.Int("chunk", ci), trace.Int("discarded", len(res.Discarded)))
		}
		if res.Canceled != nil {
			dsp.End(res.Canceled)
			return total, fmt.Errorf("core: get %s chunk %d: %w", id, ci, res.Canceled)
		}
		if res.Fetched < min {
			v.obsm.readInsufficient.Inc()
			sp.Event("read.insufficient",
				trace.Int("chunk", ci), trace.Int("got", res.Fetched), trace.Int("want", min))
			dsp.End(ErrDegraded)
			return total, &DegradedError{Object: id, Got: res.Fetched, Want: min, Failures: res.Failures}
		}
		if res.Degraded() {
			v.obsm.readDegraded.Inc()
		}
		chunkData, err := v.Encoding.Decode(&Encoded{
			Scheme:       cm.enc.Scheme,
			PlainLen:     cm.enc.PlainLen,
			Shards:       res.Shards,
			ClientSecret: cm.enc.ClientSecret,
			PublicMeta:   cm.enc.PublicMeta,
		})
		if err != nil {
			dsp.End(err)
			return total, fmt.Errorf("core: decode %s chunk %d: %w", id, ci, err)
		}
		h.Write(chunkData)
		wn, err := w.Write(chunkData)
		total += int64(wn)
		if err != nil {
			dsp.End(err)
			return total, fmt.Errorf("core: get %s chunk %d: write: %w", id, ci, err)
		}
	}
	dsp.End(nil)
	observeRate(v.obsm.decodeMBs, int(total), time.Since(decStart))
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
	// Chunks is the number of chunk stripes (1 for monolithic and
	// batch-member objects).
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
	info := &ObjectInfo{
		ID:       id,
		PlainLen: int64(obj.enc.PlainLen),
		Scheme:   obj.enc.Scheme,
		Chunks:   1,
		Width:    obj.width,
		ChainLen: obj.chain.Len(),
	}
	if len(obj.chunks) > 0 {
		info.Chunks = len(obj.chunks)
	}
	return info, nil
}
