package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"securearchive/internal/bufpool"
	"securearchive/internal/obs/trace"
	"securearchive/internal/parallel"
)

// One object shape: every object the vault writes outside a batch is an
// ordered list of chunk stripes. The writer reads its input in
// fixed-size chunks, encodes each chunk as its own stripe, and overlaps
// encoding with staging as a bounded two-stage pipeline (RapidRAID's
// shape: hide encode latency behind dispersal instead of
// encode-all-then-disperse-all). An object no larger than the chunk size
// is one chunk at Chunk 0. Every chunk's shards stage under ONE token and
// the whole object commits as a single key swap, so a failure at any
// chunk aborts the stage and leaves no committed shards behind. Put,
// PutReader and RenewShares all write through disperseStream.

// pipelineDepth bounds in-flight encoded chunks between the encode and
// stage stages: depth 2 is enough to keep both stages busy while capping
// buffered memory at two chunks' worth of shards.
const pipelineDepth = 2

// chunkMeta is one chunk stripe's client-side state: the Encoded
// metadata (shards stripped — those live on nodes) plus per-shard
// digests for degraded reads and scrubbing.
type chunkMeta struct {
	enc     *Encoded
	digests [][sha256.Size]byte
}

// newChunkMeta keeps what the vault needs of a freshly encoded chunk.
func newChunkMeta(enc *Encoded) chunkMeta {
	return chunkMeta{enc: enc.withShards(nil), digests: ShardDigests(enc.Shards)}
}

// valid vets a fetched shard of this chunk against its recorded digest;
// it is the validator every stripe fetch of the chunk passes.
func (cm *chunkMeta) valid(i int, data []byte) bool {
	return i < len(cm.digests) && sha256.Sum256(data) == cm.digests[i]
}

// encodedChunk is the pipeline's unit of flow from encode to stage.
type encodedChunk struct {
	idx int
	enc *Encoded
}

// chunkTailFloor is the smallest tail chunk the splitter will emit: a
// remainder below it folds into the previous chunk instead (the last
// chunk then runs up to chunkSize+chunkTailFloor−1 bytes). Some
// encodings reject tiny payloads outright — entropic encryption's OTP
// key floor is 16 bytes — and a near-empty stripe wastes a full round
// of staging anyway.
const chunkTailFloor = 64

// disperseStream runs the reader-fed encode→stage pipeline and returns
// the committed chunk list and the plaintext length. The producer reads
// chunkSize-byte chunks with one chunk of lookahead so a sub-floor tail
// folds into the previous chunk rather than becoming a runt stripe,
// hashes the plaintext incrementally, and encodes; the consumer stages
// each chunk under the shared token. seal, when non-nil, receives the
// plaintext's SHA-256 digest BEFORE the commit, so a failure there (a
// fresh Put opening its chain) still aborts cleanly; a renewal, which
// keeps its chain, passes nil. Callers hold the object's write lock. On
// error the stage is aborted and the cluster keeps whatever the object
// had (nothing for a fresh Put, the old stripes for a renewal).
func (v *Vault) disperseStream(ctx context.Context, id string, r io.Reader, seal func([sha256.Size]byte) error) ([]chunkMeta, int64, error) {
	cs := v.chunkSize
	stage := v.newStageToken(id)
	// One cluster.stage span covers first stage through commit/abort
	// (staging interleaves with encoding, so that is its true extent);
	// each chunk's vault.encode is its sibling under the caller's span.
	sctx, ssp := trace.Child(ctx, "cluster.stage", trace.Str("object", id))
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
				_, esp := trace.Child(ctx, "vault.encode", trace.Int("chunk", idx), trace.Int("bytes", len(data)))
				encStart := time.Now()
				enc, err := v.Encoding.Encode(data, v.rnd)
				encTime := time.Since(encStart)
				esp.End(err)
				if err != nil {
					return false, fmt.Errorf("core: encode %s chunk %d: %w", id, idx, err)
				}
				observeRate(v.obsm.encodeMBs, len(data), encTime)
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
					// rejection surfaces.
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
			metas = append(metas, newChunkMeta(c.enc))
			track(-int64(c.enc.PlainLen))
			v.obsm.pipelineChunks.Inc()
			return nil
		},
		func(c encodedChunk) { track(-int64(c.enc.PlainLen)) },
	)
	if err == nil && seal != nil {
		var digest [sha256.Size]byte
		h.Sum(digest[:0])
		err = seal(digest)
	}
	if err := v.closeStage(ssp, stage, id, err); err != nil {
		return nil, 0, err
	}
	observeRate(v.obsm.pipelineMBs, int(total), time.Since(start))
	return metas, total, nil
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
