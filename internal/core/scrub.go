package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"securearchive/internal/cluster"
	"securearchive/internal/obs/trace"
)

// Scrubbing: detect missing and rotted shards and rewrite the stripe
// through the same stage-then-commit path renewal uses. This promotes
// what archivectl's scrub command did against its file store into the
// library, where every Vault caller (and the fault-injection harness)
// can run it against the cluster.

// ShardDigests computes per-shard SHA-256 digests (zero digest for nil
// shards) — the client-side health reference the vault keeps per object.
func ShardDigests(shards [][]byte) [][sha256.Size]byte {
	out := make([][sha256.Size]byte, len(shards))
	for i, sh := range shards {
		if sh != nil {
			out[i] = sha256.Sum256(sh)
		}
	}
	return out
}

// CheckShards classifies a fetched stripe against expected digests:
// healthy (present and matching), missing (nil), corrupt (present but
// mismatching). Indices beyond the digest list count as healthy when
// present.
func CheckShards(shards [][]byte, digests [][sha256.Size]byte) (healthy, missing, corrupt []int) {
	for i, sh := range shards {
		switch {
		case sh == nil:
			missing = append(missing, i)
		case i < len(digests) && sha256.Sum256(sh) != digests[i]:
			corrupt = append(corrupt, i)
		default:
			healthy = append(healthy, i)
		}
	}
	return healthy, missing, corrupt
}

// ScrubReport describes one object's stripe health after a scrub pass.
type ScrubReport struct {
	Object string
	// Healthy, Missing and Corrupt partition the stripe's node indices
	// as found before any repair.
	Healthy []int
	Missing []int
	Corrupt []int
	// Repaired is true when the stripe was rewritten back to full
	// health through the atomic write path.
	Repaired bool
}

// Clean reports whether the stripe needed no repair.
func (r *ScrubReport) Clean() bool { return len(r.Missing) == 0 && len(r.Corrupt) == 0 }

// Scrub audits one object's stripe: it fetches every shard (retrying
// transient faults), classifies each against the object's digests, and —
// when damage is found — decodes from the healthy shards, verifies the
// plaintext against the integrity chain, re-encodes with fresh
// randomness and rewrites the whole stripe through the same
// stage-then-commit path Put and RenewShares use. The report describes
// the stripe as found; an error means the damage exceeded the encoding's
// redundancy (or a node needed for the rewrite is down), in which case
// the cluster is left exactly as it was.
func (v *Vault) Scrub(id string) (*ScrubReport, error) {
	return v.ScrubContext(context.Background(), id)
}

// ScrubContext is Scrub rooted in (or joined to) a trace: the audit
// fetch, the repair decode/verify, and the staged rewrite nest under one
// "vault.scrub" span, with a "scrub.repaired" event when the stripe was
// rewritten. The scrub holds only the object's write lock, so scrubs and
// traffic on other objects proceed concurrently.
func (v *Vault) ScrubContext(ctx context.Context, id string) (*ScrubReport, error) {
	ctx, sp := v.tracer.Start(ctx, "vault.scrub", trace.Str("object", id))
	rep, err := v.scrub(ctx, id)
	sp.End(err)
	return rep, err
}

func (v *Vault) scrub(ctx context.Context, id string) (*ScrubReport, error) {
	obj := v.lookup(id)
	if obj == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	v.lockWait(trace.FromContext(ctx), obj.mu.Lock)
	defer obj.mu.Unlock()
	if !obj.live.Load() {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return v.scrubObject(ctx, id, obj)
}

// ScrubAll scrubs every object (in id order), returning one report per
// object and the joined errors of the failures.
func (v *Vault) ScrubAll() ([]*ScrubReport, error) {
	return v.ScrubAllContext(context.Background())
}

// ScrubAllContext is ScrubAll with each object's scrub rooted in (or
// joined to) its own "vault.scrub" trace. The sweep holds the vault's
// sweep lock (serialising concurrent sweeps against each other) and
// takes each object's lock in turn — never more than one at a time, so
// per-object traffic interleaves with the sweep. Objects deleted after
// the sweep snapshot are skipped silently.
func (v *Vault) ScrubAllContext(ctx context.Context) ([]*ScrubReport, error) {
	v.sweepMu.Lock()
	defer v.sweepMu.Unlock()
	ids := v.Objects()
	sort.Strings(ids)
	var reports []*ScrubReport
	var errs []error
	for _, id := range ids {
		sctx, sp := v.tracer.Start(ctx, "vault.scrub", trace.Str("object", id))
		rep, err := v.scrub(sctx, id)
		sp.End(err)
		if errors.Is(err, ErrNotFound) {
			continue // deleted since the snapshot
		}
		if rep != nil {
			reports = append(reports, rep)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return reports, errors.Join(errs...)
}

// scrubObject is the scrub body; callers hold obj.mu in write mode and
// have checked liveness. Every non-batch object is a list of chunk
// stripes, and each chunk's full stripe is fetched and classified
// against that chunk's digests. The report aggregates per-node health
// across chunks: a node is Corrupt if any of its chunk shards rotted,
// Missing if any is absent, Healthy otherwise. A repair confirms the
// recovered whole against the integrity chain, then re-encodes only the
// damaged chunks and stages them under one token, so it commits
// atomically.
func (v *Vault) scrubObject(ctx context.Context, id string, obj *vaultObject) (*ScrubReport, error) {
	if obj.batch != nil {
		return v.scrubBatchMember(ctx, id, obj)
	}
	n, _ := v.Encoding.Shards()
	rep := &ScrubReport{Object: id}
	nodeMissing := make([]bool, n)
	nodeCorrupt := make([]bool, n)
	// The whole object's digest accumulates as chunks decode; only the
	// damaged chunks' plaintext is kept, as the repair's source.
	h := sha256.New()
	type damagedChunk struct {
		ci   int
		data []byte
		meta chunkMeta // the rewrite's, once staged
	}
	var damaged []damagedChunk
	for ci := range obj.chunks {
		cm := &obj.chunks[ci]
		res := v.Cluster.FetchChunkStripeCtx(ctx, id, ci, n, n, v.retry, nil)
		if res.Canceled != nil {
			return nil, fmt.Errorf("core: scrub %s chunk %d: %w", id, ci, res.Canceled)
		}
		shards := res.Shards
		healthy, missing, corrupt := CheckShards(shards, cm.digests)
		for _, i := range missing {
			nodeMissing[i] = true
		}
		for _, i := range corrupt {
			nodeCorrupt[i] = true
			shards[i] = nil // decode from the healthy shards only
		}
		_, dsp := trace.Child(ctx, "vault.decode", trace.Int("chunk", ci), trace.Int("shards", len(healthy)))
		data, err := v.Encoding.Decode(cm.enc.withShards(shards))
		dsp.End(err)
		if err != nil {
			return rep, fmt.Errorf("core: scrub %s chunk %d: decode from %d healthy shards: %w", id, ci, len(healthy), err)
		}
		h.Write(data)
		if len(missing)+len(corrupt) > 0 {
			damaged = append(damaged, damagedChunk{ci: ci, data: data})
		}
	}
	for i := 0; i < n; i++ {
		switch {
		case nodeCorrupt[i]:
			rep.Corrupt = append(rep.Corrupt, i)
		case nodeMissing[i]:
			rep.Missing = append(rep.Missing, i)
		default:
			rep.Healthy = append(rep.Healthy, i)
		}
	}
	if rep.Clean() {
		// A clean stripe clears any read-time dirty mark: whatever a
		// degraded read discarded has since healed or been rewritten.
		v.clearDirty(id)
		return rep, nil
	}
	// Confirm the recovered whole end to end against the integrity chain
	// before trusting it as a repair source.
	var digest [sha256.Size]byte
	h.Sum(digest[:0])
	_, vsp := trace.Child(ctx, "vault.verify")
	err := obj.chain.VerifyDigest(digest)
	vsp.End(err)
	if err != nil {
		return rep, fmt.Errorf("core: scrub %s: integrity chain rejects recovered data: %w", id, err)
	}
	stage := v.newStageToken(id)
	sctx, ssp := trace.Child(ctx, "cluster.stage", trace.Str("object", id))
	for k := range damaged {
		d := &damaged[k]
		_, esp := trace.Child(ctx, "vault.encode", trace.Int("chunk", d.ci), trace.Int("bytes", len(d.data)))
		enc, eerr := v.Encoding.Encode(d.data, v.rnd)
		esp.End(eerr)
		if eerr != nil {
			err = fmt.Errorf("re-encode chunk %d: %w", d.ci, eerr)
			break
		}
		if err = v.stageShards(sctx, stage, id, d.ci, enc.Shards); err != nil {
			break
		}
		d.meta = newChunkMeta(enc)
	}
	if err := v.closeStage(ssp, stage, id, err); err != nil {
		return rep, fmt.Errorf("core: scrub %s: rewrite rolled back: %w", id, err)
	}
	// The repair rewrote stripes; the cached plaintext is still
	// byte-identical, but dropping it keeps the mutator rule — every
	// stripe rewrite invalidates — unconditional and easy to audit.
	v.cacheInvalidate(id)
	for _, d := range damaged {
		obj.chunks[d.ci] = d.meta
		// A partial rewrite can narrow only its own chunks; widen the
		// recorded width if the repair encoding grew, and clear the strays
		// its chunks no longer occupy.
		w := len(d.meta.digests)
		if w > obj.width {
			obj.width = w
		} else if w < obj.width {
			for i := w; i < obj.width; i++ {
				v.Cluster.Delete(i, cluster.ShardKey{Object: id, Index: i, Chunk: d.ci})
			}
		}
	}
	if len(obj.chunks) == 1 {
		obj.enc = obj.chunks[0].enc // keep sharing the one chunk's Encoded
	}
	rep.Repaired = true
	v.obsm.scrubRepairs.Inc()
	trace.FromContext(ctx).Event("scrub.repaired",
		trace.Int("missing", len(rep.Missing)), trace.Int("corrupt", len(rep.Corrupt)),
		trace.Int("chunks", len(damaged)))
	v.clearDirty(id)
	return rep, nil
}
