package main

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"time"

	"securearchive/internal/core"
	"securearchive/internal/group"
	"securearchive/internal/rs"
	"securearchive/internal/sig"
	"securearchive/internal/tstamp"
)

// microBudget is how long each direct layer call is repeated.
const microBudget = 250 * time.Millisecond

// repeat calls fn until microBudget has passed (at least three times)
// and returns the mean time per call.
func repeat(fn func() error) (time.Duration, error) {
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < microBudget {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
	}
	return time.Since(start) / time.Duration(n), nil
}

// microLayers calls the codec and integrity layers directly, outside the
// service: Reed-Solomon at bulk-stream's shard geometry (one 1 MiB chunk
// after the AONT package, 4 data + 4 parity) and a seal and a verify at
// the default group.
func microLayers(rep *report) error {
	chunk := make([]byte, core.DefaultChunkSize)
	if _, err := rand.Read(chunk); err != nil {
		return err
	}
	enc, err := core.AONTRS{K: shardsNeeded, N: shardsTotal}.Encode(chunk, rand.Reader)
	if err != nil {
		return err
	}
	shardLen := len(enc.Shards[0])
	code, err := rs.New(shardsNeeded, shardsTotal-shardsNeeded)
	if err != nil {
		return err
	}
	data := make([]byte, shardsNeeded*shardLen)
	if _, err := rand.Read(data); err != nil {
		return err
	}
	shards, err := code.Encode(data)
	if err != nil {
		return err
	}
	dataBytes := float64(shardsNeeded * shardLen)
	perEncode, err := repeat(func() error { return code.EncodeShards(shards) })
	if err != nil {
		return fmt.Errorf("rs encode: %w", err)
	}
	// Reconstruct from half the stripe: two data and two parity shards
	// lost, the most a 4-of-8 read can survive.
	work := make([][]byte, len(shards))
	perRecon, err := repeat(func() error {
		copy(work, shards)
		work[0], work[1], work[6], work[7] = nil, nil, nil, nil
		return code.Reconstruct(work)
	})
	if err != nil {
		return fmt.Errorf("rs reconstruct: %w", err)
	}
	geom := fmt.Sprintf("%d+%d x %d B", shardsNeeded, shardsTotal-shardsNeeded, shardLen)
	rep.add("rs.encode_mb_s", dataBytes/1e6/perEncode.Seconds(), "MB/s", geom)
	rep.add("rs.reconstruct_mb_s", dataBytes/1e6/perRecon.Seconds(), "MB/s", geom+", 4 lost")

	grp := group.Default()
	digest := sha256.Sum256(chunk)
	var chain *tstamp.Chain
	perSeal, err := repeat(func() (err error) {
		chain, err = tstamp.NewFromDigest(digest, tstamp.RefCommitment, sig.Ed25519, 0, grp, rand.Reader)
		return err
	})
	if err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	perVerify, err := repeat(func() error { return chain.VerifyDigest(digest) })
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	bits := fmt.Sprintf("%d-bit group", grp.P.BitLen())
	rep.add("integrity.seal_ms", ms(perSeal), "ms", bits)
	rep.add("integrity.verify_ms", ms(perVerify), "ms", bits)
	return nil
}
