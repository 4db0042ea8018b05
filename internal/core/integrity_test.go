package core

import (
	"bytes"
	"context"
	"errors"
	"math/big"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/tstamp"
)

// TestTamperedChainFailsReadsAndScrub tampers an archived object's
// chain through Vault.Chain after the seal — the opening's R in place,
// or a bit of the commitment — and requires every read path and scrub
// to report the integrity error (verify-once must never turn a changed
// opening into a pass), then restores it and requires them to pass
// again. Scrub checks the chain only when it has to rebuild a stripe,
// so each case removes one shard first.
func TestTamperedChainFailsReadsAndScrub(t *testing.T) {
	type tamper struct {
		name          string
		apply, revert func(c *tstamp.Chain)
	}
	tampers := []tamper{
		{"R-in-place",
			func(c *tstamp.Chain) { c.Opening.R.Add(c.Opening.R, big.NewInt(1)) },
			func(c *tstamp.Chain) { c.Opening.R.Sub(c.Opening.R, big.NewInt(1)) }},
		{"ref-bit-flip",
			func(c *tstamp.Chain) { c.Links[0].Ref[3] ^= 0x04 },
			func(c *tstamp.Chain) { c.Links[0].Ref[3] ^= 0x04 }},
	}
	shapes := []struct {
		name   string
		chunk  int
		size   int
		stream bool
	}{
		{"monolithic", DefaultChunkSize, 4096, false},
		{"stream-one-chunk", DefaultChunkSize, 64 << 10, true},
		{"chunked", 2048, 3*2048 + 17, true},
	}
	for _, sh := range shapes {
		for _, tp := range tampers {
			t.Run(sh.name+"/"+tp.name, func(t *testing.T) {
				v, c := chunkedTestVault(t, AONTRS{K: 4, N: 8}, sh.chunk)
				want := iotaBytes(sh.size)
				if sh.stream {
					if _, err := v.PutReader(context.Background(), "obj", bytes.NewReader(want)); err != nil {
						t.Fatal(err)
					}
				} else if err := v.Put("obj", want); err != nil {
					t.Fatal(err)
				}
				chain := v.Chain("obj")
				tp.apply(chain)
				if _, err := v.Get("obj"); !errors.Is(err, tstamp.ErrOpeningFailed) {
					t.Fatalf("Get after tamper: %v; want ErrOpeningFailed", err)
				}
				if _, err := v.ReadTo(context.Background(), "obj", &bytes.Buffer{}); !errors.Is(err, tstamp.ErrOpeningFailed) {
					t.Fatalf("ReadTo after tamper: %v; want ErrOpeningFailed", err)
				}
				if err := c.Delete(0, cluster.ShardKey{Object: "obj", Index: 0}); err != nil {
					t.Fatal(err)
				}
				if _, err := v.Scrub("obj"); !errors.Is(err, tstamp.ErrOpeningFailed) {
					t.Fatalf("Scrub after tamper: %v; want ErrOpeningFailed", err)
				}
				tp.revert(chain)
				got, err := v.Get("obj")
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Get after restore: err=%v equal=%v", err, bytes.Equal(got, want))
				}
				rep, err := v.Scrub("obj")
				if err != nil || !rep.Repaired {
					t.Fatalf("Scrub after restore: rep=%+v err=%v; want a repair", rep, err)
				}
			})
		}
	}
}
