package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"testing"

	"securearchive/internal/cluster"
)

// iotaReader feeds a deterministic byte pattern of the given length in
// deliberately awkward read sizes (never aligned with the chunk size),
// so the streaming producer's refill loop is exercised for real.
type iotaReader struct {
	n    int
	off  int
	step int
}

func (r *iotaReader) Read(p []byte) (int, error) {
	if r.off >= r.n {
		return 0, io.EOF
	}
	max := r.step
	if max <= 0 || max > len(p) {
		max = len(p)
	}
	if rem := r.n - r.off; max > rem {
		max = rem
	}
	for i := 0; i < max; i++ {
		p[i] = byte((r.off + i) * 131)
	}
	r.off += max
	return max, nil
}

// numChunks is the reference model of disperseStream's splitting rule:
// dataLen/chunkSize full chunks, plus one more only when the remainder
// clears chunkTailFloor — a sub-floor remainder folds into the last
// chunk.
func numChunks(dataLen, chunkSize int) int {
	chunks := dataLen / chunkSize
	if chunks == 0 || dataLen%chunkSize >= chunkTailFloor {
		chunks++
	}
	return chunks
}

func iotaBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}

// TestPutReaderRoundTrip is the streaming differential property: for
// sizes straddling every chunk-boundary case (single chunk, exact
// multiple, sub-floor tail that folds into the previous chunk, proper
// tail chunk, many chunks), PutReader must store exactly what a slice
// put would — the same Stat shape and the same committed shard keys —
// readable through both ReadTo and the slice Get path.
func TestPutReaderRoundTrip(t *testing.T) {
	const chunk = 2048
	sizes := []int{
		1,
		chunk - 1,
		chunk,
		chunk + 1,                  // tail 1 < chunkTailFloor: folds into chunk 1
		chunk + chunkTailFloor - 1, // largest folding tail
		chunk + chunkTailFloor,     // smallest standalone tail chunk
		3*chunk + 17,
		8 * chunk,
	}
	v, c := chunkedTestVault(t, Erasure{K: 4, N: 8}, chunk)
	for _, size := range sizes {
		id := fmt.Sprintf("obj-%d", size)
		want := iotaBytes(size)
		n, err := v.PutReader(context.Background(), id, &iotaReader{n: size, step: 733})
		if err != nil {
			t.Fatalf("PutReader(%d): %v", size, err)
		}
		if n != int64(size) {
			t.Fatalf("PutReader(%d) reported %d bytes", size, n)
		}
		// Slice read path must see the streamed object.
		got, err := v.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", size, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%d): payload mismatch", size)
		}
		// Streaming read path.
		var buf bytes.Buffer
		rn, err := v.ReadTo(context.Background(), id, &buf)
		if err != nil {
			t.Fatalf("ReadTo(%d): %v", size, err)
		}
		if rn != int64(size) || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("ReadTo(%d): n=%d equal=%v", size, rn, bytes.Equal(buf.Bytes(), want))
		}
		info, err := v.Stat(id)
		if err != nil {
			t.Fatalf("Stat(%d): %v", size, err)
		}
		if info.PlainLen != int64(size) {
			t.Fatalf("Stat(%d).PlainLen = %d", size, info.PlainLen)
		}
		// Evidence chain must verify for streamed objects too.
		if err := v.Chain(id).VerifyData(want); err != nil {
			t.Fatalf("chain verify (%d): %v", size, err)
		}
		// Put of the same bytes yields the same object shape.
		putID := "put-" + id
		if err := v.Put(putID, want); err != nil {
			t.Fatalf("Put(%d): %v", size, err)
		}
		pinfo, err := v.Stat(putID)
		if err != nil {
			t.Fatalf("Stat(put %d): %v", size, err)
		}
		if pinfo.Chunks != info.Chunks || pinfo.Width != info.Width || pinfo.PlainLen != info.PlainLen {
			t.Fatalf("size %d: Put shape %+v, PutReader shape %+v", size, pinfo, info)
		}
		if pk, sk := committedKeys(t, c, putID), committedKeys(t, c, id); !maps.Equal(pk, sk) {
			t.Fatalf("size %d: Put keys %v, PutReader keys %v", size, pk, sk)
		}
	}
}

// committedKeys returns object id's committed shard keys across the
// cluster as a set of (chunk, index) pairs.
func committedKeys(t *testing.T, c *cluster.Cluster, id string) map[[2]int]bool {
	t.Helper()
	out := map[[2]int]bool{}
	for n := 0; n < c.Size(); n++ {
		shards, err := c.Snapshot(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shards {
			if sh.Key.Object == id {
				out[[2]int{sh.Key.Chunk, sh.Key.Index}] = true
			}
		}
	}
	return out
}

// TestReadToSlicePutObjects: ReadTo must serve objects written through
// the slice path (one stripe and chunked) — the read side is one
// implementation, not a parallel streaming-only store.
func TestReadToSlicePutObjects(t *testing.T) {
	const chunk = 2048
	for _, tc := range []struct {
		name string
		cs   int
		size int
	}{
		{"mono", 4096, 4096},
		{"chunked", chunk, 3*chunk + 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, _ := chunkedTestVault(t, Erasure{K: 4, N: 8}, tc.cs)
			want := iotaBytes(tc.size)
			if err := v.Put("obj", want); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			n, err := v.ReadTo(context.Background(), "obj", &buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(tc.size) || !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("ReadTo: n=%d equal=%v", n, bytes.Equal(buf.Bytes(), want))
			}
		})
	}
}

// TestPutReaderEmpty: an empty stream must fail the same way an empty
// slice put does, and must not register the id or leak staged shards.
func TestPutReaderEmpty(t *testing.T) {
	v, c := chunkedTestVault(t, Erasure{K: 4, N: 8}, 2048)
	_, err := v.PutReader(context.Background(), "empty", bytes.NewReader(nil))
	if err == nil {
		t.Fatal("PutReader of empty stream succeeded")
	}
	if !errors.Is(err, ErrEmptyData) {
		t.Fatalf("err = %v; want ErrEmptyData", err)
	}
	if got := c.StoredBytes(); got != 0 {
		t.Fatalf("StoredBytes = %d after failed empty put; want 0", got)
	}
	// The id must be free for reuse after the failure.
	if _, err := v.PutReader(context.Background(), "empty", bytes.NewReader([]byte("x"))); err != nil {
		t.Fatalf("re-put after empty failure: %v", err)
	}
}

// TestPutReaderDuplicate: streaming puts respect write-once semantics.
func TestPutReaderDuplicate(t *testing.T) {
	v, _ := chunkedTestVault(t, Erasure{K: 4, N: 8}, 2048)
	if _, err := v.PutReader(context.Background(), "obj", bytes.NewReader(iotaBytes(100))); err != nil {
		t.Fatal(err)
	}
	_, err := v.PutReader(context.Background(), "obj", bytes.NewReader(iotaBytes(100)))
	if !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate PutReader err = %v; want ErrExists", err)
	}
}

// TestPutReaderMemoryBounded is the acceptance check for streaming
// ingest: pushing an object 16x the chunk size through PutReader must
// keep the vault's peak buffered plaintext O(chunk) — bounded by the
// pipeline depth plus lookahead, not by the object size.
func TestPutReaderMemoryBounded(t *testing.T) {
	const chunk = 4096
	v, _ := chunkedTestVault(t, Erasure{K: 4, N: 8}, chunk)
	size := 16 * chunk
	n, err := v.PutReader(context.Background(), "big", &iotaReader{n: size, step: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(size) {
		t.Fatalf("PutReader reported %d bytes; want %d", n, size)
	}
	peak := v.StreamPeakBuffered()
	if peak == 0 {
		t.Fatal("StreamPeakBuffered = 0; gauge not wired")
	}
	// Producer lookahead holds ≤2 chunks, the pipeline ≤pipelineDepth
	// encoded chunks, plus one in the consumer: 6 chunks is generous.
	if limit := int64(6 * chunk); peak > limit {
		t.Fatalf("StreamPeakBuffered = %d for a %d-byte object; want ≤ %d (O(chunk), not O(object))",
			peak, size, limit)
	}
	// And the full object must still round-trip.
	got, err := v.Get("big")
	if err != nil || !bytes.Equal(got, iotaBytes(size)) {
		t.Fatalf("round-trip after memory-bound put: err=%v", err)
	}
}
