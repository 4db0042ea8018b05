package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/group"
	"securearchive/internal/store"
	"securearchive/internal/store/diskstore"
)

// Memory gates for small streamed PUTs — the archive's common case (a
// 64 KiB object through the service's PutReader path). Both count
// bytes, never time, so they hold on any box; both skip under -race,
// whose instrumentation allocates on its own.

const footprintObject = 64 << 10

// TestPutReaderSmallAllocBudget bounds the bytes a 64 KiB PutReader
// allocates at the default 1 MiB chunk size: the body is read through a
// pooled probe buffer and copied out at its exact size, so a small
// object pays for its own size, not for a whole chunk.
func TestPutReaderSmallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs without -race")
	}
	const (
		warm   = 8
		puts   = 256
		budget = 512 << 10
	)
	v, err := NewVault(cluster.New(8, nil), AONTRS{K: 4, N: 8}, WithGroup(group.Test()))
	if err != nil {
		t.Fatal(err)
	}
	body := iotaBytes(footprintObject)
	put := func(i int) {
		if _, err := v.PutReader(context.Background(), fmt.Sprintf("alloc/obj-%07d", i), bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		put(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+puts; i++ {
		put(i)
	}
	runtime.ReadMemStats(&after)
	perPut := (after.TotalAlloc - before.TotalAlloc) / puts
	t.Logf("allocated %d B per %d B PutReader (budget %d)", perPut, footprintObject, budget)
	if perPut >= budget {
		t.Fatalf("PutReader of %d B allocates %d B per put; budget %d", footprintObject, perPut, budget)
	}
}

// TestPutReaderRetainedHeap bounds what each archived object keeps
// resident: the live-heap delta after GC over N 64 KiB AONT-RS
// PutReaders on the disk store at the production 2048-bit group — the
// vault's object state, the integrity chain and the disk store's index.
// Before those structures were trimmed this test measured ~2740 B per
// object; the budget is 30% under that.
func TestPutReaderRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; heap gate runs without -race")
	}
	const (
		puts   = 256
		budget = 1900
	)
	c, err := cluster.Open(8, nil, store.Config{
		Backend: store.BackendDisk, Dir: t.TempDir(), Fsync: diskstore.FsyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	v, err := NewVault(c, AONTRS{K: 4, N: 8}, WithGroup(group.Default()))
	if err != nil {
		t.Fatal(err)
	}
	body := iotaBytes(footprintObject)
	put := func(id string) {
		if _, err := v.PutReader(context.Background(), id, bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	put("bench/warm") // pools, segment files and lazily built tables
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	for i := 0; i < puts; i++ {
		put(fmt.Sprintf("bench/obj-%07d", i))
	}
	after := live()
	runtime.KeepAlive(v)
	perObject := (int64(after) - int64(before)) / puts
	t.Logf("retained %d B per archived %d B object (budget %d)", perObject, footprintObject, budget)
	if perObject > budget {
		t.Fatalf("each archived object retains %d B of heap; budget %d", perObject, budget)
	}
}

// TestReadChunkMatchesReadFull: the probe-then-chunk read returns the
// same bytes as one io.ReadFull into a chunk-sized buffer, with the
// same error class, at every size around the probe and chunk bounds
// and for readers that return short reads.
func TestReadChunkMatchesReadFull(t *testing.T) {
	const probe, cs = 64, 256
	for _, size := range []int{0, 1, probe - 1, probe, probe + 1, cs - 1, cs, cs + 1, 3*cs + 5} {
		for _, step := range []int{0, 1, 7, probe + 3} {
			want := make([]byte, cs)
			wn, werr := io.ReadFull(&iotaReader{n: size, step: step}, want)
			got, gerr := readChunk(&iotaReader{n: size, step: step}, cs, make([]byte, probe))
			if !bytes.Equal(got, want[:wn]) || got == nil {
				t.Fatalf("size %d step %d: got %d bytes (nil=%v), want %d", size, step, len(got), got == nil, wn)
			}
			if (werr == nil) != (gerr == nil) || (werr == io.EOF) != (gerr == io.EOF) {
				t.Fatalf("size %d step %d: err %v, want %v", size, step, gerr, werr)
			}
		}
	}
	boom := errors.New("boom")
	if _, err := readChunk(io.MultiReader(bytes.NewReader(make([]byte, 100)), &failReader{boom}), cs, make([]byte, probe)); !errors.Is(err, boom) {
		t.Fatalf("reader error after the probe: %v; want boom", err)
	}
}

type failReader struct{ err error }

func (f *failReader) Read([]byte) (int, error) { return 0, f.err }

// TestPutReaderProbeBoundaries round-trips streamed objects whose sizes
// straddle the probe buffer and the chunk size, at a chunk size above
// the probe so both read stages run, and checks the stored shape.
func TestPutReaderProbeBoundaries(t *testing.T) {
	const cs = 2 * streamProbeBytes
	v, _ := chunkedTestVault(t, Erasure{K: 4, N: 8}, cs)
	for _, size := range []int{
		streamProbeBytes - 1, streamProbeBytes, streamProbeBytes + 1,
		cs - 1, cs, cs + 1, cs + chunkTailFloor, 2*cs + streamProbeBytes + 3,
	} {
		id := fmt.Sprintf("obj-%d", size)
		if _, err := v.PutReader(context.Background(), id, &iotaReader{n: size, step: 4093}); err != nil {
			t.Fatalf("PutReader(%d): %v", size, err)
		}
		got, err := v.Get(id)
		if err != nil || !bytes.Equal(got, iotaBytes(size)) {
			t.Fatalf("Get(%d): err=%v equal=%v", size, err, bytes.Equal(got, iotaBytes(size)))
		}
		info, err := v.Stat(id)
		if err != nil || info.Chunks != numChunks(size, cs) {
			t.Fatalf("Stat(%d) = %+v, %v; want %d chunks", size, info, err, numChunks(size, cs))
		}
	}
}
