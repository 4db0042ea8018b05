package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"securearchive/internal/store"
	"securearchive/internal/store/memstore"
)

func key(obj string, idx, chunk int) store.ShardKey {
	return store.ShardKey{Object: obj, Index: idx, Chunk: chunk}
}

func mustOpen(t *testing.T, dir string, n int, opts ...Option) *Store {
	t.Helper()
	s, err := Open(dir, n, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 3)
	// Direct put on node 0.
	if err := s.Node(0).Put(store.Shard{Key: key("a", 0, 0), Epoch: 4, Data: []byte("alpha")}); err != nil {
		t.Fatal(err)
	}
	// Staged stripe across all nodes, committed at epoch 7.
	for i := 0; i < 3; i++ {
		if err := s.Node(i).Stage("tok", store.Shard{Key: key("b", i, 0), Epoch: 1, Data: []byte{byte(i), 1, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.CommitStage("tok", 7); err != nil || n != 3 {
		t.Fatalf("CommitStage = %d, %v", n, err)
	}
	check := func(s *Store, when string) {
		t.Helper()
		sh, ok, err := s.Node(0).Get(key("a", 0, 0))
		if err != nil || !ok || !bytes.Equal(sh.Data, []byte("alpha")) || sh.Epoch != 4 {
			t.Fatalf("%s: get a = %+v ok=%v err=%v", when, sh, ok, err)
		}
		for i := 0; i < 3; i++ {
			sh, ok, err := s.Node(i).Get(key("b", i, 0))
			if err != nil || !ok || sh.Epoch != 7 {
				t.Fatalf("%s: get b[%d] = %+v ok=%v err=%v", when, i, sh, ok, err)
			}
			if !bytes.Equal(sh.Data, []byte{byte(i), 1, 2}) {
				t.Fatalf("%s: b[%d] data = %v", when, i, sh.Data)
			}
		}
		if got := s.Node(0).StoredBytes(); got != 5+3 {
			t.Fatalf("%s: node0 StoredBytes = %d, want 8", when, got)
		}
	}
	check(s, "before close")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, 3)
	defer s2.Close()
	check(s2, "after reopen")
	if rep := s2.Recovery(); rep.OrphanedStages != 0 || rep.WALBytesDropped != 0 || rep.InvalidRefs != 0 {
		t.Fatalf("clean reopen recovery = %+v", rep)
	}
}

func TestOrphanedStageDiscardedOnReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 2)
	for i := 0; i < 2; i++ {
		if err := s.Node(i).Stage("leak", store.Shard{Key: key("x", i, 0), Data: []byte("zzz")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Node(0).StagedCount(); got != 1 {
		t.Fatalf("StagedCount = %d", got)
	}
	s.Close() // syncs the WAL: the stage records ARE durable, just never committed
	s2 := mustOpen(t, dir, 2)
	defer s2.Close()
	if rep := s2.Recovery(); rep.OrphanedStages != 2 {
		t.Fatalf("OrphanedStages = %d, want 2 (recovery = %+v)", rep.OrphanedStages, rep)
	}
	for i := 0; i < 2; i++ {
		if got := s2.Node(i).StagedCount(); got != 0 {
			t.Fatalf("node %d StagedCount after reopen = %d", i, got)
		}
		if _, ok, _ := s2.Node(i).Get(key("x", i, 0)); ok {
			t.Fatalf("orphaned stage visible on node %d", i)
		}
	}
	if got := s2.Node(0).StoredBytes(); got != 0 {
		t.Fatalf("StoredBytes after orphan discard = %d", got)
	}
}

func TestAbortAndDeleteClearStaged(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1)
	defer s.Close()
	nd := s.Node(0)
	if err := nd.Stage("t1", store.Shard{Key: key("a", 0, 0), Data: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if n, err := s.AbortStage("t1"); err != nil || n != 1 {
		t.Fatalf("AbortStage = %d, %v", n, err)
	}
	if nd.StagedCount() != 0 {
		t.Fatal("abort left a staged entry")
	}
	// Delete must clear both the committed shard and a parked stage.
	if err := nd.Put(store.Shard{Key: key("b", 0, 0), Data: []byte("22")}); err != nil {
		t.Fatal(err)
	}
	if err := nd.Stage("t2", store.Shard{Key: key("b", 0, 0), Data: []byte("33")}); err != nil {
		t.Fatal(err)
	}
	if err := nd.Delete(key("b", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if nd.StagedCount() != 0 || nd.StoredBytes() != 0 {
		t.Fatalf("delete left staged=%d bytes=%d", nd.StagedCount(), nd.StoredBytes())
	}
	if _, ok, _ := nd.Get(key("b", 0, 0)); ok {
		t.Fatal("deleted shard still visible")
	}
	// The delete must hold across reopen too.
	s.Close()
	s2 := mustOpen(t, dir, 1)
	defer s2.Close()
	if _, ok, _ := s2.Node(0).Get(key("b", 0, 0)); ok {
		t.Fatal("deleted shard resurrected by replay")
	}
	if got := s2.Node(0).StoredBytes(); got != 0 {
		t.Fatalf("StoredBytes after reopen = %d", got)
	}
}

// stageStripe parks one shard per node under the token.
func stageStripe(t *testing.T, s *Store, obj, tok string, data []byte) {
	t.Helper()
	for i := 0; i < s.Nodes(); i++ {
		if err := s.Node(i).Stage(tok, store.Shard{Key: key(obj, i, 0), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashBeforeWALSyncRollsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 3)
	stageStripe(t, s, "base", "t0", []byte("baseline"))
	if _, err := s.CommitStage("t0", 1); err != nil {
		t.Fatal(err)
	}
	stageStripe(t, s, "victim", "t1", []byte("doomed"))
	s.SetCrashPoint(CrashBeforeWALSync)
	if _, err := s.CommitStage("t1", 2); !errors.Is(err, ErrCrashed) {
		t.Fatalf("CommitStage = %v, want ErrCrashed", err)
	}
	if err := s.Node(0).Put(store.Shard{Key: key("z", 0, 0), Data: []byte("x")}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op = %v, want ErrCrashed", err)
	}
	s2 := mustOpen(t, dir, 3)
	defer s2.Close()
	rep := s2.Recovery()
	if rep.WALBytesDropped == 0 {
		t.Fatalf("expected a torn WAL tail, recovery = %+v", rep)
	}
	if rep.OrphanedStages != 3 {
		t.Fatalf("OrphanedStages = %d, want 3", rep.OrphanedStages)
	}
	for i := 0; i < 3; i++ {
		if _, ok, _ := s2.Node(i).Get(key("victim", i, 0)); ok {
			t.Fatalf("uncommitted stripe visible on node %d", i)
		}
		sh, ok, err := s2.Node(i).Get(key("base", i, 0))
		if err != nil || !ok || sh.Epoch != 1 || !bytes.Equal(sh.Data, []byte("baseline")) {
			t.Fatalf("baseline stripe damaged on node %d: %+v ok=%v err=%v", i, sh, ok, err)
		}
	}
}

func TestCrashAfterWALSyncCommits(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 3)
	stageStripe(t, s, "v", "t1", []byte("survives"))
	s.SetCrashPoint(CrashAfterWALSync)
	if _, err := s.CommitStage("t1", 5); !errors.Is(err, ErrCrashed) {
		t.Fatalf("CommitStage = %v, want ErrCrashed", err)
	}
	s2 := mustOpen(t, dir, 3)
	defer s2.Close()
	if rep := s2.Recovery(); rep.OrphanedStages != 0 || rep.Shards != 3 {
		t.Fatalf("recovery = %+v, want 3 committed shards, no orphans", rep)
	}
	for i := 0; i < 3; i++ {
		sh, ok, err := s2.Node(i).Get(key("v", i, 0))
		if err != nil || !ok || sh.Epoch != 5 || !bytes.Equal(sh.Data, []byte("survives")) {
			t.Fatalf("committed stripe lost on node %d: %+v ok=%v err=%v", i, sh, ok, err)
		}
	}
}

func TestCrashMidSegmentAppend(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 2)
	if err := s.Node(0).Put(store.Shard{Key: key("keep", 0, 0), Epoch: 1, Data: []byte("kept-data")}); err != nil {
		t.Fatal(err)
	}
	s.SetCrashPoint(CrashMidSegmentAppend)
	err := s.Node(0).Put(store.Shard{Key: key("torn", 0, 0), Epoch: 1, Data: bytes.Repeat([]byte("T"), 4096)})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("Put = %v, want ErrCrashed", err)
	}
	s2 := mustOpen(t, dir, 2)
	defer s2.Close()
	if _, ok, _ := s2.Node(0).Get(key("torn", 0, 0)); ok {
		t.Fatal("half-written shard visible after recovery")
	}
	sh, ok, err := s2.Node(0).Get(key("keep", 0, 0))
	if err != nil || !ok || !bytes.Equal(sh.Data, []byte("kept-data")) {
		t.Fatalf("earlier shard damaged: %+v ok=%v err=%v", sh, ok, err)
	}
	// A fresh write after recovery must land cleanly despite the garbage
	// tail left in the old segment (new appends go to a fresh segment).
	if err := s2.Node(0).Put(store.Shard{Key: key("after", 0, 0), Epoch: 2, Data: []byte("fresh")}); err != nil {
		t.Fatal(err)
	}
	if sh, ok, _ := s2.Node(0).Get(key("after", 0, 0)); !ok || !bytes.Equal(sh.Data, []byte("fresh")) {
		t.Fatalf("post-recovery write broken: %+v ok=%v", sh, ok)
	}
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1, WithMaxSegmentBytes(256))
	payload := bytes.Repeat([]byte("R"), 100)
	for i := 0; i < 8; i++ {
		if err := s.Node(0).Put(store.Shard{Key: key("o", 0, i), Epoch: 1, Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "node-00", "*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected rolled segments, found %d", len(segs))
	}
	s2 := mustOpen(t, dir, 1, WithMaxSegmentBytes(256))
	defer s2.Close()
	for i := 0; i < 8; i++ {
		sh, ok, err := s2.Node(0).Get(key("o", 0, i))
		if err != nil || !ok || !bytes.Equal(sh.Data, payload) {
			t.Fatalf("chunk %d lost across segments: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, mode := range []string{FsyncCommit, FsyncAlways, FsyncNever} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, 2, WithFsync(mode))
			stageStripe2 := func(obj, tok string) {
				for i := 0; i < 2; i++ {
					if err := s.Node(i).Stage(tok, store.Shard{Key: key(obj, i, 0), Data: []byte(obj)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			stageStripe2("a", "t")
			if _, err := s.CommitStage("t", 1); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s2 := mustOpen(t, dir, 2, WithFsync(mode))
			defer s2.Close()
			for i := 0; i < 2; i++ {
				if _, ok, err := s2.Node(i).Get(key("a", i, 0)); !ok || err != nil {
					t.Fatalf("mode %s: committed shard missing after clean close", mode)
				}
			}
		})
	}
	if _, err := Open(t.TempDir(), 1, WithFsync("sometimes")); err == nil {
		t.Fatal("bogus fsync mode accepted")
	}
}

func TestCorruptPersistsAtRest(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1)
	data := []byte("pristine-bytes")
	if err := s.Node(0).Put(store.Shard{Key: key("r", 0, 0), Epoch: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	if !s.Node(0).Corrupt(key("r", 0, 0), 3) {
		t.Fatal("Corrupt refused an existing shard")
	}
	want := append([]byte(nil), data...)
	want[0] ^= 1 << 3
	sh, _, _ := s.Node(0).Get(key("r", 0, 0))
	if !bytes.Equal(sh.Data, want) {
		t.Fatalf("rot not visible: got %q", sh.Data)
	}
	s.Close()
	// Rot is damage to the bytes AT REST: it must survive reopen.
	s2 := mustOpen(t, dir, 1)
	defer s2.Close()
	sh, _, _ = s2.Node(0).Get(key("r", 0, 0))
	if !bytes.Equal(sh.Data, want) {
		t.Fatalf("rot healed by reopen: got %q", sh.Data)
	}
}

func TestMetaMismatchRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, 3).Close()
	if _, err := Open(dir, 5); err == nil {
		t.Fatal("open with wrong node count accepted")
	}
}

// TestDifferentialMemVsDisk drives the identical mixed workload through
// the memory and disk backends and requires byte-for-byte agreement on
// every node's committed snapshot — memstore is the behavioural
// reference, diskstore must be indistinguishable above the interface.
func TestDifferentialMemVsDisk(t *testing.T) {
	const nodes = 4
	mem := store.Store(memstore.New(nodes))
	disk := store.Store(mustOpen(t, t.TempDir(), nodes))
	defer disk.Close()

	run := func(s store.Store) {
		// Direct puts, two objects.
		for i := 0; i < nodes; i++ {
			payload := bytes.Repeat([]byte{byte('A' + i)}, 64+i)
			if err := s.Node(i).Put(store.Shard{Key: key("direct", i, 0), Epoch: 1, Data: payload}); err != nil {
				t.Fatal(err)
			}
		}
		// A staged multi-chunk object, committed.
		for c := 0; c < 3; c++ {
			for i := 0; i < nodes; i++ {
				data := []byte(fmt.Sprintf("chunk%d-node%d", c, i))
				if err := s.Node(i).Stage("w1", store.Shard{Key: key("big", i, c), Data: data}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.CommitStage("w1", 2); err != nil {
			t.Fatal(err)
		}
		// An aborted stage.
		for i := 0; i < nodes; i++ {
			if err := s.Node(i).Stage("w2", store.Shard{Key: key("never", i, 0), Data: []byte("aborted")}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.AbortStage("w2"); err != nil {
			t.Fatal(err)
		}
		// Rewrite one stripe at a later epoch (renewal shape).
		for i := 0; i < nodes; i++ {
			if err := s.Node(i).Stage("w3", store.Shard{Key: key("direct", i, 0), Data: []byte("renewed")}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.CommitStage("w3", 3); err != nil {
			t.Fatal(err)
		}
		// Delete one object's shards on half the nodes.
		for i := 0; i < nodes/2; i++ {
			if err := s.Node(i).Delete(key("big", i, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(mem)
	run(disk)

	for i := 0; i < nodes; i++ {
		ms, err := mem.Node(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		ds, err := disk.Node(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sortShards(ms)
		sortShards(ds)
		if len(ms) != len(ds) {
			t.Fatalf("node %d: mem has %d shards, disk has %d", i, len(ms), len(ds))
		}
		for j := range ms {
			if ms[j].Key != ds[j].Key || ms[j].Epoch != ds[j].Epoch || !bytes.Equal(ms[j].Data, ds[j].Data) {
				t.Fatalf("node %d shard %d diverges:\n mem  %+v\n disk %+v", i, j, ms[j], ds[j])
			}
		}
		if mb, db := mem.Node(i).StoredBytes(), disk.Node(i).StoredBytes(); mb != db {
			t.Fatalf("node %d StoredBytes: mem %d, disk %d", i, mb, db)
		}
	}
}

func sortShards(s []store.Shard) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0; j-- {
			a, b := s[j-1].Key, s[j].Key
			if a.Object < b.Object || (a.Object == b.Object && (a.Chunk < b.Chunk || (a.Chunk == b.Chunk && a.Index <= b.Index))) {
				break
			}
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

// TestReplayRejectsSegmentBeyondU32: the in-memory index holds segment
// numbers as u32, so a WAL reference whose u64 segment number does not
// fit must be dropped as invalid — never truncated onto a real segment
// whose header it would then pass.
func TestReplayRejectsSegmentBeyondU32(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1)
	data := []byte("alpha")
	if err := s.Node(0).Put(store.Shard{Key: key("a", 0, 0), Epoch: 4, Data: data}); err != nil {
		t.Fatal(err)
	}
	// The same reference as the committed put (segment 1, offset 0) but
	// with segment 1+2^32 and a different epoch.
	var r recBuf
	r.u8(walPut)
	writeRefTo(&r, 0, shardRef{off: 0, seg: 1, dlen: uint32(len(data))}, 0, 0, 9)
	binary.LittleEndian.PutUint64(r.b[5:13], 1+1<<32)
	r.str16("a")
	if _, err := s.wal.append(r.frame()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, 1)
	defer s2.Close()
	if rep := s2.Recovery(); rep.InvalidRefs != 1 {
		t.Fatalf("recovery = %+v; want the out-of-range reference dropped", rep)
	}
	sh, ok, err := s2.Node(0).Get(key("a", 0, 0))
	if err != nil || !ok || sh.Epoch != 4 || !bytes.Equal(sh.Data, data) {
		t.Fatalf("get a = %+v ok=%v err=%v; want the original epoch-4 shard", sh, ok, err)
	}
}
