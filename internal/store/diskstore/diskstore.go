// Package diskstore is the durable store.Store: shard bodies live in
// per-node append-only segment files (archival data is write-once —
// sequential segments beat a KV store for bulk bodies), and a single
// shared write-ahead log carries the stage/commit/abort/delete protocol.
// A multi-shard CommitStage is one WAL record whose fsync is the commit
// point: after a kill -9 at any instant, Open replays the log and the
// archive holds either the whole committed stripe or none of it — never
// a mix, and never an orphaned stage.
//
// Layout under the root directory:
//
//	meta.json            — {"version":1,"nodes":N}, written at creation
//	wal                  — the shared log (see wal.go for framing)
//	node-00/00000001.seg — node 0's segment files, numbered, append-only
//	...
//
// Fsync policy (store.Config.Fsync): "commit" (default) fsyncs touched
// segments before each commit-point record (commit, put, delete) and
// then the WAL — one ordered pair of fsyncs per durable decision;
// "always" additionally syncs every segment append and stage record;
// "never" skips fsync entirely (still recovers from process kill, not
// from power loss). Stage and abort records are never individually
// fsynced even under "commit": a lost stage is exactly an aborted one.
package diskstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"securearchive/internal/store"
)

// Fsync policies.
const (
	FsyncCommit = "commit"
	FsyncAlways = "always"
	FsyncNever  = "never"
)

// DefaultMaxSegmentBytes rolls segments at 64 MiB — large enough that
// multi-MiB shards stay sequential, small enough that a torn tail never
// strands much space.
const DefaultMaxSegmentBytes = 64 << 20

// Errors.
var (
	// ErrCrashed is returned by every operation after an injected crash
	// point fired (and by operations on a closed store).
	ErrCrashed = errors.New("diskstore: store crashed")
	// ErrClosed is returned by operations on a Close()d store.
	ErrClosed = errors.New("diskstore: store closed")
)

// Option configures Open.
type Option func(*Store)

// WithFsync selects the durability policy: FsyncCommit (default),
// FsyncAlways or FsyncNever.
func WithFsync(mode string) Option {
	return func(s *Store) {
		if mode != "" {
			s.fsync = mode
		}
	}
}

// WithMaxSegmentBytes caps segment files before the writer rolls over.
func WithMaxSegmentBytes(n int64) Option {
	return func(s *Store) {
		if n > 0 {
			s.maxSeg = n
		}
	}
}

// Store implements store.Store over segments + WAL. One mutex guards the
// whole store: every operation is a handful of map touches plus file
// I/O against a single shared log, so finer locking would only
// re-serialise on the WAL anyway. (The cluster's concurrency lives above
// this — encoding, probing, retry — not in the at-rest byte store.)
type Store struct {
	dir    string
	fsync  string
	maxSeg int64

	mu    sync.Mutex
	wal   *appendFile
	nodes []*diskNode
	// index holds every node's committed shards, grouped by stripe: one
	// entry per (object, chunk) listing the nodes that hold a shard of
	// it, rather than a stripe's worth of entries in per-node maps —
	// the index is most of what an archived object keeps resident here.
	index map[stripeKey][]nodeRef
	// dead, once set, fails every subsequent operation: ErrCrashed after
	// an injected crash point, ErrClosed after Close.
	dead error
	// crash is the armed injection point; see crash.go.
	crash CrashPoint
	// recovery describes what the opening replay found.
	recovery RecoveryReport
}

// diskNode is one node's view of the store: its staging area and its
// segment files. Its committed shards live in the Store's index.
type diskNode struct {
	s      *Store
	id     int
	dir    string
	staged map[indexKey]stagedRef
	segs   map[uint32]*segFile // open handles, keyed by segment number
	cur    uint32              // current append segment; 0 = none yet
	next   uint32              // next segment number to allocate
}

// indexKey is a store.ShardKey as the in-memory indexes hold it. WAL
// records and segment headers persist chunk and index as u32, so the
// narrower fields lose nothing.
type indexKey struct {
	object       string
	chunk, index uint32
}

// stripeKey addresses one chunk stripe of an object across all nodes.
type stripeKey struct {
	object string
	chunk  uint32
}

// nodeRef is one committed shard of a stripe: the node holding it, its
// shard index, and where its body lives.
type nodeRef struct {
	ref   shardRef
	node  uint32
	index uint32
}

func keyOf(k store.ShardKey) indexKey {
	return indexKey{object: k.Object, chunk: uint32(k.Chunk), index: uint32(k.Index)}
}

func (k indexKey) shardKey() store.ShardKey {
	return store.ShardKey{Object: k.object, Index: int(k.index), Chunk: int(k.chunk)}
}

func (k indexKey) stripe() stripeKey { return stripeKey{object: k.object, chunk: k.chunk} }

// committed returns the node's committed shard for k. Caller holds s.mu.
func (nd *diskNode) committed(k indexKey) (shardRef, bool) {
	for _, e := range nd.s.index[k.stripe()] {
		if e.node == uint32(nd.id) && e.index == k.index {
			return e.ref, true
		}
	}
	return shardRef{}, false
}

// commit records ref as the node's committed shard for k, replacing any
// previous version. Caller holds s.mu.
func (nd *diskNode) commit(k indexKey, ref shardRef) {
	sk := k.stripe()
	refs := nd.s.index[sk]
	for i := range refs {
		if refs[i].node == uint32(nd.id) && refs[i].index == k.index {
			refs[i].ref = ref
			return
		}
	}
	if refs == nil {
		refs = make([]nodeRef, 0, len(nd.s.nodes)) // a stripe spans the nodes
	}
	nd.s.index[sk] = append(refs, nodeRef{ref: ref, node: uint32(nd.id), index: k.index})
}

// uncommit drops the node's committed shard for k, if any. Caller holds
// s.mu.
func (nd *diskNode) uncommit(k indexKey) {
	sk := k.stripe()
	refs := nd.s.index[sk]
	for i := range refs {
		if refs[i].node != uint32(nd.id) || refs[i].index != k.index {
			continue
		}
		last := len(refs) - 1
		refs[i] = refs[last]
		if last == 0 {
			delete(nd.s.index, sk)
		} else {
			nd.s.index[sk] = refs[:last]
		}
		return
	}
}

// eachCommitted calls fn for every committed shard the node holds.
// Caller holds s.mu.
func (nd *diskNode) eachCommitted(fn func(k indexKey, ref shardRef)) {
	for sk, refs := range nd.s.index {
		for _, e := range refs {
			if e.node == uint32(nd.id) {
				fn(indexKey{object: sk.object, chunk: sk.chunk, index: e.index}, e.ref)
			}
		}
	}
}

type stagedRef struct {
	stage string
	ref   shardRef
}

type segFile struct {
	af    *appendFile
	dirty bool // has appends not yet fsynced
}

type metaFile struct {
	Version int `json:"version"`
	Nodes   int `json:"nodes"`
}

// Open opens (creating if needed) a disk store for n nodes rooted at
// dir, replaying the WAL: committed state is rebuilt, orphaned stages —
// staged shards whose token never reached a commit record — are
// discarded, and a torn log or segment tail is truncated away. The
// replay's findings are available from Recovery().
func Open(dir string, n int, opts ...Option) (*Store, error) {
	if n <= 0 {
		return nil, fmt.Errorf("diskstore: need at least one node, got %d", n)
	}
	s := &Store{dir: dir, fsync: FsyncCommit, maxSeg: DefaultMaxSegmentBytes, index: make(map[stripeKey][]nodeRef)}
	for _, o := range opts {
		o(s)
	}
	switch s.fsync {
	case FsyncCommit, FsyncAlways, FsyncNever:
	default:
		return nil, fmt.Errorf("diskstore: unknown fsync policy %q", s.fsync)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := s.checkMeta(n); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		nd := &diskNode{
			s:      s,
			id:     i,
			dir:    filepath.Join(dir, fmt.Sprintf("node-%02d", i)),
			staged: make(map[indexKey]stagedRef),
			segs:   make(map[uint32]*segFile),
			next:   1,
		}
		if err := os.MkdirAll(nd.dir, 0o755); err != nil {
			s.closeFiles()
			return nil, err
		}
		if err := nd.scanSegments(); err != nil {
			s.closeFiles()
			return nil, err
		}
		s.nodes = append(s.nodes, nd)
	}
	wal, err := openAppend(filepath.Join(dir, "wal"))
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	s.wal = wal
	if err := s.replay(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// checkMeta creates or validates meta.json, refusing to open a directory
// laid out for a different node count.
func (s *Store) checkMeta(n int) error {
	path := filepath.Join(s.dir, "meta.json")
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		blob, _ = json.Marshal(metaFile{Version: 1, Nodes: n})
		return os.WriteFile(path, append(blob, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	var m metaFile
	if err := json.Unmarshal(blob, &m); err != nil {
		return fmt.Errorf("diskstore: corrupt meta.json: %w", err)
	}
	if m.Nodes != n {
		return fmt.Errorf("diskstore: directory holds %d nodes, asked for %d", m.Nodes, n)
	}
	return nil
}

// scanSegments finds the node's existing segment files and positions
// next past them. The previous append segment is never reused: a fresh
// Open starts a fresh segment, so a torn tail from a crash is simply
// never appended after (its garbage bytes are unreferenced).
func (nd *diskNode) scanSegments() error {
	entries, err := os.ReadDir(nd.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		var num uint64
		if _, err := fmt.Sscanf(name, "%08d.seg", &num); err != nil || num >= math.MaxUint32 {
			continue
		}
		if uint32(num) >= nd.next {
			nd.next = uint32(num) + 1
		}
	}
	return nil
}

func segName(num uint32) string { return fmt.Sprintf("%08d.seg", num) }

// seg returns the open handle for a segment, opening it on demand (a
// reopened store touches old segments lazily).
func (nd *diskNode) seg(num uint32) (*segFile, error) {
	if sf, ok := nd.segs[num]; ok {
		return sf, nil
	}
	af, err := openAppend(filepath.Join(nd.dir, segName(num)))
	if err != nil {
		return nil, err
	}
	sf := &segFile{af: af}
	nd.segs[num] = sf
	return sf, nil
}

// appendShard writes one shard body into the node's current segment
// (rolling to a new one at the size cap) and returns its reference.
// Caller holds s.mu.
func (nd *diskNode) appendShard(key store.ShardKey, data []byte) (shardRef, error) {
	rec := segRecord(key.Object, key.Index, key.Chunk, data)
	if nd.cur == 0 || func() bool {
		sf := nd.segs[nd.cur]
		return sf != nil && sf.af.size > 0 && sf.af.size+int64(len(rec)) > nd.s.maxSeg
	}() {
		nd.cur = nd.next
		nd.next++
	}
	sf, err := nd.seg(nd.cur)
	if err != nil {
		return shardRef{}, err
	}
	if nd.s.crash == CrashMidSegmentAppend {
		return shardRef{}, nd.s.dieMidAppend(sf, rec)
	}
	off, err := sf.af.append(rec)
	if err != nil {
		return shardRef{}, err
	}
	sf.dirty = true
	if nd.s.fsync == FsyncAlways {
		if err := sf.af.sync(); err != nil {
			return shardRef{}, err
		}
		sf.dirty = false
	}
	return shardRef{seg: nd.cur, off: off, dlen: uint32(len(data))}, nil
}

// commitPoint makes one durable decision: fsync the segments the record
// references, append the record to the WAL, fsync the WAL. Under
// FsyncNever both fsyncs are skipped. Caller holds s.mu and applies the
// in-memory flip only after commitPoint returns nil.
func (s *Store) commitPoint(rec []byte, segs []*segFile) error {
	if s.fsync != FsyncNever {
		for _, sf := range segs {
			if sf.dirty {
				if err := sf.af.sync(); err != nil {
					return err
				}
				sf.dirty = false
			}
		}
	}
	if s.crash == CrashBeforeWALSync {
		return s.dieBeforeWALSync(rec)
	}
	if _, err := s.wal.append(rec); err != nil {
		return err
	}
	if s.crash == CrashAfterWALSync {
		return s.dieAfterWALSync()
	}
	if s.fsync != FsyncNever {
		if err := s.wal.sync(); err != nil {
			return err
		}
	}
	return nil
}

// Nodes returns the node count.
func (s *Store) Nodes() int { return len(s.nodes) }

// Node returns one node's store view.
func (s *Store) Node(id int) store.NodeStore { return s.nodes[id] }

// Recovery reports what the opening WAL replay found.
func (s *Store) Recovery() RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// CommitStage promotes every shard staged under the token across all
// nodes: touched segments are fsynced, then one commit record carrying
// the epoch is appended and fsynced — the commit point — and only then
// does the in-memory index flip. An error means the stripe did not
// commit (after ErrCrashed, Open decides from what the log retained).
func (s *Store) CommitStage(stage string, epoch int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return 0, s.dead
	}
	type flip struct {
		nd  *diskNode
		key indexKey
		ref shardRef
	}
	var flips []flip
	var dirty []*segFile
	for _, nd := range s.nodes {
		for key, st := range nd.staged {
			if st.stage != stage {
				continue
			}
			flips = append(flips, flip{nd, key, st.ref})
			if sf, ok := nd.segs[st.ref.seg]; ok && sf.dirty {
				dirty = append(dirty, sf)
			}
		}
	}
	if len(flips) == 0 {
		return 0, nil
	}
	var r recBuf
	r.u8(walCommit)
	r.u64(uint64(epoch))
	r.str16(stage)
	if err := s.commitPoint(r.frame(), dirty); err != nil {
		return 0, err
	}
	for _, f := range flips {
		f.ref.epoch = int64(epoch)
		f.nd.commit(f.key, f.ref)
		delete(f.nd.staged, f.key)
	}
	return len(flips), nil
}

// AbortStage drops every shard staged under the token. The abort record
// is appended but never individually fsynced: a lost abort and a lost
// stage recover identically (the stage is discarded).
func (s *Store) AbortStage(stage string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return 0, s.dead
	}
	dropped := 0
	for _, nd := range s.nodes {
		for key, st := range nd.staged {
			if st.stage != stage {
				continue
			}
			delete(nd.staged, key)
			dropped++
		}
	}
	if dropped == 0 {
		return 0, nil
	}
	var r recBuf
	r.u8(walAbort)
	r.str16(stage)
	if _, err := s.wal.append(r.frame()); err != nil {
		return dropped, err
	}
	return dropped, nil
}

// Close releases every file handle. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil // crashed or already closed; handles are gone
	}
	var err error
	if s.fsync != FsyncNever {
		err = s.wal.sync()
	}
	s.closeFiles()
	s.dead = ErrClosed
	return err
}

// closeFiles closes every open handle (crash, Close, failed Open).
func (s *Store) closeFiles() {
	if s.wal != nil {
		s.wal.close()
	}
	for _, nd := range s.nodes {
		for _, sf := range nd.segs {
			sf.af.close()
		}
		nd.segs = make(map[uint32]*segFile)
	}
}

// --- per-node store.NodeStore implementation -------------------------

// Put commits a shard directly: body append, segment fsync, put record,
// WAL fsync (per policy) — a single-shard commit point — then the index
// flip.
func (nd *diskNode) Put(sh store.Shard) error {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	ref, err := nd.appendShard(sh.Key, sh.Data)
	if err != nil {
		return err
	}
	var r recBuf
	r.u8(walPut)
	writeRefTo(&r, nd.id, ref, sh.Key.Index, sh.Key.Chunk, sh.Epoch)
	r.str16(sh.Key.Object)
	sf := nd.segs[ref.seg]
	if err := s.commitPoint(r.frame(), []*segFile{sf}); err != nil {
		return err
	}
	ref.epoch = int64(sh.Epoch)
	nd.commit(keyOf(sh.Key), ref)
	return nil
}

func (nd *diskNode) Get(key store.ShardKey) (store.Shard, bool, error) {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return store.Shard{}, false, s.dead
	}
	ref, ok := nd.committed(keyOf(key))
	if !ok {
		return store.Shard{}, false, nil
	}
	data, err := nd.readBody(ref, len(key.Object))
	if err != nil {
		return store.Shard{}, false, err
	}
	return store.Shard{Key: key, Epoch: int(ref.epoch), Data: data}, true, nil
}

// readBody reads the bytes of one shard whose object id is klen bytes.
// Caller holds s.mu.
func (nd *diskNode) readBody(ref shardRef, klen int) ([]byte, error) {
	sf, err := nd.seg(ref.seg)
	if err != nil {
		return nil, err
	}
	data := make([]byte, ref.dlen)
	if _, err := sf.af.f.ReadAt(data, ref.bodyOff(klen)); err != nil {
		return nil, fmt.Errorf("diskstore: node %d seg %d: %w", nd.id, ref.seg, err)
	}
	return data, nil
}

// Delete removes the committed shard and any staged entry for the key.
// The delete record is a commit point (a forgotten delete would
// resurrect the shard at recovery); the body bytes stay in their
// segment as unreferenced garbage — archival segments are write-once,
// space reclaim is a compaction concern, not a correctness one.
func (nd *diskNode) Delete(key store.ShardKey) error {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	k := keyOf(key)
	_, committed := nd.committed(k)
	_, parked := nd.staged[k]
	if !committed && !parked {
		return nil
	}
	var r recBuf
	r.u8(walDelete)
	r.u32(uint32(nd.id))
	r.u32(uint32(key.Index))
	r.u32(uint32(key.Chunk))
	r.str16(key.Object)
	if err := s.commitPoint(r.frame(), nil); err != nil {
		return err
	}
	nd.uncommit(k)
	delete(nd.staged, k)
	return nil
}

// Stage parks a shard under the token: body append plus a stage record,
// neither individually fsynced under the default policy — durability
// comes at the commit point, which fsyncs in the right order.
func (nd *diskNode) Stage(stage string, sh store.Shard) error {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	ref, err := nd.appendShard(sh.Key, sh.Data)
	if err != nil {
		return err
	}
	var r recBuf
	r.u8(walStage)
	writeRefTo(&r, nd.id, ref, sh.Key.Index, sh.Key.Chunk, sh.Epoch)
	r.str16(sh.Key.Object)
	r.str16(stage)
	if _, err := s.wal.append(r.frame()); err != nil {
		return err
	}
	if s.fsync == FsyncAlways {
		if err := s.wal.sync(); err != nil {
			return err
		}
	}
	ref.epoch = int64(sh.Epoch)
	nd.staged[keyOf(sh.Key)] = stagedRef{stage: stage, ref: ref}
	return nil
}

func (nd *diskNode) StagedOwner(key store.ShardKey) (string, bool) {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := nd.staged[keyOf(key)]
	return st.stage, ok
}

func (nd *diskNode) StagedCount() int {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(nd.staged)
}

func (nd *diskNode) ShardLen(key store.ShardKey) (int, bool) {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := nd.committed(keyOf(key))
	return int(ref.dlen), ok
}

// Corrupt flips one bit of the shard's bytes in place on disk —
// injected rot that deliberately violates the append-only discipline,
// because that is what rot does. No fsync: the flip rides whatever
// durability the segment already had.
func (nd *diskNode) Corrupt(key store.ShardKey, bit int) bool {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return false
	}
	ref, ok := nd.committed(keyOf(key))
	if !ok || ref.dlen == 0 || bit < 0 || bit >= int(ref.dlen)*8 {
		return false
	}
	sf, err := nd.seg(ref.seg)
	if err != nil {
		return false
	}
	pos := ref.bodyOff(len(key.Object)) + int64(bit/8)
	var b [1]byte
	if _, err := sf.af.f.ReadAt(b[:], pos); err != nil {
		return false
	}
	b[0] ^= 1 << (bit % 8)
	_, err = sf.af.f.WriteAt(b[:], pos)
	return err == nil
}

func (nd *diskNode) Snapshot() ([]store.Shard, error) {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil, s.dead
	}
	out := []store.Shard{}
	var err error
	nd.eachCommitted(func(key indexKey, ref shardRef) {
		if err != nil {
			return
		}
		var data []byte
		if data, err = nd.readBody(ref, len(key.object)); err == nil {
			out = append(out, store.Shard{Key: key.shardKey(), Epoch: int(ref.epoch), Data: data})
		}
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		if a.Chunk != b.Chunk {
			return a.Chunk < b.Chunk
		}
		return a.Index < b.Index
	})
	return out, nil
}

func (nd *diskNode) StoredBytes() int64 {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	nd.eachCommitted(func(_ indexKey, ref shardRef) { total += int64(ref.dlen) })
	for _, st := range nd.staged {
		total += int64(st.ref.dlen)
	}
	return total
}

func (nd *diskNode) ObjectBytes(object string) int64 {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	nd.eachCommitted(func(key indexKey, ref shardRef) {
		if key.object == object {
			total += int64(ref.dlen)
		}
	})
	for key, st := range nd.staged {
		if key.object == object {
			total += int64(st.ref.dlen)
		}
	}
	return total
}
