package main

import (
	"hash/crc32"
	"math/rand/v2"

	"repro/internal/fsapi"
)

// opKind is one fsapi.Client call the generators issue. Its name is the
// client.<op> prefix of the per-layer metrics.
type opKind uint8

const (
	kOpen opKind = iota
	kClose
	kRead
	kWrite
	kStat
	kMkdir
	kUnlink
	kRename
	kReaddir
	kFsync
	numKinds
)

var kindNames = [numKinds]string{"open", "close", "read", "write", "stat", "mkdir", "unlink", "rename", "readdir", "fsync"}

func (k opKind) String() string { return kindNames[k] }

// op is one generated call together with the result it must produce. Reads
// and writes go through the descriptor of the worker's last open.
type op struct {
	kind  opKind
	flags int32 // open flags; mkdir: 1 = distributed
	path  string
	path2 string // rename target
	off   int64  // read/write offset
	n     int32  // bytes to read or write
	src   int32  // write data: pool[src:src+n]
	want  int64  // read: byte count; stat: size; readdir: entry count
	sum   uint32 // read: CRC-32C of the bytes; readdir: name-set hash
}

// phase is one op list per worker, run concurrently and joined.
type phase [][]op

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// nameHash is one entry name's term of a directory's name-set hash.
func nameHash(name string) uint32 { return crc32.Checksum([]byte(name), castagnoli)*2654435761 + 1 }

// nameSetHash is an order-independent hash of a directory's entry names.
func nameSetHash(names []string) uint32 {
	var h uint32
	for _, n := range names {
		h += nameHash(n)
	}
	return h
}

// poolBytes is the size of the write-data pool every write slices from.
const poolBytes = 2 << 20

// file is the expected state of one file a worker owns.
type file struct {
	path string
	data []byte // nil for metadata-only workloads (size 0)
	slot int    // index in the owner's live list
}

// liveSet is a worker's live files, with O(1) uniform pick and removal.
type liveSet struct{ files []*file }

func (s *liveSet) add(f *file) {
	f.slot = len(s.files)
	s.files = append(s.files, f)
}

func (s *liveSet) remove(f *file) {
	last := s.files[len(s.files)-1]
	s.files[f.slot] = last
	last.slot = f.slot
	s.files = s.files[:len(s.files)-1]
}

func (s *liveSet) pick(r *rand.Rand) *file { return s.files[r.IntN(len(s.files))] }

// gen is the seeded state shared by every workload: one random stream per
// worker (so a worker's ops do not depend on how many the others drew) and
// the write-data pool.
type gen struct {
	rng  []*rand.Rand
	pool []byte
}

func newGen(seed uint64, workers int) *gen {
	g := &gen{rng: make([]*rand.Rand, workers), pool: make([]byte, poolBytes)}
	for w := range g.rng {
		g.rng[w] = rand.New(rand.NewPCG(seed, uint64(w)+1))
	}
	pr := rand.New(rand.NewPCG(seed, 0))
	for i := 0; i+8 <= len(g.pool); i += 8 {
		v := pr.Uint64()
		for j := 0; j < 8; j++ {
			g.pool[i+j] = byte(v >> (8 * j))
		}
	}
	return g
}

// emitter appends ops to one worker's list and keeps the expected state in
// step with them.
type emitter struct {
	g   *gen
	r   *rand.Rand
	ops []op
}

func (g *gen) writePool() []byte { return g.pool }

func (g *gen) emitter(w int) *emitter { return &emitter{g: g, r: g.rng[w]} }

func (e *emitter) mkdir(path string, distributed bool) {
	var fl int32
	if distributed {
		fl = 1
	}
	e.ops = append(e.ops, op{kind: kMkdir, path: path, flags: fl})
}

func (e *emitter) open(path string, flags int) {
	e.ops = append(e.ops, op{kind: kOpen, path: path, flags: int32(flags)})
}

func (e *emitter) close() { e.ops = append(e.ops, op{kind: kClose}) }

func (e *emitter) fsync() { e.ops = append(e.ops, op{kind: kFsync}) }

func (e *emitter) stat(f *file) {
	e.ops = append(e.ops, op{kind: kStat, path: f.path, want: int64(len(f.data))})
}

func (e *emitter) unlink(f *file) { e.ops = append(e.ops, op{kind: kUnlink, path: f.path}) }

func (e *emitter) rename(f *file, to string) {
	e.ops = append(e.ops, op{kind: kRename, path: f.path, path2: to})
	f.path = to
}

func (e *emitter) readdir(path string, names []string) {
	e.ops = append(e.ops, op{kind: kReaddir, path: path, want: int64(len(names)), sum: nameSetHash(names)})
}

// write stores n pool bytes at off in the open file f, extending it if the
// write runs past the end.
func (e *emitter) write(f *file, off int64, n int) {
	src := e.r.IntN(poolBytes - n + 1)
	if end := int(off) + n; end > len(f.data) {
		f.data = append(f.data, make([]byte, end-len(f.data))...)
	}
	copy(f.data[off:], e.g.pool[src:src+n])
	e.ops = append(e.ops, op{kind: kWrite, off: off, n: int32(n), src: int32(src)})
}

// read reads up to n bytes at off from the open file f.
func (e *emitter) read(f *file, off int64, n int) {
	got := 0
	if off < int64(len(f.data)) {
		got = min(n, len(f.data)-int(off))
	}
	var sum uint32
	if got > 0 {
		sum = checksum(f.data[off : int(off)+got])
	}
	e.ops = append(e.ops, op{kind: kRead, off: off, n: int32(n), want: int64(got), sum: sum})
}

// readAll reads the whole open file f in chunks of at most chunk bytes.
func (e *emitter) readAll(f *file, chunk int) {
	for off := 0; off < len(f.data); off += chunk {
		e.read(f, int64(off), chunk)
	}
}

// createFile creates f with the given size (pool bytes, written in chunks of
// at most chunk), optionally fsyncing before the close.
func (e *emitter) createFile(f *file, size, chunk int, sync bool) {
	e.open(f.path, fsapi.OCreate|fsapi.OExcl|fsapi.ORdWr)
	for off := 0; off < size; off += chunk {
		e.write(f, int64(off), min(chunk, size-off))
	}
	if sync {
		e.fsync()
	}
	e.close()
}
