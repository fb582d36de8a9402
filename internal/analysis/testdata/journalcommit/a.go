package dfs

// Fixture for the journalcommit analyzer: a miniature of the real dfs
// package's committed-state types. Mutations of fileMeta and namespace
// fields, of a namespace's files map and of the FileSystem.ns pointer
// that publishes one are only legal inside apply*-prefixed functions;
// the sidecar field is derived state and exempt everywhere.

import "sync/atomic"

type blockMeta struct {
	id       int64
	replicas []int
}

type fileMeta struct {
	size     int64
	blocks   []*blockMeta
	segments []int64
	version  int64
	sidecar  atomic.Pointer[[]byte]
}

type namespace struct {
	seq   int64
	files map[string]*fileMeta
}

type FileSystem struct {
	ns  atomic.Pointer[namespace]
	seq int64
}

// applyWrite is the blessed shape: mutation inside an apply* helper,
// published by storing the successor value.
func (fs *FileSystem) applyWrite(path string, meta *fileMeta) {
	meta.version = fs.seq
	old := fs.ns.Load()
	next := &namespace{seq: fs.seq, files: map[string]*fileMeta{path: meta}}
	for p, m := range old.files {
		if p != path {
			next.files[p] = m
		}
	}
	fs.ns.Store(next)
}

// applyDrop may also unbind paths, even in the published map itself.
func (fs *FileSystem) applyDrop(path string) {
	delete(fs.ns.Load().files, path)
}

// truncate is the bug shape: it edits installed state directly, so the
// journal never hears about the mutation and recovery replays the old
// size.
func (fs *FileSystem) truncate(path string, n int64) {
	meta := fs.ns.Load().files[path]
	meta.size = n                     // want `truncate mutates fileMeta.size outside the commit path`
	meta.blocks = meta.blocks[:1]     // want `truncate mutates fileMeta.blocks outside the commit path`
	meta.segments = meta.segments[:1] // want `truncate mutates fileMeta.segments outside the commit path`
}

// rebless bumps a write generation in place: same hazard.
func (fs *FileSystem) rebless(meta *fileMeta) {
	meta.version++ // want `rebless mutates fileMeta.version outside the commit path`
}

// graft swaps namespace internals around without a commit.
func (fs *FileSystem) graft(dst, src *namespace, path string) {
	dst.files = src.files               // want `graft mutates namespace.files outside the commit path`
	dst.seq = 0                         // want `graft mutates namespace.seq outside the commit path`
	dst.files[path] = nil               // want `graft mutates namespace.files outside the commit path`
	fs.ns.Load().files[path] = nil      // want `graft mutates namespace.files outside the commit path`
	delete(fs.ns.Load().files, path)    // want `graft mutates namespace.files outside the commit path`
	fs.ns = atomic.Pointer[namespace]{} // want `graft mutates FileSystem.ns outside the commit path`
}

// republish is the publish-shaped bug: a namespace swapped in behind the
// journal's back, by any of the atomic writes.
func (fs *FileSystem) republish(ns *namespace) {
	fs.ns.Store(ns)                        // want `republish mutates FileSystem.ns outside the commit path`
	fs.ns.Swap(ns)                         // want `republish mutates FileSystem.ns outside the commit path`
	fs.ns.CompareAndSwap(fs.ns.Load(), ns) // want `republish mutates FileSystem.ns outside the commit path`
}

// lookup only loads: reading published state is what it is for.
func (fs *FileSystem) lookup(path string) *fileMeta {
	return fs.ns.Load().files[path]
}

// compact rebuilds derived columnar state: sidecar is exempt by design.
func (fs *FileSystem) compact(meta *fileMeta, sc []byte) {
	meta.sidecar.Store(&sc)
}

// build constructs a FRESH meta — composite literals and locals are not
// mutations of installed state.
func build(n int64) *fileMeta {
	m := &fileMeta{size: n, segments: []int64{0}}
	local := namespace{seq: 1, files: map[string]*fileMeta{"/f": m}}
	_ = local
	return m
}

// blessed documents why a carve-out is legal.
func (fs *FileSystem) blessed(meta *fileMeta) {
	meta.version = 0 //earl:commit-ok fixture carve-out exercising suppression
}
