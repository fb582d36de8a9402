package dfs

// Fixture for the journalcommit analyzer: a miniature of the real dfs
// package's committed-state types. Mutations of fileMeta/fileChain/
// chainVersion fields and of the FileSystem.files map — which, like a
// chain's version list, is published through an atomic pointer — are
// only legal inside apply*-prefixed functions; the sidecar field is
// derived state and exempt everywhere.

import "sync/atomic"

type blockMeta struct {
	id       int64
	replicas atomic.Pointer[[]int]
}

type fileMeta struct {
	size     int64
	blocks   []*blockMeta
	segments []int64
	version  int64
	sidecar  atomic.Pointer[[]byte]
}

type chainVersion struct {
	seq  int64
	meta *fileMeta
}

type fileChain struct {
	versions atomic.Pointer[[]chainVersion]
}

type FileSystem struct {
	files atomic.Pointer[map[string]*fileChain]
	seq   int64
}

// applyWrite is the blessed shape: mutation inside an apply* helper,
// published by storing the successor value.
func (fs *FileSystem) applyWrite(path string, meta *fileMeta) {
	meta.version = fs.seq
	files := *fs.files.Load()
	ch, ok := files[path]
	if !ok {
		ch = &fileChain{}
	}
	var versions []chainVersion
	if old := ch.versions.Load(); old != nil {
		versions = append(versions, *old...)
	}
	versions = append(versions, chainVersion{seq: fs.seq, meta: meta})
	ch.versions.Store(&versions)
	if !ok {
		next := map[string]*fileChain{path: ch}
		for p, c := range files {
			next[p] = c
		}
		fs.files.Store(&next)
	}
}

// applyPrune may also drop chains, even in the published map itself.
func (fs *FileSystem) applyPrune(path string) {
	delete(*fs.files.Load(), path)
}

// truncate is the bug shape: it edits installed state directly, so the
// journal never hears about the mutation and recovery replays the old
// size.
func (fs *FileSystem) truncate(path string, n int64) {
	ch := (*fs.files.Load())[path]
	versions := *ch.versions.Load()
	v := &versions[len(versions)-1]
	v.meta.size = n                       // want `truncate mutates fileMeta.size outside the commit path`
	v.meta.blocks = v.meta.blocks[:1]     // want `truncate mutates fileMeta.blocks outside the commit path`
	v.meta.segments = v.meta.segments[:1] // want `truncate mutates fileMeta.segments outside the commit path`
}

// rebless bumps a write generation in place: same hazard.
func (fs *FileSystem) rebless(meta *fileMeta) {
	meta.version++ // want `rebless mutates fileMeta.version outside the commit path`
}

// graft swaps chain internals around without a commit.
func (fs *FileSystem) graft(dst, src *fileChain, path string) {
	dst.versions.Store(src.versions.Load())         // want `graft mutates fileChain.versions outside the commit path`
	(*dst.versions.Load())[0].meta = nil            // want `graft mutates chainVersion.meta outside the commit path`
	(*dst.versions.Load())[0].seq = 0               // want `graft mutates chainVersion.seq outside the commit path`
	(*fs.files.Load())[path] = dst                  // want `graft mutates the FileSystem.files chain map outside the commit path`
	delete(*fs.files.Load(), path)                  // want `graft mutates the FileSystem.files chain map outside the commit path`
	dst.versions = atomic.Pointer[[]chainVersion]{} // want `graft mutates fileChain.versions outside the commit path`
}

// republish is the publish-shaped bug: a namespace or a version list
// swapped in behind the journal's back, by any of the atomic writes.
func (fs *FileSystem) republish(ch *fileChain, files *map[string]*fileChain, versions *[]chainVersion) {
	fs.files.Store(files)                           // want `republish mutates the FileSystem.files chain map outside the commit path`
	fs.files.Swap(files)                            // want `republish mutates the FileSystem.files chain map outside the commit path`
	fs.files.CompareAndSwap(fs.files.Load(), files) // want `republish mutates the FileSystem.files chain map outside the commit path`
	ch.versions.Swap(versions)                      // want `republish mutates fileChain.versions outside the commit path`
	ch.versions.CompareAndSwap(versions, versions)  // want `republish mutates fileChain.versions outside the commit path`
}

// lookup only loads: reading published state is what it is for.
func (fs *FileSystem) lookup(path string) *fileMeta {
	ch, ok := (*fs.files.Load())[path]
	if !ok {
		return nil
	}
	versions := *ch.versions.Load()
	return versions[len(versions)-1].meta
}

// compact rebuilds derived columnar state: sidecar is exempt by design,
// and so is a block's replica list — placement is physical, unjournaled.
func (fs *FileSystem) compact(meta *fileMeta, sc []byte, replicas []int) {
	meta.sidecar.Store(&sc)
	meta.blocks[0].replicas.Store(&replicas)
}

// build constructs a FRESH meta — composite literals and locals are not
// mutations of installed state.
func build(n int64) *fileMeta {
	m := &fileMeta{size: n, segments: []int64{0}}
	local := chainVersion{seq: 1, meta: m}
	_ = local
	return m
}

// blessed documents why a carve-out is legal.
func (fs *FileSystem) blessed(meta *fileMeta) {
	meta.version = 0 //earl:commit-ok fixture carve-out exercising suppression
}
