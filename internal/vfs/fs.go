package vfs

import "sort"

// File is an open file description — a system open-file-table entry
// (Fig. 5's middle table). Every open() creates a fresh entry even for the
// same path, and flock locks belong to this entry, not to the fd or the
// process: exactly the sharing structure the channel requires.
type File struct {
	id     uint64
	inode  *Inode
	offset int64
	write  bool
	refs   int // descriptors referring to this entry (dup/fork)
	held   LockKind
	closed bool
}

// ID returns the file-table entry id.
func (f *File) ID() uint64 { return f.id }

// Inode returns the underlying i-node.
func (f *File) Inode() *Inode { return f.inode }

// Held returns the flock kind currently held through this entry.
func (f *File) Held() LockKind { return f.held }

// Writable reports whether the entry was opened for writing.
func (f *File) Writable() bool { return f.write }

// WaiterName implements a diagnostic label.
func (f *File) WaiterName() string { return f.inode.path }

// FS is the system-wide VFS state: the i-node table and the open-file
// table, plus the filesystem journal's dirty-page ledger. The journal is
// deliberately shared across every file (ext4's single JBD2 journal):
// fsync on one file writes back all pending pages, which is the
// cross-file interference the WriteSync covert channel turns into a
// signal (Sync+Sync, arXiv:2309.07657; Write+Sync, arXiv:2312.11501).
type FS struct {
	nextIno  uint64
	nextFile uint64
	inodes   map[string]*Inode
	files    map[uint64]*File

	dirtyPages  int
	dirtyInodes []*Inode // inodes with dirty > 0, cleared on SyncJournal

	// retiredInodes/retiredFiles recycle structures across trials on
	// pooled simulated machines: Retire moves the tables' contents here,
	// and Create/Open pop + reinit instead of allocating.
	retiredInodes []*Inode
	retiredFiles  []*File
}

// retiredCap bounds the per-table free pools. A covert-channel trial
// touches a handful of files; surplus structures are dropped.
const retiredCap = 8

// NewFS creates an empty filesystem.
func NewFS() *FS {
	return &FS{
		inodes: make(map[string]*Inode),
		files:  make(map[uint64]*File),
	}
}

// Reset empties the i-node and open-file tables in place, retaining map
// capacity, and restarts numbering. Retired structures are dropped too: a
// Reset filesystem holds nothing.
func (fs *FS) Reset() {
	fs.nextIno, fs.nextFile = 0, 0
	clear(fs.inodes)
	clear(fs.files)
	fs.dirtyPages = 0
	clear(fs.dirtyInodes)
	fs.dirtyInodes = fs.dirtyInodes[:0]
	clear(fs.retiredInodes)
	fs.retiredInodes = fs.retiredInodes[:0]
	clear(fs.retiredFiles)
	fs.retiredFiles = fs.retiredFiles[:0]
}

// Retire empties both tables like Reset but keeps the evicted structures
// in free pools for the next trial's Create/Open to reuse. The filesystem
// is semantically indistinguishable from a fresh one afterwards: lookups
// miss, creates succeed, and numbering restarts at the beginning.
func (fs *FS) Retire() {
	//lint:allow detnondet retired structures are fully reinitialized on reuse; the pooling conformance suite pins output as byte-identical either way
	for path, in := range fs.inodes {
		if len(fs.retiredInodes) < retiredCap {
			fs.retiredInodes = append(fs.retiredInodes, in)
		}
		delete(fs.inodes, path)
	}
	//lint:allow detnondet same as the i-node loop above: reuse identity is unobservable
	for id, f := range fs.files {
		if len(fs.retiredFiles) < retiredCap {
			fs.retiredFiles = append(fs.retiredFiles, f)
		}
		delete(fs.files, id)
	}
	fs.nextIno, fs.nextFile = 0, 0
	fs.dirtyPages = 0
	clear(fs.dirtyInodes)
	fs.dirtyInodes = fs.dirtyInodes[:0]
}

// Create makes a new file. readOnly files reject writable opens —
// the paper sets the shared file read-only so the channel cannot be
// trivialised into direct data writes; mandatory enables mandatory
// locking.
func (fs *FS) Create(path string, size int64, readOnly, mandatory bool) (*Inode, error) {
	if _, ok := fs.inodes[path]; ok {
		return nil, ErrExist
	}
	fs.nextIno++
	var in *Inode
	if n := len(fs.retiredInodes); n > 0 {
		in = fs.retiredInodes[n-1]
		fs.retiredInodes[n-1] = nil
		fs.retiredInodes = fs.retiredInodes[:n-1]
		in.reinit(fs.nextIno, path, size, readOnly, mandatory)
	} else {
		in = &Inode{
			ino:       fs.nextIno,
			path:      path,
			size:      size,
			readOnly:  readOnly,
			mandatory: mandatory,
			fair:      true,
			shared:    make(map[*File]bool),
		}
	}
	fs.inodes[path] = in
	return in, nil
}

// Lookup resolves a path to its i-node.
func (fs *FS) Lookup(path string) (*Inode, error) {
	in, ok := fs.inodes[path]
	if !ok {
		return nil, ErrNotExist
	}
	return in, nil
}

// Open creates a new open file description for path. Opening a read-only
// file for writing fails with ErrReadOnly.
func (fs *FS) Open(path string, write bool) (*File, error) {
	in, err := fs.Lookup(path)
	if err != nil {
		return nil, err
	}
	if write && in.readOnly {
		return nil, ErrReadOnly
	}
	fs.nextFile++
	var f *File
	if n := len(fs.retiredFiles); n > 0 {
		f = fs.retiredFiles[n-1]
		fs.retiredFiles[n-1] = nil
		fs.retiredFiles = fs.retiredFiles[:n-1]
		*f = File{id: fs.nextFile, inode: in, write: write, refs: 1}
	} else {
		f = &File{id: fs.nextFile, inode: in, write: write, refs: 1}
	}
	fs.files[f.id] = f
	in.links++
	return f, nil
}

// Dup adds a descriptor reference to the open file description (dup/fork
// share the entry, hence also the flock lock).
func (fs *FS) Dup(f *File) *File {
	f.refs++
	return f
}

// Close drops one descriptor reference. When the last reference goes, the
// entry leaves the file table and any flock held through it is released;
// the returned waiters must be woken.
func (fs *FS) Close(f *File) ([]Waiter, error) {
	if f.closed {
		return nil, ErrClosed
	}
	f.refs--
	if f.refs > 0 {
		return nil, nil
	}
	f.closed = true
	delete(fs.files, f.id)
	f.inode.links--
	f.inode.CancelFlock(f)
	if f.held != LockNone {
		return f.inode.Unlock(f), nil
	}
	return nil, nil
}

// MarkDirty records pages of in as dirtied in the page cache and pending
// in the journal. Pages are abstract units here; only their count shapes
// the writeback cost.
//
//mes:allocfree
func (fs *FS) MarkDirty(in *Inode, pages int) {
	if pages <= 0 {
		return
	}
	if in.dirty == 0 {
		fs.dirtyInodes = append(fs.dirtyInodes, in)
	}
	in.dirty += pages
	fs.dirtyPages += pages
}

// DirtyPages reports the journal's pending writeback backlog.
func (fs *FS) DirtyPages() int { return fs.dirtyPages }

// SyncJournal commits the whole journal: every dirty page in the
// filesystem — not just the fsynced file's — is written back, and the
// number of pages flushed is returned so the OS layer can charge the
// per-page cost. The dirty-inode list is reused across commits, so the
// per-bit fsync path does not allocate.
//
//mes:allocfree
func (fs *FS) SyncJournal() int {
	n := fs.dirtyPages
	if n == 0 {
		return 0
	}
	for i, in := range fs.dirtyInodes {
		in.dirty = 0
		fs.dirtyInodes[i] = nil
	}
	fs.dirtyInodes = fs.dirtyInodes[:0]
	fs.dirtyPages = 0
	return n
}

// OpenFiles reports the size of the system open-file table.
func (fs *FS) OpenFiles() int { return len(fs.files) }

// Inodes reports the number of i-nodes.
func (fs *FS) Inodes() int { return len(fs.inodes) }

// Paths returns all file paths in sorted order.
func (fs *FS) Paths() []string {
	out := make([]string, 0, len(fs.inodes))
	//lint:allow detnondet the paths are sorted before being returned
	for p := range fs.inodes {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// FDTable is a per-process file-descriptor table (Fig. 5's left column):
// fd numbers mapping to open-file-table entries. The table is a dense
// slice — descriptors are sequential from 3, so resolution is an index
// computation instead of a map lookup (fd resolution sits on every flock
// and write/fsync syscall).
type FDTable struct {
	files []*File // index fd-3; nil marks a removed descriptor
	open  int
}

// NewFDTable creates an empty descriptor table. Like a fresh process, fd
// numbering starts at 3 (0-2 being the standard streams); removed
// descriptors are never reused.
func NewFDTable() *FDTable {
	return &FDTable{}
}

// Reset empties the table in place and restarts descriptor numbering, as
// if the owning process were freshly created.
func (t *FDTable) Reset() {
	for i := range t.files {
		t.files[i] = nil
	}
	t.files = t.files[:0]
	t.open = 0
}

// Install assigns the lowest free descriptor to f.
func (t *FDTable) Install(f *File) int {
	t.files = append(t.files, f)
	t.open++
	return len(t.files) + 2
}

// Get resolves a descriptor.
func (t *FDTable) Get(fd int) (*File, bool) {
	i := fd - 3
	if i < 0 || i >= len(t.files) || t.files[i] == nil {
		return nil, false
	}
	return t.files[i], true
}

// Remove drops the descriptor without touching the file table (the caller
// pairs it with FS.Close).
func (t *FDTable) Remove(fd int) (*File, bool) {
	i := fd - 3
	if i < 0 || i >= len(t.files) || t.files[i] == nil {
		return nil, false
	}
	f := t.files[i]
	t.files[i] = nil
	t.open--
	return f, true
}

// Len reports the number of open descriptors.
func (t *FDTable) Len() int { return t.open }
