package ddi

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// DiskStore is the persistent tier: an append-only, virtual-time-
// partitioned segment engine. Puts land in a framed write-ahead log and a
// columnar memtable; once the memtable reaches the seal threshold it is
// sealed into immutable segment files — one per At partition — with
// per-column compression and a zone-map footer. Queries compile to a plan
// that prunes segments through their zone maps, binary-searches the At
// column of the candidates, and streams the k-way merge of segment and
// memtable cursors. It stands in for the paper's MySQL — the design
// property that matters (durable, slower than memory, queried on cache
// miss) is preserved — while scaling to fleet-sized histories.
type DiskStore struct {
	mu   sync.RWMutex
	dir  string
	path string // WAL: dir/ddi.log
	file *os.File
	w    *bufio.Writer

	nextID  uint64
	nextSeq uint64
	mem     *memtable
	segs    []*segment // ascending seq; slices are replaced, never edited

	sealRows int
	partDur  time.Duration
	scratch  []byte // WAL frame build buffer (Put is single-writer under mu)
}

// Seal policy defaults: rows per memtable before it seals, and the At
// width of one segment partition.
const (
	DefaultSealRows  = 65536
	DefaultPartition = 5 * time.Minute
)

// memtable buffers unsealed records in columnar form. Rows sit in append
// order and never move; IDs are assigned monotonically, so the id column
// is always sorted and point lookups binary-search it. ord keeps the
// (At, ID) order incrementally: nil while append order is already that
// order (in-order ingest pays nothing and reads alias the live arrays),
// built as the identity on the first late row, and from then on every
// append binary-search-inserts its row index under the write lock Put
// already holds. A read is then O(log M + rows in its window): it reads
// the columns through its window of ord, in place when it is done under
// the lock (Aggregate) and otherwise through a 4-byte-a-row copy of that
// window (Scan). Only a seal copies rows out through ord (permuteCols);
// nothing ever sorts the memtable. There is no cached sorted
// view on purpose: every Put would invalidate it, and readers holding
// only the read lock could not fill it.
type memtable struct {
	cols   segCols
	srcIdx map[Source]uint8
	ord    []uint32 // row indexes in (At, ID) order; nil = append order
}

func newMemtable() *memtable {
	return &memtable{
		cols:   segCols{payOff: []uint32{0}, idSorted: true},
		srcIdx: make(map[Source]uint8),
	}
}

// append adds r, copying the payload into the arena. A row landing
// behind the current head costs one binary search plus a shift of ord's
// tail — at most sealRows*4 bytes moved.
func (m *memtable) append(r *Record) error {
	c := &m.cols
	idx, ok := m.srcIdx[r.Source]
	if !ok {
		if len(c.dict) >= 256 {
			return fmt.Errorf("ddi: segment source dictionary overflow (max 256 distinct sources)")
		}
		idx = uint8(len(c.dict))
		c.dict = append(c.dict, r.Source)
		m.srcIdx[r.Source] = idx
	}
	n, at := len(c.at), int64(r.At)
	if n > 0 && c.id[n-1] > r.ID {
		c.idSorted = false
	}
	if m.ord == nil && n > 0 && (c.at[n-1] > at || (c.at[n-1] == at && c.id[n-1] > r.ID)) {
		m.ord = make([]uint32, n)
		for i := range m.ord {
			m.ord[i] = uint32(i)
		}
	}
	if m.ord != nil {
		// Upper bound, so equal (At, ID) keys keep arrival order.
		pos := sort.Search(n, func(i int) bool {
			j := m.ord[i]
			return c.at[j] > at || (c.at[j] == at && c.id[j] > r.ID)
		})
		m.ord = append(m.ord, 0)
		copy(m.ord[pos+1:], m.ord[pos:])
		m.ord[pos] = uint32(n)
	}
	c.id = append(c.id, r.ID)
	c.at = append(c.at, at)
	c.src = append(c.src, idx)
	c.x = append(c.x, r.X)
	c.y = append(c.y, r.Y)
	c.pay = append(c.pay, r.Payload...)
	c.payOff = append(c.payOff, uint32(len(c.pay)))
	return nil
}

// get materialises the row holding id, binary-searching the sorted id
// column.
func (m *memtable) get(id uint64) (Record, bool) {
	c := &m.cols
	i := sort.Search(len(c.id), func(i int) bool { return c.id[i] >= id })
	if i >= len(c.id) || c.id[i] != id {
		return Record{}, false
	}
	return c.record(i), true
}

// sorted snapshots every row in (At, ID) order, for the seal: an alias of
// the live arrays while append order is that order, else a copy through
// ord.
func (m *memtable) sorted() *segCols {
	if m.ord == nil {
		view := m.cols // value copy pins the slice lengths
		return &view
	}
	return permuteCols(&m.cols, m.ord)
}

// permuteCols materialises rows perm of src, in that order, as standalone
// columns. The dictionary is shared with src: it is append-only, so the
// pinned prefix never changes under the copy.
func permuteCols(src *segCols, perm []uint32) *segCols {
	n, payBytes := len(perm), 0
	for _, i := range perm {
		payBytes += int(src.payOff[i+1] - src.payOff[i])
	}
	out := &segCols{
		id: make([]uint64, n), at: make([]int64, n), src: make([]uint8, n),
		x: make([]float64, n), y: make([]float64, n),
		payOff: make([]uint32, n+1), pay: make([]byte, 0, payBytes),
		dict:     src.dict[:len(src.dict):len(src.dict)],
		idSorted: true,
	}
	for k, i := range perm {
		if k > 0 && out.id[k-1] > src.id[i] {
			out.idSorted = false
		}
		out.id[k] = src.id[i]
		out.at[k] = src.at[i]
		out.src[k] = src.src[i]
		out.x[k] = src.x[i]
		out.y[k] = src.y[i]
		out.pay = append(out.pay, src.payload(int(i))...)
		out.payOff[k+1] = uint32(len(out.pay))
	}
	return out
}

// sliceCols carves rows [lo, hi) of sorted cols into a standalone view:
// fixed columns alias src, while src indexes and payload offsets are
// rebuilt against a partition-local dictionary and blob.
func sliceCols(c *segCols, lo, hi int) *segCols {
	n := hi - lo
	out := &segCols{
		id: c.id[lo:hi:hi], at: c.at[lo:hi:hi],
		x: c.x[lo:hi:hi], y: c.y[lo:hi:hi],
		src:    make([]uint8, n),
		payOff: make([]uint32, n+1),
		pay:    c.pay[c.payOff[lo]:c.payOff[hi]:c.payOff[hi]],
	}
	var remap [256]int16
	for i := range remap {
		remap[i] = -1
	}
	base := c.payOff[lo]
	out.idSorted = true
	for i := 0; i < n; i++ {
		si := c.src[lo+i]
		if remap[si] < 0 {
			remap[si] = int16(len(out.dict))
			out.dict = append(out.dict, c.dict[si])
		}
		out.src[i] = uint8(remap[si])
		out.payOff[i] = c.payOff[lo+i] - base
		if i > 0 && out.id[i] < out.id[i-1] {
			out.idSorted = false
		}
	}
	out.payOff[n] = c.payOff[hi] - base
	return out
}

// OpenDiskStore opens (or creates) a store rooted at dir.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("ddi: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create store dir: %w", err)
	}
	s := &DiskStore{
		dir:      dir,
		path:     filepath.Join(dir, "ddi.log"),
		nextID:   1,
		nextSeq:  1,
		mem:      newMemtable(),
		sealRows: DefaultSealRows,
		partDur:  DefaultPartition,
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open store log: %w", err)
	}
	s.file = f
	s.w = bufio.NewWriterSize(f, 1<<20)
	return s, nil
}

// SetSealPolicy overrides the memtable seal threshold (rows) and the At
// partition width. Use before heavy ingest; zero values keep the current
// setting.
func (s *DiskStore) SetSealPolicy(rows int, partition time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rows > 0 {
		s.sealRows = rows
	}
	if partition > 0 {
		s.partDur = partition
	}
}

// load restores state at open: stray .tmp seal leftovers are removed,
// sealed segments contribute their zone-map trailers (columns stay on
// disk until a query needs them), and the WAL replays into the memtable.
// A crash between sealing and WAL truncation leaves sealed records in the
// log, so replay skips any frame whose ID a segment already covers. The
// WAL keeps the old log's fail-open contract: a torn final frame is
// dropped and truncated away; mid-file corruption refuses the open.
func (s *DiskStore) load() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("scan store dir: %w", err)
	}
	var maxSegID uint64
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".tmp" {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		seq, ok := parseSegSeq(name)
		if !ok {
			continue
		}
		path := filepath.Join(s.dir, name)
		tr, terr := readSegmentTrailer(path)
		if terr != nil {
			return terr
		}
		s.segs = append(s.segs, &segment{path: path, seq: seq, zm: tr.Zone})
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
		if tr.Zone.MaxID > maxSegID {
			maxSegID = tr.Zone.MaxID
		}
	}
	sort.Slice(s.segs, func(i, j int) bool { return s.segs[i].seq < s.segs[j].seq })
	if maxSegID >= s.nextID {
		s.nextID = maxSegID + 1
	}
	var replayErr error
	truncateAt, err := replayWAL(s.path, func(r *Record) {
		if replayErr != nil || r.ID <= maxSegID {
			return // already sealed before the crash
		}
		if aerr := s.mem.append(r); aerr != nil {
			replayErr = aerr
			return
		}
		if r.ID >= s.nextID {
			s.nextID = r.ID + 1
		}
	})
	if err != nil {
		return err
	}
	if replayErr != nil {
		return replayErr
	}
	if truncateAt >= 0 {
		// Cut the torn tail off so the next append starts on a clean
		// frame instead of gluing onto the partial one.
		if err := os.Truncate(s.path, truncateAt); err != nil {
			return fmt.Errorf("truncate torn store log: %w", err)
		}
	}
	return nil
}

// Put assigns an ID, persists the record to the WAL, and buffers it in
// the memtable, sealing when the memtable reaches the threshold.
func (s *DiskStore) Put(r Record) (uint64, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return 0, fmt.Errorf("ddi: store is closed")
	}
	r.ID = s.nextID
	s.nextID++
	s.scratch = appendWALFrame(s.scratch[:0], &r)
	if _, err := s.w.Write(s.scratch); err != nil {
		return 0, fmt.Errorf("append record: %w", err)
	}
	if err := s.mem.append(&r); err != nil {
		return 0, err
	}
	if s.mem.cols.rows() >= s.sealRows {
		if err := s.sealLocked(); err != nil {
			return 0, err
		}
	}
	return r.ID, nil
}

// Seal forces the memtable into sealed segments (one per At partition).
// A no-op when the memtable is empty.
func (s *DiskStore) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return fmt.Errorf("ddi: store is closed")
	}
	return s.sealLocked()
}

// sealLocked seals the memtable: rows are read out in (At, ID) order (the
// order index, not a sort), split into At partitions, and each partition
// becomes one immutable segment written tmp+rename. Only after every partition publishes does the store adopt
// the segments, reset the memtable, and truncate the WAL — a crash
// mid-seal leaves orphan segments that the next open dedupes by ID, and
// an error mid-seal removes this seal's files so in-memory state stays
// consistent.
func (s *DiskStore) sealLocked() error {
	if s.mem.cols.rows() == 0 {
		return nil
	}
	sorted := s.mem.sorted()
	var sealed []*segment
	fail := func(err error) error {
		for _, sg := range sealed {
			os.Remove(sg.path)
		}
		return err
	}
	for lo := 0; lo < sorted.rows(); {
		part := sorted.at[lo] / int64(s.partDur)
		hi := lo + 1
		for hi < sorted.rows() && sorted.at[hi]/int64(s.partDur) == part {
			hi++
		}
		seg, err := writeSegmentFile(s.dir, s.nextSeq+uint64(len(sealed)), sliceCols(sorted, lo, hi))
		if err != nil {
			return fail(err)
		}
		sealed = append(sealed, seg)
		lo = hi
	}
	// Publish: segments first, then drop the WAL coverage. The buffered
	// frames are all sealed now, so the unflushed buffer resets too.
	s.w.Reset(s.file)
	if err := os.Truncate(s.path, 0); err != nil {
		return fail(fmt.Errorf("truncate store log after seal: %w", err))
	}
	s.nextSeq += uint64(len(sealed))
	segs := make([]*segment, 0, len(s.segs)+len(sealed))
	segs = append(segs, s.segs...)
	s.segs = append(segs, sealed...)
	s.mem = newMemtable()
	return nil
}

// Get returns a record by ID, checking the memtable first, then sealed
// segments newest-first (zone maps bound each segment's ID range).
func (s *DiskStore) Get(id uint64) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r, ok := s.mem.get(id); ok {
		return r, true
	}
	for i := len(s.segs) - 1; i >= 0; i-- {
		sg := s.segs[i]
		if id < sg.zm.MinID || id > sg.zm.MaxID {
			continue
		}
		if row := sg.findID(id); row >= 0 {
			cols, _ := sg.load()
			return cols.record(row), true
		}
	}
	return Record{}, false
}

// Scan compiles q and returns a streaming iterator over matching records
// in (At, ID) order. The iterator stays valid after concurrent Puts,
// seals, and deletes: it reads immutable columns only. Check Err after
// the loop for plan-compilation failures.
func (s *DiskStore) Scan(q Query) *Iterator {
	it := new(Iterator)
	s.scan(it, q)
	return it
}

// scan compiles q into it for a read that goes on after the store lock is
// dropped; a failure lands in it.Err.
func (s *DiskStore) scan(it *Iterator, q Query) {
	s.mu.RLock()
	compilePlan(it, q, s.segs, s.mem, false)
	s.mu.RUnlock()
}

// Select returns matching records in time order. Records stream out of
// the plan's cursors; only survivors are copied into the result. When the
// plan knows the exact count, the result is allocated once at that size.
func (s *DiskStore) Select(q Query) []Record {
	it := borrowIterator()
	defer it.release()
	s.scan(it, q)
	var out []Record
	if n, ok := it.exactLen(); ok && n > 0 {
		out = make([]Record, 0, n)
	}
	for it.Next() {
		out = append(out, *it.Record())
	}
	return out
}

// Aggregate computes count/min/max/sum/mean of col over the records
// matching q (Limit is ignored), along with the plan stats that produced
// it. Segments fully covered by the query answer straight from their
// zone maps without touching columns. The fold runs under the read lock,
// so the memtable's order index is read in place.
func (s *DiskStore) Aggregate(q Query, col Column) (Agg, PlanStats, error) {
	it := borrowIterator()
	defer it.release()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := compilePlan(it, q, s.segs, s.mem, true); err != nil {
		return Agg{}, PlanStats{}, err
	}
	return it.aggregate(col), it.stats, nil
}

// Segments returns the zone maps of the sealed segments, oldest first.
func (s *DiskStore) Segments() []ZoneMap {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ZoneMap, len(s.segs))
	for i, sg := range s.segs {
		out[i] = sg.zm
	}
	return out
}

// DeleteBefore removes records captured strictly before t (used after
// cloud migration) and returns how many were removed. Segments wholly
// before t drop without being read; a segment straddling t is rewritten
// with only its surviving rows; memtable rows filter in memory and the
// WAL is rewritten to match.
func (s *DiskStore) DeleteBefore(t time.Duration) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return 0, fmt.Errorf("ddi: store is closed")
	}
	removed := 0
	keep := make([]*segment, 0, len(s.segs))
	for _, sg := range s.segs {
		switch {
		case sg.zm.MaxAt < t: // whole partition expired
			removed += sg.zm.Count
			os.Remove(sg.path)
		case sg.zm.MinAt >= t:
			keep = append(keep, sg)
		default: // straddles t: rewrite survivors
			cols, err := sg.load()
			if err != nil {
				return removed, err
			}
			lo := sort.Search(cols.rows(), func(i int) bool { return cols.at[i] >= int64(t) })
			removed += lo
			nsg, err := writeSegmentFile(s.dir, s.nextSeq, sliceCols(cols, lo, cols.rows()))
			if err != nil {
				return removed, err
			}
			s.nextSeq++
			os.Remove(sg.path)
			keep = append(keep, nsg)
		}
	}
	s.segs = keep
	// Memtable: re-append the survivors into a fresh memtable (append
	// order, so ids stay sorted) and rewrite the WAL to match.
	c := &s.mem.cols
	dropped := 0
	for _, at := range c.at {
		if at < int64(t) {
			dropped++
		}
	}
	if dropped > 0 {
		removed += dropped
		nm := newMemtable()
		for i, at := range c.at {
			if at < int64(t) {
				continue
			}
			r := c.record(i)
			if err := nm.append(&r); err != nil {
				return removed, err
			}
		}
		s.mem = nm
		if err := s.rewriteWALLocked(); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// rewriteWALLocked rebuilds the WAL from the memtable via tmp+rename.
func (s *DiskStore) rewriteWALLocked() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.file.Close(); err != nil {
		return err
	}
	var buf []byte
	c := &s.mem.cols
	for i := 0; i < c.rows(); i++ {
		r := c.record(i)
		buf = appendWALFrame(buf, &r)
	}
	tmp := s.path + ".wal.tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("rewrite store log: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return fmt.Errorf("swap store log: %w", err)
	}
	nf, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("reopen store log: %w", err)
	}
	s.file = nf
	s.w = bufio.NewWriterSize(nf, 1<<20)
	return nil
}

// Compact merges partitions that have accumulated multiple small
// segments (repeated seals, DeleteBefore rewrites) into one segment per
// partition, and reports how many segments were merged away. Partitions
// are merged in ascending order, so the same history always hands out the
// same segment sequence numbers.
func (s *DiskStore) Compact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return 0, fmt.Errorf("ddi: store is closed")
	}
	groups := make(map[int64][]*segment)
	var parts []int64
	for _, sg := range s.segs {
		part := int64(sg.zm.MinAt) / int64(s.partDur)
		if _, ok := groups[part]; !ok {
			parts = append(parts, part)
		}
		groups[part] = append(groups[part], sg)
	}
	slices.Sort(parts)
	mergedAway := 0
	replaced := make(map[*segment]*segment) // old -> new (nil = dropped)
	for _, part := range parts {
		group := groups[part]
		if len(group) < 2 {
			continue
		}
		it := new(Iterator)
		for _, sg := range group {
			cols, err := sg.load()
			if err != nil {
				return mergedAway, err
			}
			it.addCursor(Query{}, cols, &sg.zm, nil)
		}
		it.initHeap()
		merged := newMemtable()
		for it.Next() {
			if err := merged.append(it.Record()); err != nil {
				return mergedAway, err
			}
		}
		// The merge arrives in (At, ID) order, so this is the alias path.
		nsg, err := writeSegmentFile(s.dir, s.nextSeq, merged.sorted())
		if err != nil {
			return mergedAway, err
		}
		s.nextSeq++
		for i, sg := range group {
			os.Remove(sg.path)
			if i == 0 {
				replaced[sg] = nsg
			} else {
				replaced[sg] = nil
			}
		}
		mergedAway += len(group) - 1
	}
	if mergedAway > 0 {
		keep := make([]*segment, 0, len(s.segs)-mergedAway)
		for _, sg := range s.segs {
			if nsg, ok := replaced[sg]; ok {
				if nsg != nil {
					keep = append(keep, nsg)
				}
				continue
			}
			keep = append(keep, sg)
		}
		sort.Slice(keep, func(i, j int) bool { return keep[i].seq < keep[j].seq })
		s.segs = keep
	}
	return mergedAway, nil
}

// Count returns the number of stored records.
func (s *DiskStore) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.mem.cols.rows()
	for _, sg := range s.segs {
		n += sg.zm.Count
	}
	return n
}

// Flush persists buffered WAL writes.
func (s *DiskStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	return s.w.Flush()
}

// Close flushes and releases the WAL file. The memtable is not sealed:
// the WAL replays it on the next open.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	err := s.file.Close()
	s.w, s.file = nil, nil
	return err
}
