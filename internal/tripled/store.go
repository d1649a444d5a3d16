// Package tripled implements the database substrate behind D4M
// associative arrays: a triple store with the "D4M schema" used by the
// paper's pipeline (Accumulo at the MIT SuperCloud) — the table is kept
// in both row-major and column-major (transpose) indexes so row and
// column lookups are both O(result), and incremental degree tables track
// per-row and per-column cell counts, the trick that makes "top-K
// heaviest sources" queries cheap at honeyfarm scale.
//
// The store is sharded across stripes keyed by row hash: each stripe
// has its own lock, row/column indexes, and degree tables, so writers
// on different rows never contend. Column queries and degree-table
// reads merge the per-stripe tables on demand. The store is in-memory
// with an append-only change log for persistence, and server.go exposes
// it over a line-oriented TCP protocol.
package tripled

import (
	"bufio"
	"fmt"
	"hash/maphash"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/assoc"
)

// DefaultStripes is the stripe count of NewStore, enough that a
// handful of ingest connections rarely collide on a lock.
const DefaultStripes = 16

// Cell is one (row, col, value) triple, the unit of batched mutation.
type Cell struct {
	Row, Col string
	Val      assoc.Value
}

// CellKey addresses a cell without its value, the unit of batched
// deletion.
type CellKey struct {
	Row, Col string
}

// stripe is one shard of the table: a full row index plus the
// transpose index restricted to this stripe's rows. Degree tables are
// not materialized — a row's degree is len(rows[row]) and a column's
// per-stripe degree is len(cols[col]), merged on demand — so mutations
// touch two maps, not four.
//
// keys is the stripe's ordered row index, maintained lazily: writers
// only log the rows they create (added) or empty (removed), and the
// next scan folds the log into a new sorted slice (index). A published
// keys slice is never written again, so a scan may keep a sub-slice of
// it after dropping the stripe lock.
type stripe struct {
	mu   sync.RWMutex
	rows map[string]map[string]assoc.Value // row -> col -> value
	cols map[string]map[string]assoc.Value // col -> row -> value (transpose)
	nnz  int

	// Written under mu (write) by put/del; folded under mu (read) plus
	// idxMu by index, so concurrent scans fold at most once.
	idxMu   sync.Mutex
	keys    []string // sorted row keys as of the last fold
	added   []string // rows created since the last fold (unsorted, may repeat)
	removed []string // rows emptied since the last fold (unsorted, may repeat)
}

// foldSlack bounds the unfolded log of a stripe that is written but
// never scanned: past len(keys)+foldSlack entries the writer folds it
// itself, so the log stays proportional to the index it updates and
// the fold work stays amortized O(1) per logged row.
const foldSlack = 4096

// Store is a concurrency-safe triple store sharded over row-hash
// stripes. The zero value is not usable; call NewStore.
type Store struct {
	stripes []*stripe
	seed    maphash.Seed
	version atomic.Uint64 // bumped on every mutation
}

// NewStore returns an empty store with DefaultStripes stripes.
func NewStore() *Store { return NewStoreStripes(DefaultStripes) }

// NewStoreStripes returns an empty store sharded over n stripes.
// n = 1 degenerates to a single-lock store, the serial oracle the
// concurrency tests diff against.
func NewStoreStripes(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{stripes: make([]*stripe, n), seed: maphash.MakeSeed()}
	for i := range s.stripes {
		s.stripes[i] = &stripe{
			rows: make(map[string]map[string]assoc.Value),
			cols: make(map[string]map[string]assoc.Value),
		}
	}
	return s
}

// Stripes returns the stripe count.
func (s *Store) Stripes() int { return len(s.stripes) }

func (s *Store) stripeFor(row string) *stripe {
	if len(s.stripes) == 1 {
		return s.stripes[0]
	}
	return s.stripes[maphash.String(s.seed, row)%uint64(len(s.stripes))]
}

// Put stores v at (row, col), replacing any existing value. Keys that
// would corrupt the line-oriented persistence formats (tab, newline,
// carriage return) are refused with a BadKeyError before any mutation.
func (s *Store) Put(row, col string, v assoc.Value) error {
	if err := ValidateKey(row); err != nil {
		return err
	}
	if err := ValidateKey(col); err != nil {
		return err
	}
	st := s.stripeFor(row)
	st.mu.Lock()
	st.put(row, col, v)
	st.mu.Unlock()
	s.version.Add(1)
	return nil
}

func (st *stripe) put(row, col string, v assoc.Value) {
	r, ok := st.rows[row]
	if !ok {
		r = make(map[string]assoc.Value)
		st.rows[row] = r
		st.added = append(st.added, row)
		if len(st.added)+len(st.removed) > len(st.keys)+foldSlack {
			st.index() // fold now: nobody may scan this stripe for a while
		}
	}
	if _, exists := r[col]; !exists {
		st.nnz++
	}
	r[col] = v

	c, ok := st.cols[col]
	if !ok {
		c = make(map[string]assoc.Value)
		st.cols[col] = c
	}
	c[row] = v
}

// PutBatch stores every cell. The stripe lock is held across runs of
// consecutive same-stripe cells (table iterations arrive row-major, so
// a whole row's cells share one acquisition) instead of once per cell.
// Key validation is all-or-nothing: a single bad key rejects the whole
// batch with a BadKeyError before anything is applied.
func (s *Store) PutBatch(cells []Cell) error {
	if len(cells) == 0 {
		return nil
	}
	for i := range cells {
		if err := ValidateKey(cells[i].Row); err != nil {
			return err
		}
		if err := ValidateKey(cells[i].Col); err != nil {
			return err
		}
	}
	var cur *stripe
	for i := range cells {
		st := s.stripeFor(cells[i].Row)
		if st != cur {
			if cur != nil {
				cur.mu.Unlock()
			}
			st.mu.Lock()
			cur = st
		}
		cur.put(cells[i].Row, cells[i].Col, cells[i].Val)
	}
	cur.mu.Unlock()
	s.version.Add(uint64(len(cells)))
	return nil
}

// Get returns the value at (row, col).
func (s *Store) Get(row, col string) (assoc.Value, bool) {
	st := s.stripeFor(row)
	st.mu.RLock()
	defer st.mu.RUnlock()
	v, ok := st.rows[row][col]
	return v, ok
}

// Delete removes the cell if present and reports whether it existed.
func (s *Store) Delete(row, col string) bool {
	st := s.stripeFor(row)
	st.mu.Lock()
	ok := st.del(row, col)
	st.mu.Unlock()
	if ok {
		s.version.Add(1)
	}
	return ok
}

func (st *stripe) del(row, col string) bool {
	r, ok := st.rows[row]
	if !ok {
		return false
	}
	if _, exists := r[col]; !exists {
		return false
	}
	delete(r, col)
	if len(r) == 0 {
		delete(st.rows, row)
		st.removed = append(st.removed, row)
	}
	c := st.cols[col]
	delete(c, row)
	if len(c) == 0 {
		delete(st.cols, col)
	}
	st.nnz--
	return true
}

// DeleteBatch removes every addressed cell, with the same run-wise
// stripe locking as PutBatch, and returns how many existed.
func (s *Store) DeleteBatch(keys []CellKey) int {
	if len(keys) == 0 {
		return 0
	}
	deleted := 0
	var cur *stripe
	for _, k := range keys {
		st := s.stripeFor(k.Row)
		if st != cur {
			if cur != nil {
				cur.mu.Unlock()
			}
			st.mu.Lock()
			cur = st
		}
		if cur.del(k.Row, k.Col) {
			deleted++
		}
	}
	cur.mu.Unlock()
	if deleted > 0 {
		s.version.Add(uint64(deleted))
	}
	return deleted
}

// NNZ returns the number of stored cells.
func (s *Store) NNZ() int {
	n := 0
	for _, st := range s.stripes {
		st.mu.RLock()
		n += st.nnz
		st.mu.RUnlock()
	}
	return n
}

// Row returns a copy of one row (nil if absent).
func (s *Store) Row(row string) map[string]assoc.Value {
	st := s.stripeFor(row)
	st.mu.RLock()
	defer st.mu.RUnlock()
	r, ok := st.rows[row]
	if !ok {
		return nil
	}
	out := make(map[string]assoc.Value, len(r))
	for c, v := range r {
		out[c] = v
	}
	return out
}

// Col returns a copy of one column, merged across the per-stripe
// transpose indexes (nil if absent everywhere).
func (s *Store) Col(col string) map[string]assoc.Value {
	var out map[string]assoc.Value
	for _, st := range s.stripes {
		st.mu.RLock()
		for r, v := range st.cols[col] {
			if out == nil {
				out = make(map[string]assoc.Value)
			}
			out[r] = v
		}
		st.mu.RUnlock()
	}
	return out
}

// RowRange returns the sorted row keys in [start, end). An empty end
// means unbounded.
func (s *Store) RowRange(start, end string) []string {
	rows, _ := s.ScanRows(start, end, 0, "")
	return rows
}

// index returns the stripe's sorted row keys, first folding in the
// rows created and emptied since the last call. The caller holds st.mu
// (read or write); idxMu serializes concurrent readers' folds. The
// fold writes a new slice, so a slice returned earlier stays valid.
func (st *stripe) index() []string {
	st.idxMu.Lock()
	defer st.idxMu.Unlock()
	if len(st.added) == 0 && len(st.removed) == 0 {
		return st.keys
	}
	// Net effect of the log against the current rows: a created row
	// may have emptied again, an emptied one may be back.
	add := st.added[:0]
	for _, r := range st.added {
		if _, ok := st.rows[r]; ok {
			add = append(add, r)
		}
	}
	gone := st.removed[:0]
	for _, r := range st.removed {
		if _, ok := st.rows[r]; !ok {
			gone = append(gone, r)
		}
	}
	sort.Strings(add)
	sort.Strings(gone)
	// Walk the edits in key order, copying the untouched runs of keys
	// between them wholesale: O(edits·log N) compares plus one copy.
	keys := st.keys
	out := make([]string, 0, len(keys)+len(add))
	for len(add) > 0 || len(gone) > 0 {
		var k string
		isAdd := len(gone) == 0 || (len(add) > 0 && add[0] < gone[0])
		if isAdd {
			k, add = add[0], add[1:]
		} else {
			k, gone = gone[0], gone[1:]
		}
		p := sort.SearchStrings(keys, k)
		out = append(out, keys[:p]...)
		keys = keys[p:]
		present := len(keys) > 0 && keys[0] == k
		switch {
		case isAdd && !present && (len(out) == 0 || out[len(out)-1] != k):
			out = append(out, k)
		case !isAdd && present:
			keys = keys[1:]
		}
	}
	st.keys = append(out, keys...)
	st.added, st.removed = nil, nil
	return st.keys
}

// stripeRange returns the stripe's sorted row keys r with r >= lo (or
// r > lo when excl), r < end (empty end = unbounded), no more than
// most of them (most <= 0 = all). The result aliases the immutable index.
func (st *stripe) stripeRange(lo string, excl bool, end string, most int) []string {
	st.mu.RLock()
	keys := st.index()
	st.mu.RUnlock()
	i := sort.SearchStrings(keys, lo)
	if excl && i < len(keys) && keys[i] == lo {
		i++
	}
	keys = keys[i:]
	if most > 0 && len(keys) > most {
		keys = keys[:most]
	}
	if end != "" {
		keys = keys[:sort.SearchStrings(keys, end)]
	}
	return keys
}

// mergeRuns merges sorted, pairwise-disjoint runs (rows live in
// exactly one stripe) into one sorted slice of no more than most
// keys (most <= 0 = all).
func mergeRuns(runs [][]string, most int) []string {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if most > 0 && total > most {
		total = most
	}
	out := make([]string, 0, total)
	for len(out) < total {
		best := -1
		for i, r := range runs {
			if len(r) > 0 && (best < 0 || r[0] < runs[best][0]) {
				best = i
			}
		}
		out = append(out, runs[best][0])
		runs[best] = runs[best][1:]
	}
	return out
}

// ScanRows is the paged form of RowRange: it returns up to limit sorted
// row keys r with r >= start, r < end (empty end = unbounded), and
// r > cursor when cursor is non-empty. A limit <= 0 means unlimited.
// The second result reports whether more rows remain past the page —
// pass the last returned key back as the cursor to continue. Each
// stripe's ordered index is binary-searched to the page start and
// contributes at most limit+1 keys, which are merged: a page costs
// O(stripes·log rows + stripes·limit), independent of how many rows
// the store holds outside the page.
func (s *Store) ScanRows(start, end string, limit int, cursor string) ([]string, bool) {
	lo, excl := start, false
	if cursor != "" && cursor >= start {
		lo, excl = cursor, true
	}
	most := 0 // per stripe: limit plus one key to decide the more flag
	if limit > 0 {
		most = limit + 1
	}
	runs := make([][]string, len(s.stripes))
	for i, st := range s.stripes {
		runs[i] = st.stripeRange(lo, excl, end, most)
	}
	out := mergeRuns(runs, most)
	if limit > 0 && len(out) > limit {
		return out[:limit], true
	}
	return out, false
}

// ScanCells returns every cell of up to limit rows of the paged row
// scan defined by ScanRows, sorted by (row, col), plus the more flag.
// It is the bulk-export query: one round trip per page instead of one
// ROW query per key. Each row's cells are read in place under its
// stripe's read lock, so a row is never torn. A row deleted between the
// page selection and its cell read simply drops from the page; if every
// selected row vanished that way, the scan advances past them rather
// than returning a spurious end-of-scan.
func (s *Store) ScanCells(start, end string, limit int, cursor string) ([]Cell, bool) {
	for {
		rows, more := s.ScanRows(start, end, limit, cursor)
		out := make([]Cell, 0, len(rows))
		for _, r := range rows {
			st := s.stripeFor(r)
			base := len(out)
			st.mu.RLock()
			for c, v := range st.rows[r] {
				out = append(out, Cell{Row: r, Col: c, Val: v})
			}
			st.mu.RUnlock()
			slices.SortFunc(out[base:], func(a, b Cell) int { return strings.Compare(a.Col, b.Col) })
		}
		if len(out) > 0 || !more {
			return out, more
		}
		cursor = rows[len(rows)-1] // whole page deleted concurrently: skip it
	}
}

// RowDegree returns the degree-table entry for a row (0 if absent).
func (s *Store) RowDegree(row string) int {
	st := s.stripeFor(row)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.rows[row])
}

// ColDegree returns the degree-table entry for a column, summed over
// the per-stripe transpose indexes.
func (s *Store) ColDegree(col string) int {
	d := 0
	for _, st := range s.stripes {
		st.mu.RLock()
		d += len(st.cols[col])
		st.mu.RUnlock()
	}
	return d
}

// TopRowsByDegree returns up to k (row, degree) pairs with the largest
// degrees, ties broken lexicographically — the degree-table query D4M
// deployments use to find the heaviest sources without scanning values.
// Rows live wholly inside one stripe, so the per-stripe degree tables
// are concatenated, not summed.
func (s *Store) TopRowsByDegree(k int) []RowDegree {
	var out []RowDegree
	for _, st := range s.stripes {
		st.mu.RLock()
		for r, cells := range st.rows {
			out = append(out, RowDegree{Row: r, Degree: len(cells)})
		}
		st.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Degree != out[j].Degree {
			return out[i].Degree > out[j].Degree
		}
		return out[i].Row < out[j].Row
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// RowDegree pairs a row key with its degree-table count.
type RowDegree struct {
	Row    string
	Degree int
}

// LoadAssoc bulk-inserts an associative array.
func (s *Store) LoadAssoc(a *assoc.Assoc) error {
	cells := make([]Cell, 0, a.NNZ())
	a.Iterate(func(row, col string, v assoc.Value) bool {
		cells = append(cells, Cell{Row: row, Col: col, Val: v})
		return true
	})
	return s.PutBatch(cells)
}

// rlockAll read-locks every stripe in index order, giving callers an
// atomic snapshot of the whole table; runlockAll releases them.
func (s *Store) rlockAll() {
	for _, st := range s.stripes {
		st.mu.RLock()
	}
}

func (s *Store) runlockAll() {
	for _, st := range s.stripes {
		st.mu.RUnlock()
	}
}

// ToAssoc exports the full table as an associative array. The export
// is an atomic snapshot: all stripes are held read-locked for its
// duration, so no concurrent mutation can tear it.
func (s *Store) ToAssoc() *assoc.Assoc {
	s.rlockAll()
	defer s.runlockAll()
	out := assoc.New()
	for _, st := range s.stripes {
		for row, r := range st.rows {
			for col, v := range r {
				out.Set(row, col, v)
			}
		}
	}
	return out
}

// Version returns the mutation counter, for cache invalidation.
func (s *Store) Version() uint64 { return s.version.Load() }

// WriteLog appends the entire table to w as replayable PUT records (the
// persistence format: one "P<TAB>row<TAB>col<TAB>type<TAB>value" line
// per cell, rows and then columns in sorted order). Like ToAssoc, the
// log is an atomic snapshot: every stripe stays read-locked until the
// last record is buffered, so the log always corresponds to a state
// the store actually held.
func (s *Store) WriteLog(w io.Writer) error {
	s.rlockAll()
	defer s.runlockAll()
	runs := make([][]string, len(s.stripes))
	for i, st := range s.stripes {
		runs[i] = st.index()
	}
	bw := bufio.NewWriter(w)
	var cols []string
	for _, row := range mergeRuns(runs, 0) {
		cells := s.stripeFor(row).rows[row]
		cols = cols[:0]
		for c := range cells {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, col := range cols {
			line := append(bw.AvailableBuffer(), "P\t"...)
			if _, err := bw.Write(appendCell(line, row, col, cells[col])); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReplayLog applies PUT records produced by WriteLog (or by a server
// session log) to the store.
func (s *Store) ReplayLog(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	batch := make([]Cell, 0, 1024)
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		parts := strings.SplitN(text, "\t", 5)
		if len(parts) != 5 || parts[0] != "P" {
			return fmt.Errorf("tripled: log line %d malformed", line)
		}
		v, err := parseValue(parts[3], parts[4])
		if err != nil {
			return fmt.Errorf("tripled: log line %d: %w", line, err)
		}
		batch = append(batch, Cell{Row: parts[1], Col: parts[2], Val: v})
		if len(batch) == cap(batch) {
			if err := s.PutBatch(batch); err != nil {
				return fmt.Errorf("tripled: log line <= %d: %w", line, err)
			}
			batch = batch[:0]
		}
	}
	if err := s.PutBatch(batch); err != nil {
		return fmt.Errorf("tripled: log line <= %d: %w", line, err)
	}
	return sc.Err()
}

func parseValue(marker, raw string) (assoc.Value, error) {
	switch marker {
	case "n":
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return assoc.Value{}, fmt.Errorf("bad number %q", raw)
		}
		return assoc.Num(f), nil
	case "s":
		return assoc.Str(raw), nil
	default:
		return assoc.Value{}, fmt.Errorf("unknown value marker %q", marker)
	}
}

// parseValueBytes is parseValue over a wire line's bytes; a numeric
// value is parsed without copying it into a string first.
func parseValueBytes(marker, raw []byte) (assoc.Value, error) {
	if string(marker) == "n" {
		f, err := strconv.ParseFloat(string(raw), 64)
		if err != nil {
			return assoc.Value{}, fmt.Errorf("bad number %q", raw)
		}
		return assoc.Num(f), nil
	}
	return parseValue(string(marker), string(raw))
}

// appendCell renders the "row<TAB>col<TAB><n|s><TAB>value\n" tail shared
// by CELLS response lines, WAL PUT records and WriteLog records; the
// value text is Value.String's.
func appendCell(b []byte, row, col string, v assoc.Value) []byte {
	b = append(b, row...)
	b = append(b, '\t')
	b = append(b, col...)
	b = append(b, '\t')
	b = appendValue(b, v)
	return append(b, '\n')
}
