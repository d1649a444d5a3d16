package tripled

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/assoc"
)

// scanRowsOracle is the heap-selection ScanRows the ordered row index
// replaced: it walks every row of every stripe and keeps the limit
// smallest matches in a bounded max-heap. It reads the row maps only,
// never the index, so it is an independent check of the index fold.
func scanRowsOracle(s *Store, start, end string, limit int, cursor string) ([]string, bool) {
	var out []string
	matched := 0
	for _, st := range s.stripes {
		st.mu.RLock()
		for r := range st.rows {
			if r < start || (end != "" && r >= end) || (cursor != "" && r <= cursor) {
				continue
			}
			matched++
			if limit <= 0 || len(out) < limit {
				out = append(out, r)
				heapUp(out)
			} else if r < out[0] {
				out[0] = r
				heapDown(out)
			}
		}
		st.mu.RUnlock()
	}
	sort.Strings(out)
	return out, limit > 0 && matched > limit
}

// heapUp restores the string max-heap property after appending to h.
func heapUp(h []string) {
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// heapDown restores the max-heap property after replacing h[0].
func heapDown(h []string) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && h[l] > h[big] {
			big = l
		}
		if r < len(h) && h[r] > h[big] {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// scanCellsOracle is the map-copying ScanCells over the oracle row
// selection (single-threaded use only: no concurrent-delete retry).
func scanCellsOracle(s *Store, start, end string, limit int, cursor string) ([]Cell, bool) {
	rows, more := scanRowsOracle(s, start, end, limit, cursor)
	var out []Cell
	for _, r := range rows {
		cells := s.Row(r)
		cols := make([]string, 0, len(cells))
		for c := range cells {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, c := range cols {
			out = append(out, Cell{Row: r, Col: c, Val: cells[c]})
		}
	}
	return out, more
}

// checkScanAgainstOracle compares one ScanRows and ScanCells query
// with the oracles.
func checkScanAgainstOracle(t *testing.T, s *Store, start, end string, limit int, cursor string) {
	t.Helper()
	rows, more := s.ScanRows(start, end, limit, cursor)
	wantRows, wantMore := scanRowsOracle(s, start, end, limit, cursor)
	if len(rows) != 0 || len(wantRows) != 0 {
		if !reflect.DeepEqual(rows, wantRows) || more != wantMore {
			t.Fatalf("ScanRows(%q, %q, %d, %q) = %q more=%v, oracle %q more=%v",
				start, end, limit, cursor, rows, more, wantRows, wantMore)
		}
	} else if more != wantMore {
		t.Fatalf("ScanRows(%q, %q, %d, %q) empty, more=%v, oracle more=%v", start, end, limit, cursor, more, wantMore)
	}
	cells, cmore := s.ScanCells(start, end, limit, cursor)
	wantCells, wantCmore := scanCellsOracle(s, start, end, limit, cursor)
	if len(cells) != len(wantCells) || cmore != wantCmore {
		t.Fatalf("ScanCells(%q, %q, %d, %q) = %d cells more=%v, oracle %d more=%v",
			start, end, limit, cursor, len(cells), cmore, len(wantCells), wantCmore)
	}
	for i := range cells {
		if cells[i].Row != wantCells[i].Row || cells[i].Col != wantCells[i].Col || !valueEqual(cells[i].Val, wantCells[i].Val) {
			t.Fatalf("ScanCells(%q, %q, %d, %q)[%d] = %+v, oracle %+v", start, end, limit, cursor, i, cells[i], wantCells[i])
		}
	}
}

// TestScanMatchesOracle drives random puts, deletes and
// delete-then-re-add of the same rows into a one-stripe and a sharded
// store, interleaving scans so the index folds after every kind of
// edit, and checks every limit/cursor edge against the heap oracle.
func TestScanMatchesOracle(t *testing.T) {
	prefixes := []string{"", "a", "a/", "b/", "b/1", "c/", "z/"}
	for _, stripes := range []int{1, 16} {
		t.Run("stripes="+strconv.Itoa(stripes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(stripes)))
			s := NewStoreStripes(stripes)
			randRow := func() string {
				p := prefixes[1+rng.Intn(len(prefixes)-1)]
				return p + strconv.Itoa(rng.Intn(60))
			}
			for round := 0; round < 40; round++ {
				// A burst of edits, skewed to delete and re-add rows the
				// index already holds.
				for i, n := 0, 1+rng.Intn(40); i < n; i++ {
					row := randRow()
					switch op := rng.Intn(10); {
					case op < 5:
						s.Put(row, "c"+strconv.Itoa(rng.Intn(3)), assoc.Num(float64(rng.Intn(9))))
					case op < 8:
						for _, c := range []string{"c0", "c1", "c2"} {
							s.Delete(row, c)
						}
					default: // empty the row and bring it straight back
						for _, c := range []string{"c0", "c1", "c2"} {
							s.Delete(row, c)
						}
						s.Put(row, "c1", assoc.Str("back"))
					}
				}
				all, _ := scanRowsOracle(s, "", "", 0, "")
				n := len(all)
				for _, start := range prefixes {
					end := PrefixEnd(start)
					inRange, _ := scanRowsOracle(s, start, end, 0, "")
					m := len(inRange)
					cursors := []string{"", start, end, "\x00", randRow(), randRow() + "x"}
					if m > 0 {
						cursors = append(cursors, inRange[0], inRange[m/2], inRange[m-1])
					}
					if n > 0 {
						cursors = append(cursors, all[n-1])
					}
					limits := []int{-1, 0, 1, 2, 3, m - 1, m, m + 1, n + 5}
					if round%8 != 7 {
						// Between full sweeps, a sample of the same grid.
						for i := 0; i < 4; i++ {
							limit, cursor := limits[rng.Intn(len(limits))], cursors[rng.Intn(len(cursors))]
							checkScanAgainstOracle(t, s, start, end, limit, cursor)
						}
						continue
					}
					for _, limit := range limits {
						for _, cursor := range cursors {
							checkScanAgainstOracle(t, s, start, end, limit, cursor)
							checkScanAgainstOracle(t, s, start, "", limit, cursor)
						}
					}
				}
				// Mid-round: one scan after a single edit.
				s.Delete(randRow(), "c0")
				checkScanAgainstOracle(t, s, "", "", 4, randRow())
				verifyStoreInvariants(t, s)
			}
		})
	}
}

// TestScanIndexFoldsWithoutScans checks the writer-side fold: a stripe
// that is only ever written keeps its unfolded log bounded, and the
// index it builds still matches the rows.
func TestScanIndexFoldsWithoutScans(t *testing.T) {
	s := NewStoreStripes(1)
	st := s.stripes[0]
	for i := 0; i < 3*foldSlack; i++ {
		row := fmt.Sprintf("r%06d", i%(foldSlack/2))
		s.Put(row, "c", assoc.Num(1))
		s.Delete(row, "c")
		if pending := len(st.added) + len(st.removed); pending > len(st.keys)+foldSlack+2 {
			t.Fatalf("op %d: %d unfolded index edits over %d keys", i, pending, len(st.keys))
		}
	}
	for i := 0; i < 2*foldSlack; i++ {
		s.Put(fmt.Sprintf("k%06d", i), "c", assoc.Num(1))
	}
	verifyStoreInvariants(t, s)
	checkScanAgainstOracle(t, s, "k", "", 100, "k000999")
}

// TestConcurrentWriterCellsPager pages CELLS over a server while a
// writer creates, empties and re-creates rows under a neighbouring
// prefix. Every full walk of the untouched prefix must return it
// exactly, and every page of the churning prefix must be strictly
// ordered and hold whole rows. Run under -race it also checks that
// scans folding the index never race the writers logging to it.
func TestConcurrentWriterCellsPager(t *testing.T) {
	srv, c := serveTest(t)
	const stable = 300
	for i := 0; i < stable; i++ {
		srv.store.Put(fmt.Sprintf("s/%04d", i), "c", assoc.Num(float64(i)))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wc, err := Dial(srv.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer wc.Close()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			row := fmt.Sprintf("w/%04d", rng.Intn(500))
			if rng.Intn(3) == 0 {
				err = wc.DeleteBatch([]CellKey{{Row: row, Col: "a"}, {Row: row, Col: "b"}})
			} else {
				err = wc.PutBatch([]Cell{{Row: row, Col: "a", Val: assoc.Num(1)}, {Row: row, Col: "b", Val: assoc.Num(2)}})
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for walk := 0; walk < 30; walk++ {
		got, err := c.FetchAssoc("s/", 7)
		if err != nil {
			t.Fatal(err)
		}
		if got.NRows() != stable || got.NNZ() != stable {
			t.Fatalf("walk %d: stable prefix returned %d rows, %d cells; want %d", walk, got.NRows(), got.NNZ(), stable)
		}
		cursor := ""
		for {
			cells, err := c.ScanCells("w/", PrefixEnd("w/"), 11, cursor)
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) == 0 {
				break
			}
			for i, cell := range cells {
				if cell.Row <= cursor {
					t.Fatalf("walk %d: row %q not past cursor %q", walk, cell.Row, cursor)
				}
				if i%2 == 0 && (cell.Col != "a" || i+1 == len(cells) || cells[i+1].Row != cell.Row || cells[i+1].Col != "b") {
					t.Fatalf("walk %d: torn or unordered row at %d: %+v", walk, i, cells)
				}
			}
			cursor = cells[len(cells)-1].Row
		}
	}
	close(stop)
	wg.Wait()
	verifyStoreInvariants(t, srv.store)
}
