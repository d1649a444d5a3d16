package tripled

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"repro/internal/assoc"
)

// encodeOpsFprintf is the fmt.Fprintf WAL record encoder the append
// encoder replaced, kept as the byte-parity oracle.
func encodeOpsFprintf(ops []batchOp) []byte {
	var b bytes.Buffer
	for _, op := range ops {
		if op.del {
			fmt.Fprintf(&b, "D\t%s\t%s\n", op.cell.Row, op.cell.Col)
			continue
		}
		marker := "s"
		if op.cell.Val.Numeric {
			marker = "n"
		}
		fmt.Fprintf(&b, "P\t%s\t%s\t%s\t%s\n", op.cell.Row, op.cell.Col, marker, op.cell.Val.String())
	}
	return b.Bytes()
}

// writeLogFprintf is the fmt.Fprintf WriteLog the append encoder and
// the ordered row index replaced: it collects and sorts every row key
// from the row maps, then formats each cell.
func writeLogFprintf(s *Store, w io.Writer) error {
	s.rlockAll()
	defer s.runlockAll()
	bw := bufio.NewWriter(w)
	var rows []string
	for _, st := range s.stripes {
		for r := range st.rows {
			rows = append(rows, r)
		}
	}
	sort.Strings(rows)
	for _, row := range rows {
		cells := s.stripeFor(row).rows[row]
		cols := make([]string, 0, len(cells))
		for c := range cells {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, col := range cols {
			v := cells[col]
			marker := "s"
			if v.Numeric {
				marker = "n"
			}
			if _, err := fmt.Fprintf(bw, "P\t%s\t%s\t%s\t%s\n", row, col, marker, v.String()); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// parityValues spans the numeric formatting edge cases of the 'g', -1
// value text plus string values.
var parityValues = []assoc.Value{
	assoc.Num(0), assoc.Num(math.Copysign(0, -1)), assoc.Num(1), assoc.Num(-7),
	assoc.Num(42), assoc.Num(1e21), assoc.Num(123456789012), assoc.Num(0.5),
	assoc.Num(1.0 / 3), assoc.Num(-2.25e-9), assoc.Num(math.MaxFloat64),
	assoc.Num(math.SmallestNonzeroFloat64), assoc.Num(math.Inf(1)),
	assoc.Num(math.Inf(-1)), assoc.Num(math.NaN()),
	assoc.Str(""), assoc.Str("scanner"), assoc.Str("a b,c;d"), assoc.Str("ünï"),
	assoc.Str("1.5"),
}

func parityOps() []batchOp {
	var ops []batchOp
	for i, v := range parityValues {
		row := fmt.Sprintf("hf/2020-0%d/10.0.0.%d", i%9+1, i)
		ops = append(ops, batchOp{cell: Cell{Row: row, Col: "packets", Val: v}})
		if i%3 == 0 {
			ops = append(ops, batchOp{del: true, cell: Cell{Row: row, Col: "gone"}})
		}
	}
	return append(ops, batchOp{del: true, cell: Cell{Row: "", Col: ""}},
		batchOp{cell: Cell{Row: "", Col: "", Val: assoc.Str("")}})
}

func TestEncodeOpsMatchesFprintf(t *testing.T) {
	ops := parityOps()
	got, want := encodeOps(ops), encodeOpsFprintf(ops)
	if !bytes.Equal(got, want) {
		t.Fatalf("encodeOps bytes differ from the Fprintf encoder:\n got %q\nwant %q", got, want)
	}
	for i, op := range ops {
		if one, oracle := encodeOps(ops[i:i+1]), encodeOpsFprintf(ops[i:i+1]); !bytes.Equal(one, oracle) {
			t.Errorf("op %d (%+v): %q, want %q", i, op, one, oracle)
		}
	}
	back, err := decodeOps(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ops) {
		t.Fatalf("decodeOps returned %d ops, want %d", len(back), len(ops))
	}
	for i := range ops {
		a, b := ops[i], back[i]
		if a.del != b.del || a.cell.Row != b.cell.Row || a.cell.Col != b.cell.Col || (!a.del && !valueEqual(a.cell.Val, b.cell.Val)) {
			t.Errorf("round trip op %d = %+v, want %+v", i, b, a)
		}
	}
}

func TestWriteLogMatchesFprintf(t *testing.T) {
	for _, stripes := range []int{1, 16} {
		s := NewStoreStripes(stripes)
		for i, v := range parityValues {
			for j := 0; j < 3; j++ {
				s.Put(fmt.Sprintf("r%02d", (i*7+j)%23), fmt.Sprintf("c%d", (i+j)%5), v)
			}
		}
		s.Delete("r00", "c0")
		var got, want bytes.Buffer
		if err := s.WriteLog(&got); err != nil {
			t.Fatal(err)
		}
		if err := writeLogFprintf(s, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("stripes=%d: WriteLog bytes differ from the Fprintf writer:\n got %q\nwant %q", stripes, got.Bytes(), want.Bytes())
		}
		back := NewStoreStripes(stripes)
		if err := back.ReplayLog(bytes.NewReader(got.Bytes())); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := back.WriteLog(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), got.Bytes()) {
			t.Fatalf("stripes=%d: replayed log re-encodes differently", stripes)
		}
	}
}
