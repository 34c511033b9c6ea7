package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// TestTablesGolden renders every driver in `ftexp -exp all` order (each
// table followed by a blank line, as ftexp prints them) at a 5000-
// instruction budget and campaign seed 1, and compares the bytes with
// testdata/tables-5000.golden. Regenerate with
//
//	go test ./internal/experiments -run TestTablesGolden -update
//
// or, equivalently, `ftexp -exp all -insts 5000 -quiet`.
func TestTablesGolden(t *testing.T) {
	opt := Options{MaxInsts: 5_000, FaultSeed: 1}
	var buf bytes.Buffer
	tables := []func(io.Writer) error{
		func(w io.Writer) error { PrintTable1(w); return nil },
		func(w io.Writer) error {
			rows, err := Table2(opt)
			PrintTable2(w, rows)
			return err
		},
		func(w io.Writer) error {
			PrintCurves(w, "Figure 3: analytic IPC vs fault frequency (rewind = 20 cycles)", Fig3())
			return nil
		},
		func(w io.Writer) error {
			PrintCurves(w, "Figure 4: analytic IPC vs fault frequency (rewind = 2000 cycles)", Fig4())
			return nil
		},
		func(w io.Writer) error {
			rows, err := Fig5(opt)
			PrintFig5(w, rows)
			return err
		},
		func(w io.Writer) error {
			rows, err := Fig6("fpppp", opt)
			PrintFig6(w, "fpppp", rows)
			return err
		},
		func(w io.Writer) error {
			rows, err := Sensitivity(opt)
			PrintSensitivity(w, rows)
			return err
		},
		func(w io.Writer) error {
			rows, err := AblateCoSchedule([]string{"gcc", "fpppp", "swim"}, opt)
			PrintCoSchedule(w, rows)
			return err
		},
		func(w io.Writer) error {
			rows, err := AblateCommitWidth("fpppp", []int{4, 8, 16, 32}, opt)
			PrintCommitWidth(w, "fpppp", rows)
			return err
		},
		func(w io.Writer) error {
			rows, err := AblateRecoveryGrain("fpppp", 1000, []int{0, 200, 2000}, opt)
			PrintRecoveryGrain(w, "fpppp", 1000, rows)
			return err
		},
	}
	for i, table := range tables {
		if err := table(&buf); err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
		fmt.Fprintln(&buf)
	}

	path := filepath.Join("testdata", "tables-5000.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("rendered tables differ from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is intended)", path, i+1, g, w)
		}
	}
}
