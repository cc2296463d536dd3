package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"svtsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestPaperQuickGolden pins what `svtbench -all -quick` prints, byte for
// byte, through the command's own section list and renderer, on a new
// session's GOMAXPROCS-wide pool: everything except Table 3, whose
// source line counts move with every change. Rewrite with -update only
// when the change to the numbers is intended.
func TestPaperQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the quick paper regeneration takes seconds")
	}
	const root = "../.."
	sess := svtsim.NewSession()
	var all, table3 bytes.Buffer
	renderAll(&all, sess, sections(sess, true, 0, 0, "", false, quickIters, true, root))
	renderAll(&table3, sess, sections(sess, false, 3, 0, "", false, quickIters, true, root))
	if table3.Len() == 0 || !bytes.Contains(all.Bytes(), table3.Bytes()) {
		t.Fatal("-all output does not contain Table 3 as rendered alone")
	}
	got := bytes.Replace(all.Bytes(), table3.Bytes(), nil, 1)

	path := filepath.Join("testdata", "paper-quick.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("quick paper output diverged from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
