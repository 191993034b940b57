package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	portus "github.com/portus-sys/portus"
)

var update = flag.Bool("update", false, "rewrite testdata/usage.golden from the current flags")

// TestUsageGolden pins portusd's command-line surface: `portusd -h`
// prints exactly testdata/usage.golden. A flag added, removed or
// reworded shows up here; regenerate with `go test ./cmd/portusd
// -update` and review the diff.
func TestUsageGolden(t *testing.T) {
	fs := newFlags(&options{})
	fs.Init(fs.Name(), flag.ContinueOnError)
	var out bytes.Buffer
	fs.SetOutput(&out)
	if err := fs.Parse([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 12 {
		t.Errorf("portusd has %d flags, want 12", n)
	}
	golden := filepath.Join("testdata", "usage.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("portusd -h differs from %s:\n%s", golden, out.Bytes())
	}
}

func TestPeerListSet(t *testing.T) {
	cases := []struct {
		name, arg string
		want      *portus.PlacementNode // nil: Set must refuse arg
	}{
		{"three fields", "s1,10.0.0.1:7470,10.0.0.1:7471",
			&portus.PlacementNode{Name: "s1", CtrlAddr: "10.0.0.1:7470", FabricAddr: "10.0.0.1:7471"}},
		{"four fields", "s2,:7480,:7481,8",
			&portus.PlacementNode{Name: "s2", CtrlAddr: ":7480", FabricAddr: ":7481", Weight: 8 << 30}},
		{"two fields", "s1,:7470", nil},
		{"five fields", "s1,:7470,:7471,8,9", nil},
		{"empty name", ",:7470,:7471", nil},
		{"zero weight", "s1,:7470,:7471,0", nil},
		{"negative weight", "s1,:7470,:7471,-4", nil},
		{"non-numeric weight", "s1,:7470,:7471,big", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p peerList
			err := p.Set(tc.arg)
			switch {
			case tc.want == nil && err == nil:
				t.Fatalf("Set(%q) accepted %+v, want an error", tc.arg, p)
			case tc.want == nil:
				if len(p) != 0 {
					t.Fatalf("refused Set(%q) still appended %+v", tc.arg, p)
				}
			case err != nil:
				t.Fatalf("Set(%q): %v", tc.arg, err)
			case len(p) != 1 || p[0] != *tc.want:
				t.Fatalf("Set(%q) = %+v, want [%+v]", tc.arg, p, *tc.want)
			}
		})
	}
}
