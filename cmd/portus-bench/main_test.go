package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"github.com/portus-sys/portus/internal/experiments"
)

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		var b bytes.Buffer
		io.Copy(&b, r)
		out <- b.String()
	}()
	ferr := f()
	w.Close()
	return <-out, ferr
}

// TestListGolden pins `portus-bench list` to testdata/list.golden, one
// line per registered experiment. After a deliberate registry change,
// regenerate it with `go run ./cmd/portus-bench list >
// cmd/portus-bench/testdata/list.golden` and review the diff.
func TestListGolden(t *testing.T) {
	got, err := captureStdout(t, func() error { return run([]string{"list"}) })
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/list.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("portus-bench list differs from testdata/list.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPaperSetResolves: every id `portus-bench paper` runs is a
// registered experiment.
func TestPaperSetResolves(t *testing.T) {
	for _, id := range paperSet {
		if _, err := experiments.ByID(id); err != nil {
			t.Errorf("paper set id %q: %v", id, err)
		}
	}
}

// TestUnknownIDFails: an unknown id fails the run, before anything runs,
// with an error that names it.
func TestUnknownIDFails(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"no-such-figure"}) })
	if err == nil || !strings.Contains(err.Error(), `"no-such-figure"`) {
		t.Fatalf("err = %v, want an error naming the unknown id", err)
	}
	if out != "" {
		t.Fatalf("an unknown id printed %q", out)
	}
}
