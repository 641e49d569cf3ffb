package cli

import (
	"errors"
	"flag"
	"io"
	"path/filepath"
	"testing"
)

// TestParseFlags pins the ContinueOnError convention: success is nil, any
// parse failure wraps ErrUsage so one errors.Is in Exit lands on code 2.
// (The -h path calls os.Exit(0) and cannot be exercised in-process.)
func TestParseFlags(t *testing.T) {
	newFS := func() *flag.FlagSet {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("n", 1, "a number")
		return fs
	}
	if err := ParseFlags(newFS(), []string{"-n", "3", "operand"}); err != nil {
		t.Fatalf("valid args: %v", err)
	}
	for _, args := range [][]string{
		{"-bogus"},        // unknown flag
		{"-n", "notanum"}, // bad value
		{"-n"},            // missing value
	} {
		err := ParseFlags(newFS(), args)
		if err == nil {
			t.Errorf("args %v: no error", args)
			continue
		}
		if !errors.Is(err, ErrUsage) {
			t.Errorf("args %v: error %v does not wrap ErrUsage", args, err)
		}
	}
}

func TestWriteFileErrors(t *testing.T) {
	if err := WriteFile(filepath.Join(t.TempDir(), "no-such-dir", "x.json"), nil); err == nil {
		t.Error("uncreatable path accepted")
	}
	boom := errors.New("render failed")
	err := WriteFile(filepath.Join(t.TempDir(), "x.json"), func(w io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("writer error not propagated: %v", err)
	}
}
