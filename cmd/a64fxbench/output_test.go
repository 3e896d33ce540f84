package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWithOutputFlushes: everything fn writes reaches the -o file,
// whether fn succeeds after writing more than the buffer holds or fails
// part-way, in which case its error is returned and the part it wrote
// before failing stays in the file.
func TestWithOutputFlushes(t *testing.T) {
	t.Parallel()
	long := bytes.Repeat([]byte("0123456789abcdef\n"), 3*outputBuffer/17)
	boom := errors.New("trace failed")
	cases := []struct {
		name    string
		write   []byte
		err     error
		wantErr error
	}{
		{"clean run longer than the buffer", long, nil, nil},
		{"failure after a partial stream", []byte("job 1\nevent a\n"), boom, boom},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "out")
		err := withOutput(sweepConfig{out: path}, func(w io.Writer) error {
			if _, err := w.Write(c.write); err != nil {
				return err
			}
			return c.err
		})
		if !errors.Is(err, c.wantErr) {
			t.Fatalf("%s: error %v, want %v", c.name, err, c.wantErr)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.write) {
			t.Fatalf("%s: the file holds %d bytes, want the %d written", c.name, len(got), len(c.write))
		}
	}
}
