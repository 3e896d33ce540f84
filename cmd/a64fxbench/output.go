package main

import (
	"bufio"
	"io"
	"os"
)

// outputBuffer is the size of withOutput's buffer: a streamed trace
// writes millions of short lines, and each would otherwise be one
// write(2).
const outputBuffer = 64 << 10

// withOutput runs fn against the -o file (created fresh) or stdout when
// no file was given, through one buffered writer. The buffer is flushed
// on every return path, so a failed trace still leaves what it streamed
// before the failure. The file is closed via defer — so it is released
// even if fn panics — after the flush. A write error from fn wins over
// the flush and close errors, but a failed flush or close on an
// otherwise clean run is still reported (a buffered write that never
// hit the disk is a real failure). Every exporting command (trace,
// links, counters) funnels through this one helper.
func withOutput(cfg sweepConfig, fn func(w io.Writer) error) (err error) {
	var dst io.Writer = os.Stdout
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		dst = f
	}
	bw := bufio.NewWriterSize(dst, outputBuffer)
	defer func() {
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
	}()
	return fn(bw)
}
