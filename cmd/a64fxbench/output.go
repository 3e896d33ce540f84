package main

import (
	"io"
	"os"
)

// withOutput runs fn against the -o file (created fresh) or stdout when
// no file was given. The file is closed via defer — so it is released
// even if fn panics — and a write error from fn wins over the close
// error, but a failed close on an otherwise clean run is still reported
// (a buffered write that never hit the disk is a real failure). Every
// exporting command (trace, links, counters) funnels through this one
// helper.
func withOutput(cfg sweepConfig, fn func(w io.Writer) error) (err error) {
	if cfg.out == "" {
		return fn(os.Stdout)
	}
	f, err := os.Create(cfg.out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return fn(f)
}
