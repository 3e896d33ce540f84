package main

import (
	"crypto/sha256"
	"time"
)

// Host-speed normalization. On a shared host the effective CPU speed
// drifts by tens of percent over minutes, and the program's wall and CPU
// times drift with it. Each run therefore times a fixed reference task
// that shares no code with the program, at several points around its
// measurements, and scales every time metric by refNominal over the
// run's median reference time: times read as if the host ran at the
// speed where the reference takes refNominal. The program cannot
// influence the reference, so a change to the program moves the scaled
// metrics exactly as it moves the raw ones; the raw values are kept as
// raw.* extras.

// refNominal is the reference task's duration on the 2-core reference
// host at its usual speed.
const refNominal = 20 * time.Millisecond

// refSamples is how many reference tasks each calibration point times.
const refSamples = 5

// hostSpeed collects reference timings over one run.
type hostSpeed struct {
	samples []float64 // seconds
}

// sample times refSamples reference tasks.
func (h *hostSpeed) sample() {
	for i := 0; i < refSamples; i++ {
		h.samples = append(h.samples, referenceTask().Seconds())
	}
}

// factor is refNominal over the median reference time: multiply a time
// by it, divide a rate by it.
func (h *hostSpeed) factor() float64 {
	return refNominal.Seconds() / median(h.samples)
}

// normalize scales res's time metrics by the run's factor and keeps the
// raw values as extras.
func (h *hostSpeed) normalize(res *result) {
	f := h.factor()
	res.extra["host.reference_ms"] = 1000 * median(h.samples)
	res.extra["host.factor"] = f
	for _, m := range e2eMetrics {
		raw := res.metrics[m.name]
		switch m.unit {
		case "s", "ms":
			res.metrics[m.name] = raw * f
		case "1/s":
			res.metrics[m.name] = raw / f
		default:
			continue
		}
		res.extra["raw."+m.name] = raw
	}
}

var refSink [sha256.Size]byte

// referenceTask is a fixed single-threaded chain of SHA-256 hashes; it
// takes about refNominal on the reference host. It allocates nothing:
// a reference that allocates (or hands off between goroutines) picks up
// GC and scheduler noise of its own and, measured, tracks the
// program's drift worse than this one.
func referenceTask() time.Duration {
	start := time.Now()
	var buf [4 << 10]byte
	for i := 0; i < 6000; i++ {
		refSink = sha256.Sum256(buf[:])
		buf[i%len(buf)] = refSink[0]
	}
	return time.Since(start)
}
