package main

import "time"

// opTiming is one operation's outcome on a generator connection.
type opTiming struct {
	latMs  float64 // from when the operation was due until it completed, less lateMs
	lateMs float64 // how late the generator itself sent it
	done   time.Time
	err    error
}

func msSince(t time.Time, now time.Time) float64 { return float64(now.Sub(t)) / 1e6 }

// openLoop runs n operations in sequence on one connection on a fixed
// schedule: operation i is due at t0+due(i) and is sent then, or as soon as
// the previous operation completes if that is later. Latency counts from
// the due time, so a stall also charges the wait it imposes on every
// operation queued behind it. Lateness is the generator's own delay: from
// the moment it could have sent (due, or the previous completion) to the
// moment it did. It is reported on its own and left out of the latency,
// which would otherwise measure how fast this process wakes from a timer.
func openLoop(t0 time.Time, n int, due func(i int) time.Duration, op func(i int) error) []opTiming {
	out := make([]opTiming, n)
	prevDone := t0
	for i := 0; i < n; i++ {
		d := t0.Add(due(i))
		if w := time.Until(d); w > 0 {
			time.Sleep(w)
		}
		ready := d
		if prevDone.After(ready) {
			ready = prevDone
		}
		start := time.Now()
		err := op(i)
		done := time.Now()
		late := msSince(ready, start)
		out[i] = opTiming{latMs: msSince(d, done) - late, lateMs: late, done: done, err: err}
		prevDone = done
	}
	return out
}
