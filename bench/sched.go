package main

import "time"

// openLoop sends on a fixed schedule regardless of how the system under
// test is doing: request i is due at start + i·Period whether or not
// request i−1 has come back. With one synchronous connection a stalled
// send delays the ones behind it; they then go out back to back, late, and
// their latency is counted from when they were due — the wait a stall
// imposes on later requests is part of what a user sees. now and sleep are
// seams for the unit test; production uses the wall clock.
type openLoop struct {
	Period time.Duration
	now    func() time.Time
	sleep  func(time.Duration)
}

// spinWindow is how long before a due time the scheduler stops sleeping
// and polls the clock instead: on a busy two-processor machine a timer
// wake-up can overshoot by a millisecond, which would otherwise be charged
// to the generator (and then to the system, as latency from the due time).
const spinWindow = 1500 * time.Microsecond

// run issues n sends starting at start. send receives the request index
// and its due time; late[i] is how long after its due time send i began.
func (o *openLoop) run(start time.Time, n int, send func(i int, due time.Time)) (late []time.Duration) {
	now, sleep := o.now, o.sleep
	if now == nil {
		now = time.Now
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	late = make([]time.Duration, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * o.Period)
		if wait := due.Sub(now()); wait > spinWindow {
			sleep(wait - spinWindow)
		}
		t := now()
		for t.Before(due) {
			t = now()
		}
		late[i] = t.Sub(due)
		send(i, due)
	}
	return late
}
