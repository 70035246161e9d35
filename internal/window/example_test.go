package window_test

import (
	"fmt"
	"time"

	"enblogue/internal/window"
)

func ExampleDecay() {
	// The paper's topic score: the maximum of the current prediction error
	// and past errors dampened with a 2-day half-life.
	d := window.MakeDecay(48 * time.Hour)
	t0 := time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)
	at := func(h int) int64 { return t0.Add(time.Duration(h) * time.Hour).UnixNano() }

	d.UpdateCachedNano(at(0), 0.8, nil)        // a big shift now
	s1 := d.UpdateCachedNano(at(48), 0.1, nil) // small error two days later
	fmt.Printf("after one half-life: %.2f (decayed 0.8 beats current 0.1)\n", s1)

	s2 := d.UpdateCachedNano(at(96), 0.5, nil)
	fmt.Printf("later, fresh 0.5 beats decayed: %.2f\n", s2)
	// Output:
	// after one half-life: 0.40 (decayed 0.8 beats current 0.1)
	// later, fresh 0.5 beats decayed: 0.50
}

func ExampleCounterArena() {
	a := window.NewCounterArena(24, time.Hour) // 24-hour sliding windows
	tag := a.Alloc()                           // one counter slot
	t0 := time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		a.Inc(tag, t0.Add(time.Duration(i)*time.Hour))
	}
	fmt.Println("events in window:", a.Value(tag))
	// Two days later every event has slid out.
	fmt.Println("after sliding away:", a.ValueAt(tag, t0.Add(48*time.Hour)))
	// Output:
	// events in window: 10
	// after sliding away: 0
}
