package window_test

import (
	"fmt"
	"time"

	"enblogue/internal/window"
)

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
