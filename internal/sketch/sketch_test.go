package sketch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountMinExact(t *testing.T) {
	c := NewCountMin(4, 1024)
	c.AddU64(1, 3)
	c.AddU64(2, 5)
	c.AddU64(1, 2)
	if got := c.CountU64(1); got != 5 {
		t.Errorf("CountU64(1) = %d, want 5", got)
	}
	if got := c.CountU64(2); got != 5 {
		t.Errorf("CountU64(2) = %d, want 5", got)
	}
	if got := c.Total(); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	f := func(keys []uint64) bool {
		c := NewCountMin(3, 64)
		truth := map[uint64]uint64{}
		for _, k := range keys {
			c.AddU64(k, 1)
			truth[k]++
		}
		for k, n := range truth {
			if c.CountU64(k) < n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCountMinErrorBound(t *testing.T) {
	// epsilon=0.01, delta=0.01: overestimate should be <= eps*N nearly always.
	c := NewCountMinWithError(0.01, 0.01)
	rng := rand.New(rand.NewSource(42))
	truth := map[uint64]uint64{}
	const n = 50000
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(2000))
		c.AddU64(k, 1)
		truth[k]++
	}
	bad := 0
	for k, want := range truth {
		if c.CountU64(k) > want+uint64(0.01*float64(n)) {
			bad++
		}
	}
	if bad > len(truth)/50 {
		t.Errorf("%d/%d keys exceed the epsilon error bound", bad, len(truth))
	}
}

func TestCountMinReset(t *testing.T) {
	c := NewCountMin(2, 16)
	c.AddU64(7, 7)
	c.Reset()
	if got := c.CountU64(7); got != 0 {
		t.Errorf("after Reset Count = %d, want 0", got)
	}
	if got := c.Total(); got != 0 {
		t.Errorf("after Reset Total = %d, want 0", got)
	}
}

func TestCountMinPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero depth":  func() { NewCountMin(0, 8) },
		"zero width":  func() { NewCountMin(8, 0) },
		"bad epsilon": func() { NewCountMinWithError(0, 0.1) },
		"bad delta":   func() { NewCountMinWithError(0.1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
