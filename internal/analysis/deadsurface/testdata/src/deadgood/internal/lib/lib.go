package lib

import (
	"container/heap"
	"fmt"
)

// intHeap's methods are called only through heap.Interface, which
// Smallest converts it to: they are exempt.
type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Smallest is used by the root package.
func Smallest(xs []int) int {
	h := intHeap(append([]int(nil), xs...))
	heap.Init(&h)
	return heap.Pop(&h).(int)
}

// Level's String is found by fmt through `any`: exempt.
type Level int

// Warn is used by the root package.
const Warn Level = 2

func (l Level) String() string { return fmt.Sprintf("level%d", int(l)) }

// Engine is re-exported by an alias in the root package, so Run is
// public API though nothing here calls it.
type Engine struct{ runs int }

// Run is exempt through the alias.
func (e *Engine) Run() { e.runs++ }

// BenchOnly is used only by the bench/ use-only root: that use counts.
func BenchOnly() int { return 42 }

// Model is the serial reference a test checks the product against.
//
//enblogue:reference the serial model lib_test checks Smallest against
func Model(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// Reference is a waived reference type: the waiver covers its methods.
//
//enblogue:reference the fixture's reference type, methods included
type Reference struct{}

// Check is covered by the waiver on Reference.
func (Reference) Check() bool { return true }
