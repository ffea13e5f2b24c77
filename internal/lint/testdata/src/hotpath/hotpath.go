// Package hotpath is a dprlint fixture: every allocating construct
// the //dpr:hotpath guard flags, the reuse idiom it permits, and an
// unannotated function where the same constructs pass.
package hotpath

import "fmt"

type engine struct {
	buf   []int
	names []string
}

func (e *engine) drain() {}

// hot carries the annotation, so everything allocating inside it is a
// violation.
//
//dpr:hotpath
func (e *engine) hot(v int, s string) {
	m := make(map[int]int) // want `make in hot-path function hot allocates`
	m[v] = v
	xs := []int{v} // want `slice literal in hot-path function hot allocates`
	e.buf = append(e.buf, xs...)
	mm := map[int]int{} // want `map literal in hot-path function hot allocates`
	mm[v] = v
	fmt.Println(v)                      // want `fmt call in hot-path function hot allocates`
	tmp := append([]int(nil), e.buf...) // want `append to a fresh slice in hot-path function hot`
	e.buf = tmp
	s2 := s + "!" // want `string concatenation in hot-path function hot allocates`
	b := []byte(s2) // want `conversion in hot-path function hot copies`
	_ = b
	go e.drain()   // want `go statement in hot-path function hot spawns per call`
	f := func() {} // want `closure in hot-path function hot allocates`
	f()
	p := new(engine) // want `new in hot-path function hot allocates`
	_ = p
	// Appending into engine-owned, capacity-reused storage is the
	// pipeline's designed idiom and stays legal.
	e.buf = append(e.buf, v)
	//dpr:ignore hotpath setup path, runs once per topology change
	e.names = append([]string(nil), s)
	if v < 0 {
		panic(fmt.Sprintf("negative %d", v)) // want `fmt call in hot-path function hot allocates and boxes`
	}
}

// cold has no annotation: identical constructs pass.
func (e *engine) cold(v int) {
	m := make(map[int]int)
	m[v] = v
	go e.drain()
}
