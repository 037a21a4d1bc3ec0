// Package noalloc is a noalloc fixture: one function per allocating
// construct, plus the accepted shapes and suppressions.
package noalloc

import "fmt"

type iface interface{ M() }

type impl struct{ v int }

func (impl) M() {}

type big struct{ a, b [4]int64 }

//antlint:noalloc
func literals() (map[int]int, []int, [4]int, big) {
	m := map[int]int{1: 2} // want "noalloc: map literal allocates"
	s := []int{1, 2, 3}    // want "noalloc: slice literal allocates"
	a := [4]int{1}         // arrays are values: fine
	st := big{}            // struct literals are values: fine
	return m, s, a, st
}

//antlint:noalloc
func builtins(n int) []int {
	buf := make([]int, n) // want "noalloc: make allocates"
	p := new(int)         // want "noalloc: new allocates"
	_ = p
	return buf
}

//antlint:noalloc
func appends(dst, src []int) []int {
	dst = append(dst, 1)  // self-append: trusted as cap-sufficient
	out := append(src, 2) // want "noalloc: append into a different destination"
	_ = out
	return dst
}

//antlint:noalloc
func strcat(a, b string, bs []byte) string {
	c := a + b            // want "noalloc: string concatenation allocates"
	const pre = "x" + "y" // constant folding: fine
	d := string(bs)       // want "noalloc: string conversion copies and allocates"
	e := []byte(a)        // want "noalloc: \\[\\]byte conversion copies and allocates"
	_ = e
	return pre + c + d // want "noalloc: string concatenation allocates" "noalloc: string concatenation allocates"
}

//antlint:noalloc
func fmtcall(x int) string {
	return fmt.Sprintf("%d", x) // want "noalloc: fmt.Sprintf allocates"
}

//antlint:noalloc
func control(ch chan struct{}) {
	go func() {}()  // want "noalloc: go statement allocates"
	defer close(ch) // want "noalloc: defer may allocate"
	<-ch
}

//antlint:noalloc
func closures(xs []int) func() int {
	total := 0
	f := func() int { return total } // want "noalloc: closure captures total"
	g := func() int { return 42 }    // captures nothing: static, fine
	_ = g
	for _, x := range xs {
		total += x
	}
	return f
}

//antlint:noalloc
func boxing(v impl, p *impl, n int) {
	sinkIface(v)    // want "noalloc: noalloc.impl value boxed into noalloc.iface allocates"
	sinkIface(p)    // pointer-shaped: stored directly, fine
	sinkAny(n)      // want "noalloc: int value boxed"
	var i iface = v // want "noalloc: noalloc.impl value boxed into noalloc.iface allocates"
	_ = i
	var j iface = p // fine
	_ = j
}

//antlint:noalloc
func variadic(xs []int) int {
	a := sum(1, 2, 3)   // want "noalloc: variadic call materializes its argument slice" "noalloc: int value boxed" "noalloc: int value boxed" "noalloc: int value boxed"
	b := sumInts(xs...) // spread of an existing slice: fine
	return a + b
}

//antlint:noalloc
func methodValue(v impl) func() {
	return v.M // want "noalloc: method value M allocates"
}

//antlint:noalloc
func panicPath(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n)) // crashing already: fine
	}
	return n
}

//antlint:noalloc
func suppressed(n int) []int {
	//antlint:allocok fixture: deliberate cold path
	buf := make([]int, n)
	return buf
}

// unannotated functions are never checked.
func unannotated(n int) []int { return make([]int, n) }

func sinkIface(i iface)     { _ = i }
func sinkAny(a any)         { _ = a }
func sum(xs ...any) int     { return len(xs) }
func sumInts(xs ...int) int { return len(xs) }
