// Package alloc_a is the failing fixture for the allocdiscipline
// analyzer: escapes-to-heap verdicts inside the hot set, hotness
// propagating to a reached helper (called, or only referenced),
// none through interface dispatch, defer-in-loop, map range, interface
// boxing, and the //hot: grammar findings.
package alloc_a

var (
	sink    []int
	sinkPtr *int
	sinkFn  func() int
	sinkAny any
)

// step stands in for an engine's per-event step loop.
//
//hot:path per-event step loop
func step(events []int, stash map[int]int) int {
	buf := make([]int, 64) // want `hot path allocates in step \(hot via //hot:path step\)`
	sink = buf
	total := 0
	for i, ev := range events {
		n := i
		fn := func() int { return ev + n } // want `hot path allocates in step`
		sinkFn = fn
		// The compiler re-reports helper's new(int) escape here (the
		// inlined copy); the analyzer skips call-site re-attributions
		// and judges the escape at helper's own body below.
		total += helper(ev)
	}
	for k, v := range stash { // want `range over map in hot function step`
		total += k + v
	}
	for range events {
		defer flush() // want `defer inside a loop in hot function step`
	}
	return total
}

// helper has no annotation of its own: it is hot because step reaches
// it.
func helper(x int) int {
	p := new(int) // want `hot path allocates in helper \(hot via //hot:path step\)`
	*p = x
	sinkPtr = p
	return *p
}

// box stands in for trace/diagnostic plumbing on a hot path.
//
//hot:path per-event boxing
func box(v int64) {
	sinkAny = any(v) // want `interface conversion in hot function box boxes int64` `hot path allocates in box`
	sinkAny = v      // want `interface assignment in hot function box boxes int64` `hot path allocates in box`
}

func flush() {}

//hot:warm per-event warm-up // want `unknown //hot: directive \(want //hot:path or //hot:cold\)`
func mystery() {}

//hot:path a mark that cannot attach to anything // want `//hot: directive must be in a function declaration's doc comment`
var floating int

// register only takes callback's value: hotness propagates through a
// function reference as through a call.
//
//hot:path per-event callback registration
func register() {
	sinkFn = callback
}

func callback() int {
	p := new(int) // want `hot path allocates in callback \(hot via //hot:path register\)`
	sinkPtr = p
	return *p
}

// doer's implementation allocates, but dispatch reaches it only
// through the interface, so hotness does not propagate to it.
type doer interface{ do() }

type impl struct{}

func (impl) do() { sinkPtr = new(int) }

var _ doer = impl{}

//hot:path per-event dynamic dispatch
func dispatch(d doer) { d.do() }

// conflicted carries both marks; the second is reported.
//
//hot:path per-event step
//hot:cold per-Run setup // want `conflicting //hot: directives on one function`
func conflicted() {}
