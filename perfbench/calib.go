package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The 2-CPU machines this benchmark runs on change speed by a third or
// more within minutes, with no steal time: the same seed's verify-batch
// run gave 16.5 and 11.8 programs/s half an hour apart. A fixed kernel
// timed in between a workload's operations slows down with it
// (README.md, "Machine speed"), so the closed-loop workloads report
// their time-based end-to-end metrics at a reference machine speed:
// scaled by the kernel's time during the run over its reference time
// kernelRef. The kernel is standard-library code that no
// change to the repository touches. It allocates, builds a map, chases
// pointers and sorts, as the analysis does. Its GC work per allocated
// byte does not grow with the program's heap — a larger heap makes each
// collection longer and collections rarer in the same proportion — and
// each sample starts from a collected heap.

// kernelNodes is the size of one goroutine's kernel: about 4 MiB of
// nodes and map.
const kernelNodes = 60000

// kernelRounds is how many rounds the clock runs at each boundary of a
// timed section; kernelEvery is how often it runs one within it. The
// slowdown is the median round.
const (
	kernelRounds = 8
	kernelEvery  = 500 * time.Millisecond
)

// kernelRef is the time of one kernel round, on every core at once, at
// reference speed: about the median on the 2-CPU machine README.md
// describes.
const kernelRef = 35 * time.Millisecond

type kernelNode struct {
	next *kernelNode
	key  int
	val  [4]int
}

// kernel does one fixed unit of work and returns a checksum, so none of
// it can be optimized away.
func kernel(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	m := make(map[int]*kernelNode)
	var head *kernelNode
	for i := 0; i < kernelNodes; i++ {
		n := &kernelNode{next: head, key: rng.Intn(1 << 20)}
		head = n
		m[n.key] = n
	}
	sum := 0
	for k := 0; k < 4; k++ {
		for n := head; n != nil; n = n.next {
			if x, ok := m[n.key^k]; ok {
				sum += x.key
			}
		}
	}
	keys := make([]int, 0, kernelNodes)
	for n := head; n != nil; n = n.next {
		keys = append(keys, n.key)
	}
	slices.Sort(keys)
	return sum + keys[len(keys)/2]
}

// machineClock times the kernel on GOMAXPROCS goroutines, as the
// workloads use the machine.
type machineClock struct {
	rounds []float64 // seconds per round
	last   time.Time // end of the latest round
	sink   atomic.Int64
}

// round runs the kernel once on every core and returns how long it took.
func (c *machineClock) round() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.sink.Add(int64(kernel(int64(g))))
		}()
	}
	wg.Wait()
	c.last = time.Now()
	el := c.last.Sub(t0)
	c.rounds = append(c.rounds, el.Seconds())
	return el
}

// sample runs kernelRounds rounds from a collected heap and leaves the
// heap collected. Workloads take a sample right before and right after
// their timed section.
func (c *machineClock) sample() {
	runtime.GC()
	for r := 0; r < kernelRounds; r++ {
		c.round()
	}
	runtime.GC()
}

// tick runs one round when kernelEvery has passed since the last one,
// and returns how long it took, for the caller to leave out of its
// timing. Workloads call it between the operations of a timed section.
func (c *machineClock) tick() time.Duration {
	if c == nil || time.Since(c.last) < kernelEvery {
		return 0
	}
	return c.round()
}

// slowdown is the median round over kernelRef: 2 means the machine ran
// at half the reference speed.
func (c *machineClock) slowdown() float64 {
	return median(c.rounds) / kernelRef.Seconds()
}
