package machine

import (
	"sync"
)

// goroutineEngine is the preemptive execution core: one host goroutine per
// simulated processor, with a blocked receiver parked on its own wake
// channel until the depositor sends to it. The Go runtime schedules the
// processors; host execution order is arbitrary (virtual-time results are
// deterministic regardless). This is the original machine semantics and the
// default engine.
type goroutineEngine struct{}

var goroutineSingleton Engine = goroutineEngine{}

// Goroutine returns the preemptive goroutine-per-processor engine.
func Goroutine() Engine { return goroutineSingleton }

func (goroutineEngine) Name() string { return "goroutine" }

func (goroutineEngine) park(p *Proc, _ int) { <-p.wake }

func (goroutineEngine) wake(p *Proc, _ float64) { p.wake <- struct{}{} }

func (goroutineEngine) run(_ *Machine, procs []Proc, body func(*Proc), rec *panicRecorder) {
	var wg sync.WaitGroup
	wg.Add(len(procs))
	treeSpawn(len(procs), spawnGrain, func(i int) {
		p := &procs[i]
		defer wg.Done()
		defer rec.capture(p.id)
		body(p)
	})
	wg.Wait()
}
