package machine_test

import (
	"testing"

	"fxpar/internal/comm"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// TestInboxWideFanInReverseArrival: a 4096-way comm.Gather whose senders
// deposit in descending rank order (each waits for a token from the rank
// above it, and passes one down after its deposit) must return every part
// at the root, whose inbox then holds 4094 messages ahead of the one it asks
// for first. Matching by source must not rescan them per receive: the root's
// receives may compare at most 4n queued messages in total.
func TestInboxWideFanInReverseArrival(t *testing.T) {
	const n = 4096
	for _, name := range []string{"goroutine", "coop", "coop:4"} {
		t.Run(name, func(t *testing.T) {
			e, err := machine.EngineByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.New(n, sim.Paragon())
			m.SetEngine(e)
			g := group.World(n)
			var parts [][]int
			var probes int64
			m.Run(func(p *machine.Proc) {
				r := p.ID()
				if r > 0 && r < n-1 {
					p.Recv(r + 1)
				}
				before := p.Probes()
				got := comm.Gather(p, g, 0, []int{r})
				if r == 0 {
					parts, probes = got, p.Probes()-before
				} else if r > 1 {
					p.Send(r-1, nil, 4)
				}
			})
			for r, part := range parts {
				if len(part) != 1 || part[0] != r {
					t.Fatalf("part %d = %v, want [%d]", r, part, r)
				}
			}
			t.Logf("root compared %d queued messages over %d receives", probes, n-1)
			if probes > 4*n {
				t.Errorf("root compared %d queued messages, want <= %d", probes, 4*n)
			}
		})
	}
}
