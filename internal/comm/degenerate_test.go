package comm

import (
	"fmt"
	"reflect"
	"testing"

	"fxpar/internal/fault"
	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// TestCollectivesOnDegenerateGroups runs every collective on the
// degenerate group shapes — a singleton, a two-member
// group with a gap, non-contiguous and permuted physical ids — with and
// without a non-lethal fault plan. Non-lethal chaos perturbs timing only,
// so the values must be identical in all configurations.
func TestCollectivesOnDegenerateGroups(t *testing.T) {
	const procs = 6
	flaky, err := fault.ProfileByName("flaky")
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name string
		phys []int
	}{
		{"size1", []int{2}},
		{"size2-gap", []int{0, 3}},
		{"noncontig", []int{1, 3, 4}},
		{"permuted", []int{5, 0, 2, 4}},
	}
	plans := []struct {
		name string
		plan machine.FaultPlan
	}{
		{"healthy", nil},
		{"chaotic", fault.New(11, flaky).Machine()},
	}
	add := func(a, b int) int { return a + b }
	for _, pc := range plans {
		for _, sc := range shapes {
			t.Run(fmt.Sprintf("%s/%s", pc.name, sc.name), func(t *testing.T) {
				m := testMachine(procs)
				m.SetFaults(pc.plan)
				g := group.MustNew(sc.phys)
				n := g.Size()
				payload := []int{10, 20, 30}
				m.Run(func(p *machine.Proc) {
					r, member := g.RankOf(p.ID())
					if !member {
						return // outsiders must be untouched
					}
					Barrier(p, g)
					if got := Bcast(p, g, 0, payload); !reflect.DeepEqual(got, payload) {
						t.Errorf("rank %d: Bcast = %v, want %v", r, got, payload)
					}
					sum := Reduce(p, g, 0, r+1, add)
					if r == 0 && sum != n*(n+1)/2 {
						t.Errorf("Reduce at root = %d, want %d", sum, n*(n+1)/2)
					}
					flat := GatherFlat(p, g, 0, []int{r * 10})
					if r == 0 {
						want := make([]int, n)
						for i := range want {
							want[i] = i * 10
						}
						if !reflect.DeepEqual(flat, want) {
							t.Errorf("GatherFlat = %v, want %v", flat, want)
						}
					}
					all := AllGather(p, g, []int{r})
					for i, part := range all {
						if len(part) != 1 || part[0] != i {
							t.Errorf("rank %d: AllGather[%d] = %v", r, i, part)
						}
					}
				})
			})
		}
	}
}
