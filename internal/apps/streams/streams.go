// Package streams holds the shared harness structure of the stream-based
// sensor applications (FFT-Hist, radar, stereo): dividing the machine into
// replicated modules (Section 3.3) that process alternate data sets, with
// leftover processors idling — the skeleton every one of those programs
// shares around its per-module pipeline or data-parallel body.
package streams

import (
	"fmt"
	"sync"

	"fxpar/internal/dist"
	"fxpar/internal/fx"
	"fxpar/internal/group"
)

// partCache memoizes the partition template by (parent group, sizes). Under
// SPMD every processor of the group executes the same RunModules call, so
// without sharing, each of P processors would build its own O(modules)
// template — an O(P·modules) tax per region that dominated the P≥16384
// telemetry soak. Partitions are immutable after construction, so one
// template is safe to share across processors; construction happens on the
// host side only and never touches virtual time.
var partCache struct {
	sync.Mutex
	m map[partKey]*group.Partition
}

// partKey names sizes by its backing array, which every processor of a run
// shares and the key keeps alive, so no other slice can take its address.
type partKey struct {
	parent *group.Group
	sizes  *int
	n      int
}

// sharedPartition returns the (possibly cached) partition of the current
// group into module subgroups of the given sizes plus an optional idle tail.
func sharedPartition(p *fx.Proc, sizes []int, idle int) *group.Partition {
	key := partKey{parent: p.Group(), sizes: &sizes[0], n: len(sizes)}
	partCache.Lock()
	defer partCache.Unlock()
	if part, ok := partCache.m[key]; ok {
		return part
	}
	if partCache.m == nil || len(partCache.m) >= 256 {
		partCache.m = make(map[partKey]*group.Partition, 16)
	}
	specs := make([]group.Spec, 0, len(sizes)+1)
	for i, s := range sizes {
		specs = append(specs, group.Sub(ModuleName(i), s))
	}
	if idle > 0 {
		specs = append(specs, group.Sub("idle", idle))
	}
	part := p.Partition(specs...)
	partCache.m[key] = part
	return part
}

// RunModules partitions the current group into one subgroup per entry of
// sizes — sizes[i] processors for module i, not necessarily equal, so the
// optimizer can hand leftover processors to some modules — with any
// remaining processors idling (like the nodes the paper's data-parallel
// radar could not exploit), and runs body on each module with its index.
// With one module and no idle processors the body runs directly on the
// current group, avoiding a needless partition level. The sizes must be
// positive and sum to at most the current group size; processors passing
// the same slice share one partition (see partCache).
func RunModules(p *fx.Proc, sizes []int, body func(p *fx.Proc, module int)) {
	np := p.NumberOfProcessors()
	modules := len(sizes)
	used := 0
	for _, s := range sizes {
		if s < 1 {
			panic(fmt.Sprintf("streams: non-positive module size in %v", sizes))
		}
		used += s
	}
	if modules < 1 || used > np {
		panic(fmt.Sprintf("streams: cannot run modules %v on %d processors", sizes, np))
	}
	idle := np - used
	if modules == 1 && idle == 0 {
		body(p, 0)
		return
	}
	part := sharedPartition(p, sizes, idle)
	// Each processor enters only its own module's On block. Iterating every
	// module would cost O(modules) per processor even though a non-member On
	// is a no-op; an On entered by a non-member emits nothing and advances no
	// virtual time, so dispatching directly leaves traces byte-identical.
	module, ok := part.IndexOf(p.ID())
	p.TaskRegion(part, func(r *fx.Region) {
		if !ok || module >= modules { // idle tail
			return
		}
		r.On(ModuleName(module), func() {
			body(p, module)
		})
	})
}

// Uniform returns the sizes slice of modules equal modules of per
// processors each.
func Uniform(modules, per int) []int {
	sizes := make([]int, modules)
	for i := range sizes {
		sizes[i] = per
	}
	return sizes
}

// ModuleName returns the subgroup name of module i.
func ModuleName(i int) string { return fmt.Sprintf("mod%d", i) }

// Frame returns the full-size buffer rank 0 of a's group reads a data set
// into before scattering it over a; nil on every other processor and under
// charge. A module allocates its frames once and overwrites them per set.
func Frame[T any](a *dist.Array[T], charge bool) []T {
	if a.Rank() != 0 || charge {
		return nil
	}
	return make([]T, a.Layout().Size())
}
