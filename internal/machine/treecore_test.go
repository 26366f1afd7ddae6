package machine

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// This file is the golden cross-check of the machine core's parallel
// setup/teardown machinery (tree.go) and of its executors. The spawn tree
// is unit-tested directly — every index exactly once, at grains
// small enough to fork on tiny ranges. Whole runs are then compared across
// executors at the same P: the reference is the one-worker coop engine,
// which runs the processors serially in lowest-clock order, and the
// goroutine engine and the four-worker coop engine must be byte-identical
// to it, with and without a fault plan. "Byte-identical"
// means: the same RunStats, the same traced event values (compared after a
// canonical (proc, seq) sort — arrival order at the tracer is
// host-dependent, content is not), and the same failure text when a run
// panics (drain reports, RunError aggregates).

// TestTreeFunctionsVisitEveryIndexOnce: treeSpawn starts exactly one leaf
// per index, at every grain — the property that makes the index-addressed
// spawn independent of how the tree split. (The loop half of the tree
// machinery, forkjoin.For, carries the same contract in its own package.)
func TestTreeFunctionsVisitEveryIndexOnce(t *testing.T) {
	for grain := 1; grain <= 8; grain++ {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 64, 100, 257} {
			visits := make([]atomic.Int32, n)
			var wg sync.WaitGroup
			wg.Add(n)
			treeSpawn(n, grain, func(i int) {
				visits[i].Add(1)
				wg.Done()
			})
			wg.Wait()
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Fatalf("n=%d grain=%d: index %d spawned %d times, want once", n, grain, i, got)
				}
			}
		}
	}
}

// golden is one run's complete observable output.
type golden struct {
	stats   RunStats
	events  []Event
	failure string
}

// goldenRun executes body on a fresh machine and captures everything a
// caller can observe.
func goldenRun(t *testing.T, e Engine, n int, fp FaultPlan, body func(*Proc)) golden {
	t.Helper()
	var g golden
	tr := &sliceTracer{}
	func() {
		defer func() {
			if r := recover(); r != nil {
				g.failure = failureString(r)
			}
		}()
		m := New(n, testCost())
		m.SetEngine(e)
		m.SetTracer(tr)
		if fp != nil {
			m.SetFaults(fp)
		}
		g.stats = m.Run(body)
	}()
	g.events = tr.evs
	sort.Slice(g.events, func(i, j int) bool {
		if g.events[i].Proc != g.events[j].Proc {
			return g.events[i].Proc < g.events[j].Proc
		}
		return g.events[i].Seq < g.events[j].Seq
	})
	return g
}

// failureString renders a Run panic deterministically: RunError aggregates
// are expanded to every per-processor panic (already in ascending proc
// order), other panics (the drain report string) print as-is.
func failureString(r any) string {
	if re, ok := r.(*RunError); ok {
		parts := []string{re.Error()}
		for _, p := range re.Panics {
			parts = append(parts, fmt.Sprintf("proc %d: %v", p.Proc, p.Value))
		}
		return strings.Join(parts, "; ")
	}
	return fmt.Sprint(r)
}

func compareGolden(t *testing.T, label string, want, got golden) {
	t.Helper()
	if got.failure != want.failure {
		t.Fatalf("%s: failure diverges from reference:\n got: %q\nwant: %q", label, got.failure, want.failure)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		for i := range want.stats.Procs {
			if i < len(got.stats.Procs) && got.stats.Procs[i] != want.stats.Procs[i] {
				t.Fatalf("%s: ProcStats[%d] = %+v, reference %+v", label, i, got.stats.Procs[i], want.stats.Procs[i])
			}
		}
		t.Fatalf("%s: RunStats shape diverges: %d procs vs reference %d",
			label, len(got.stats.Procs), len(want.stats.Procs))
	}
	if len(got.events) != len(want.events) {
		t.Fatalf("%s: %d events, reference %d", label, len(got.events), len(want.events))
	}
	for i := range want.events {
		if got.events[i] != want.events[i] {
			t.Fatalf("%s: event %d = %+v, reference %+v", label, i, got.events[i], want.events[i])
		}
	}
}

// ringBody is the cross-check workload: every processor opens a span, does
// id-dependent compute, sends to its successor, receives from its
// predecessor (a self-send-then-receive when n == 1), and does id-dependent
// IO — exercising spans, compute, send/recv wait accounting, and IO events
// with per-processor variation so index mixups cannot cancel out.
func ringBody(n int) func(*Proc) {
	return func(p *Proc) {
		next := (p.ID() + 1) % n
		prev := (p.ID() + n - 1) % n
		p.BeginSpan("ring")
		p.Compute(float64(40 + p.ID()%7))
		p.Send(next, p.ID(), 16+p.ID()%9)
		p.Recv(prev)
		p.IO(64 + p.ID()%5)
		p.EndSpan()
	}
}

// treeCheckEngines are the executors checked against the Coop(1) reference:
// one goroutine per processor, and the coop scheduler on four workers.
func treeCheckEngines() []Engine {
	return []Engine{Goroutine(), Coop(4)}
}

// treeCheckSizes is the property test's P sweep: every size in [1, 257] —
// covering off-by-one splits, odd sizes, and every boundary of the small
// regime — plus 1<<10 (one full spawn leaf) and 1<<14 (past spawnGrain, so
// treeSpawn actually forks, and past initGrain, so the forkjoin.For loops and
// the parallel drain fold actually run parallel). Under the race detector the small range is
// decimated (the detector's ~10x slowdown times the CI engine matrix would
// dominate the suite) while every boundary and both tree-activating sizes
// are kept.
func treeCheckSizes() []int {
	var sizes []int
	if raceEnabled {
		sizes = append(sizes, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
			85, 127, 128, 129, 171, 255, 256, 257)
	} else {
		for n := 1; n <= 257; n++ {
			sizes = append(sizes, n)
		}
	}
	return append(sizes, 1<<10, 1<<14)
}

// TestTreeCoreMatchesSerialReference is the golden cross-check: for every
// machine size, a run under each parallel executor must be byte-identical —
// events, RunStats — to the serial (one-worker coop) reference run.
func TestTreeCoreMatchesSerialReference(t *testing.T) {
	for _, n := range treeCheckSizes() {
		body := ringBody(n)
		ref := goldenRun(t, Coop(1), n, nil, body)
		if ref.failure != "" {
			t.Fatalf("P=%d: reference run failed: %s", n, ref.failure)
		}
		if len(ref.events) == 0 {
			t.Fatalf("P=%d: reference run recorded no events", n)
		}
		for _, e := range treeCheckEngines() {
			got := goldenRun(t, e, n, nil, body)
			compareGolden(t, fmt.Sprintf("P=%d %s", n, e.Name()), ref, got)
		}
	}
}

// drainBody leaves messages unconsumed: every third processor sends its
// successor an extra message nobody receives, so Run must panic with the
// drain report. The report's text (sorted pairs, capped listing, total) must
// be the one wantDrainReport spells out, whether the drain walk ran serially
// or as a parallel fold.
func drainBody(n int) func(*Proc) {
	return func(p *Proc) {
		next := (p.ID() + 1) % n
		p.Send(next, nil, 8)
		if p.ID()%3 == 0 {
			p.Send(next, nil, 8)
		}
		p.Recv((p.ID() + n - 1) % n)
	}
}

// wantDrainReport is drainBody's drain report written out independently of
// drainReport's walk: one leftover per sender 0, 3, 6, ..., listed in
// (dst, src) order — sender n-1's pair, when it has one, sorts first because
// its destination is processor 0 — capped at eight pairs.
func wantDrainReport(n int) string {
	var srcs []int
	if (n-1)%3 == 0 {
		srcs = append(srcs, n-1)
	}
	for src := 0; src < n-1; src += 3 {
		srcs = append(srcs, src)
	}
	var list []string
	for _, src := range srcs[:min(len(srcs), 8)] {
		list = append(list, fmt.Sprintf("1 from %d to %d", src, (src+1)%n))
	}
	msg := fmt.Sprintf("machine: %d unconsumed message(s) at program exit: %s", len(srcs), strings.Join(list, ", "))
	if len(srcs) > 8 {
		msg += fmt.Sprintf(", ... (%d more pair(s))", len(srcs)-8)
	}
	return msg
}

func TestTreeDrainReportMatchesSerial(t *testing.T) {
	sizes := []int{3, 17, 130}
	if !raceEnabled {
		// Past initGrain the drain walk actually forks and merges.
		sizes = append(sizes, 1<<14)
	}
	for _, n := range sizes {
		body := drainBody(n)
		ref := goldenRun(t, Coop(1), n, nil, body)
		if want := wantDrainReport(n); ref.failure != want {
			t.Fatalf("P=%d: drain report\n got: %q\nwant: %q", n, ref.failure, want)
		}
		for _, e := range treeCheckEngines() {
			got := goldenRun(t, e, n, nil, body)
			compareGolden(t, fmt.Sprintf("P=%d %s drain", n, e.Name()), ref, got)
		}
	}
}

// killTestPlan is an in-package fault plan: processors congruent to 3 mod 11
// run 2.5x slow, some messages are delayed or duplicated, and the victim
// dies at its first post-compute operation, so its successor fails with
// DeadSenderError and Run panics with a two-panic RunError.
type killTestPlan struct {
	victim int
}

func (tp *killTestPlan) MessageFault(src, dst int, seq int64) MessageFault {
	var mf MessageFault
	if (src+dst+int(seq))%5 == 0 {
		mf.Delay = 3e-4
	}
	if (src*2+dst)%7 == 0 {
		mf.Duplicate = true
	}
	return mf
}

func (tp *killTestPlan) ProcFaults(n int, visit func(proc int, slow, deathAt float64)) {
	for i := 0; i < n; i++ {
		slow, death := 0.0, 0.0
		if i%11 == 3 {
			slow = 2.5
		}
		if i == tp.victim {
			death = 1e-7
		}
		if slow > 0 || death > 0 {
			visit(i, slow, death)
		}
	}
}

// TestTreeCoreKillCascadeMatchesSerial: the failure path — death marker,
// panic capture, RunError aggregation and root-cause ordering — must be
// byte-identical between every parallel executor and the serial reference
// under the same plan.
func TestTreeCoreKillCascadeMatchesSerial(t *testing.T) {
	for _, n := range []int{8, 130, 1 << 10} {
		plan := func() *killTestPlan { return &killTestPlan{victim: n / 2} }
		body := ringBody(n)
		ref := goldenRun(t, Coop(1), n, plan(), body)
		if !strings.Contains(ref.failure, "died at virtual time") {
			t.Fatalf("P=%d: reference kill run did not fail with a death: %q", n, ref.failure)
		}
		for _, e := range treeCheckEngines() {
			got := goldenRun(t, e, n, plan(), body)
			compareGolden(t, fmt.Sprintf("P=%d %s kill", n, e.Name()), ref, got)
		}
	}
}
