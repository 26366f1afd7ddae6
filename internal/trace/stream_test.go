package trace

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"fxpar/internal/machine"
)

// streamedProducerConsumer runs the producerConsumer scenario with a
// Collector and the streaming sinks attached side by side through Tee.
func streamedProducerConsumer(t *testing.T) (*Collector, *UtilSink, *CommMatrix) {
	t.Helper()
	col := &Collector{}
	util := NewUtilSink(2)
	comm := NewCommMatrix(2)
	m := machine.New(2, intCost())
	m.SetTracer(Tee(col, util, comm))
	m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			p.BeginSpan("on:prod:group[0]")
			p.Compute(10)
			p.Send(1, 99, 4)
			p.EndSpan()
		} else {
			p.BeginSpan("on:cons:group[1]")
			p.Recv(0)
			p.Compute(2)
			p.EndSpan()
		}
	})
	return col, util, comm
}

// TestUtilSinkProducerConsumer: the streamed utilization holds each
// processor's exact per-kind time, its extent equals Collector.Span(), and
// the rendered table is exact under the integer cost model.
func TestUtilSinkProducerConsumer(t *testing.T) {
	col, util, _ := streamedProducerConsumer(t)
	snap := util.Snapshot()
	if snap.Dropped != 0 {
		t.Fatalf("UtilSink dropped %d events", snap.Dropped)
	}
	want := []ProcUtil{
		{Compute: 10, Send: 1, Events: 4}, // begin, compute, send, end
		{Compute: 2, Wait: 12, Events: 5}, // begin, wait, recv, compute, end
	}
	for pr, w := range want {
		if snap.PerProc[pr] != w {
			t.Errorf("p%d: streamed %+v, want %+v", pr, snap.PerProc[pr], w)
		}
	}
	start, end := col.Span()
	if snap.Start != start || snap.End != end || end != 14 {
		t.Errorf("streamed extent [%g,%g], collector span [%g,%g], want [0,14]", snap.Start, snap.End, start, end)
	}
	var buf bytes.Buffer
	snap.WriteText(&buf)
	const table = " proc   compute      send      wait        io\n" +
		"p0000     71.4%      7.1%      0.0%      0.0%\n" +
		"p0001     14.3%      0.0%     85.7%      0.0%\n"
	if buf.String() != table {
		t.Errorf("utilization table:\n%s--- want\n%s", buf.String(), table)
	}
}

// TestCommMatrixMatchesPostHoc: the streamed (src,dst) matrix must equal the
// reference fold over the full event log.
func TestCommMatrixMatchesPostHoc(t *testing.T) {
	col, _, comm := streamedProducerConsumer(t)
	live := comm.Snapshot()
	ref := CommFromEvents(col.Events())
	if len(live) != len(ref) {
		t.Fatalf("edge count: streaming %d != post-hoc %d", len(live), len(ref))
	}
	for i := range live {
		if live[i] != ref[i] {
			t.Errorf("edge %d: streaming %+v != post-hoc %+v", i, live[i], ref[i])
		}
	}
	// The scenario has exactly one communicating pair: p0 -> p1, one 4-byte
	// message sent and consumed.
	want := CommEdge{Src: 0, Dst: 1, MsgsSent: 1, BytesSent: 4, MsgsRecvd: 1, BytesRecvd: 4}
	if len(live) != 1 || live[0] != want {
		t.Errorf("matrix = %+v, want [%+v]", live, want)
	}
	var buf bytes.Buffer
	WriteCommMatrix(&buf, live)
	if !strings.Contains(buf.String(), "p0000 p0001") {
		t.Errorf("rendered matrix:\n%s", buf.String())
	}
}

// TestSnapshotsParallel: past parallelSnapshotMin processors the sinks fold
// their cells on parallel chunks, and the result must be exactly the
// per-processor truth — every cell copied once, the extent and every ring
// edge merged once.
func TestSnapshotsParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3)) // an uneven chunk split
	const procs = 3*parallelSnapshotMin + 7
	util, comm := NewUtilSink(procs), NewCommMatrix(procs)
	for i := 0; i < procs; i++ {
		next, at := (i+1)%procs, float64(i)
		util.Record(machine.Event{Proc: i, Kind: machine.EvCompute, Start: at, End: at + 0.5})
		comm.Record(machine.Event{Proc: i, Kind: machine.EvSend, Peer: next, Bytes: i%5 + 1})
		comm.Record(machine.Event{Proc: next, Kind: machine.EvRecv, Peer: i, Bytes: i%5 + 1})
	}
	us := util.Snapshot()
	if us.Start != 0 || us.End != procs-0.5 {
		t.Errorf("extent [%g, %g], want [0, %g]", us.Start, us.End, procs-0.5)
	}
	for i, u := range us.PerProc {
		if u != (ProcUtil{Compute: 0.5, Events: 1}) {
			t.Fatalf("proc %d: %+v", i, u)
		}
	}
	edges := comm.Snapshot()
	if len(edges) != procs {
		t.Fatalf("%d edges, want %d", len(edges), procs)
	}
	for i, e := range edges {
		b := int64(i%5 + 1)
		if want := (CommEdge{Src: i, Dst: (i + 1) % procs, MsgsSent: 1, BytesSent: b, MsgsRecvd: 1, BytesRecvd: b}); e != want {
			t.Fatalf("edge %d = %+v, want %+v", i, e, want)
		}
	}
}

// TestCollectorEventsCached: Events() must return the same cached slice until
// the next Record invalidates it.
func TestCollectorEventsCached(t *testing.T) {
	c := &Collector{}
	c.Record(machine.Event{Proc: 0, Kind: machine.EvCompute, Start: 0, End: 1, Seq: 1})
	ev1 := c.Events()
	ev2 := c.Events()
	if len(ev1) != 1 || len(ev2) != 1 {
		t.Fatalf("lens %d %d", len(ev1), len(ev2))
	}
	if &ev1[0] != &ev2[0] {
		t.Error("Events() rebuilt the view with no intervening Record")
	}
	c.Record(machine.Event{Proc: 1, Kind: machine.EvCompute, Start: 1, End: 2, Seq: 1})
	ev3 := c.Events()
	if len(ev3) != 2 {
		t.Errorf("after Record, Events() len = %d, want 2", len(ev3))
	}
}

// TestTeeFanOut: every child sees every event; nil children are skipped; a
// single-child tee unwraps to the child itself.
func TestTeeFanOut(t *testing.T) {
	a := &Collector{}
	b := &Collector{}
	tr := Tee(nil, a, nil, b)
	tr.Record(machine.Event{Proc: 0, Kind: machine.EvCompute, Start: 0, End: 1})
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fan-out: a=%d b=%d, want 1 and 1", a.Len(), b.Len())
	}
	if got := Tee(a); got != machine.Tracer(a) {
		t.Error("single-child Tee should unwrap")
	}
	if got := Tee(); got != nil {
		t.Error("empty Tee should be nil")
	}
}

// CommFromEvents computes the same communication matrix post-hoc from a
// recorded event slice (typically Collector.Events()); the reference
// implementation the streaming matrix is tested against.
func CommFromEvents(evs []machine.Event) []CommEdge {
	maxProc := 0
	for _, e := range evs {
		if e.Proc > maxProc {
			maxProc = e.Proc
		}
	}
	m := NewCommMatrix(maxProc + 1)
	for _, e := range evs {
		m.Record(e)
	}
	return m.Snapshot()
}
