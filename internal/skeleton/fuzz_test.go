package skeleton

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// FuzzSkeletonDecode: Decode never panics, and a skeleton it accepts re-costs
// at its recorded parameters to a finite makespan or an error. Each input's
// op rows are also re-filed under their own content key, so mutated rows —
// which break the key the file claims — still reach Decode and Recost.
func FuzzSkeletonDecode(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden.fxskel")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, op := range []Op{
		{Kind: machine.EvCompute, Dur: 1e-3, Peer: -1, Label: -1, Span: 0},
		{Kind: machine.EvSend, Dur: 4e-5, Peer: 0, Bytes: 8, PairSeq: 1, Wire: 1.2e-4, Label: -1, Span: -1},
		{Kind: machine.EvRecv, Peer: 1, Bytes: 8, PairSeq: 1, Label: -1, Span: -1},
		{Kind: machine.EvRetry, Peer: 1, Label: -1, Span: -1}, // re-spelled as a timeout row below
		{Kind: machine.EvSpanBegin, Peer: -1, Label: 0, Depth: 1, Span: -1},
		{Kind: machine.EvCompute, Dur: math.MaxFloat64, Peer: -1, Label: -1, Span: -1},
		{Kind: machine.EvCompute, Dur: math.Inf(1), Peer: -1, Label: -1, Span: -1},
		{Kind: machine.EvSend, Dur: math.NaN(), Peer: 0, PairSeq: 1, Wire: -1, Label: -1, Span: -1},
	} {
		sk := &Skeleton{P: 2, Cost: sim.Paragon(), Labels: []string{"stage:a"}, Procs: [][]Op{{op, op}, {op}}}
		key, err := sk.Key()
		if err != nil {
			f.Fatal(err)
		}
		data, err := sk.encode(key)
		if err != nil {
			f.Fatal(err)
		}
		if op.Kind == machine.EvRetry {
			// No op kind is named "timeout": Decode must reject the row.
			data = bytes.ReplaceAll(data, []byte(`"retry p=1"`), []byte(`"timeout d=0.5 p=1"`))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if sk, err := Decode(data); err == nil {
			recostFinite(t, sk)
		}
		var file skelFile
		if json.Unmarshal(data, &file) != nil {
			return
		}
		s := &Skeleton{P: file.P, Cost: file.Cost, Chaos: file.Chaos, Makespan: file.Makespan,
			Labels: file.Labels, Procs: make([][]Op, len(file.Procs))}
		for i, rows := range file.Procs {
			for _, row := range rows {
				op, err := parseOp(row)
				if err != nil {
					return
				}
				s.Procs[i] = append(s.Procs[i], op)
			}
		}
		key, err := s.Key()
		if err != nil {
			t.Fatalf("Key of parsed ops: %v", err)
		}
		raw, err := s.encode(key)
		if err != nil {
			t.Fatalf("encode of parsed ops: %v", err)
		}
		if sk, err := Decode(raw); err == nil {
			recostFinite(t, sk)
		}
	})
}

// recostFinite fails t if sk re-costs at its recorded parameters to a
// non-finite makespan without an error.
func recostFinite(t *testing.T, sk *Skeleton) {
	t.Helper()
	if mk, err := sk.Recost(Params{}); err == nil && !finite(mk) {
		t.Fatalf("Recost(Params{}) = %v with a nil error", mk)
	}
}
