package skeleton

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// FuzzSkeletonDecode: Decode never panics; a skeleton it accepts, the oracle
// (the encoding/json codec in oracle_test.go) accepts too, as an equal
// skeleton, and it re-costs at its recorded parameters to a finite makespan
// or an error. Whatever the oracle parses, Encode writes as the oracle does,
// and that re-filing — under its own content key, so mutated rows that break
// the key the input claims still get there — goes through the same checks.
func FuzzSkeletonDecode(f *testing.F) {
	for _, seed := range fileSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		s, _, err := oracleParse(data)
		if err != nil {
			return
		}
		raw, err := s.Encode()
		if err != nil {
			t.Fatalf("Encode of parsed ops: %v", err)
		}
		if want, err := oracleEncode(s); err != nil || !bytes.Equal(raw, want) {
			t.Fatalf("Encode differs from the oracle (err %v):\n got %s\nwant %s", err, raw, want)
		}
		checkDecode(t, raw)
	})
}

// FuzzSkeletonStoreDecode: the store codec's decoder never panics, and what
// it accepts the oracle's envelope decoder accepts too, with the same store
// key and an equal skeleton.
func FuzzSkeletonStoreDecode(f *testing.F) {
	for _, seed := range fileSeeds(f) {
		sk, err := oracleDecode(seed)
		if err != nil {
			continue
		}
		env, err := storeCodec.Encode("app=<ffthist>&é|P=3", sk)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
		var compact, tabs bytes.Buffer
		if json.Compact(&compact, env) != nil || json.Indent(&tabs, env, "", "\t") != nil {
			f.Fatal("envelope is not JSON")
		}
		f.Add(compact.Bytes())
		f.Add(tabs.Bytes())
		f.Add(bytes.Replace(env, []byte(`"app=`), []byte(`"\u0061pp=`), 1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		key, sk, err := storeCodec.Decode(data)
		if err != nil {
			return
		}
		wkey, want, oerr := oracleStoreDecode(data)
		if oerr != nil {
			t.Fatalf("store decoder accepted what the oracle refuses (%v):\n%s", oerr, data)
		}
		if key != wkey || !reflect.DeepEqual(sk, want) {
			t.Fatalf("store decoder and oracle disagree: key %q vs %q\n%+v\n%+v", key, wkey, sk, want)
		}
	})
}

// fileSeeds returns the golden file, small files that each exercise one op
// shape (some invalid), and non-canonical spellings of the golden file a
// loose reader would accept: a row without its comma, the file compacted,
// and a form feed between rows.
func fileSeeds(f *testing.F) [][]byte {
	golden, err := os.ReadFile("testdata/golden.fxskel")
	if err != nil {
		f.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, golden); err != nil {
		f.Fatal(err)
	}
	rowEnd := []byte("\",\n   \"")
	seeds := [][]byte{golden, compact.Bytes(),
		bytes.Replace(golden, rowEnd, []byte("\"\n   \""), 1),
		bytes.Replace(golden, rowEnd, []byte("\",\n\f   \""), 1),
	}
	for _, op := range []Op{
		{Kind: machine.EvCompute, Dur: 1e-3, Peer: -1, Label: -1, Span: 0},
		{Kind: machine.EvSend, Dur: 4e-5, Peer: 0, Bytes: 8, PairSeq: 1, Wire: 1.2e-4, Label: -1, Span: -1},
		{Kind: machine.EvRecv, Peer: 1, Bytes: 8, PairSeq: 1, Label: -1, Span: -1},
		{Kind: machine.EvRetry, Peer: 1, Label: -1, Span: -1}, // re-spelled as a timeout row below
		{Kind: machine.EvSpanBegin, Peer: -1, Label: 0, Depth: 1, Span: -1},
		{Kind: machine.EvSpanEnd, Peer: -1, Label: 1, Span: 1}, // only label 0 exists
		{Kind: machine.EvCompute, Dur: math.MaxFloat64, Peer: -1, Label: -1, Span: -1},
		{Kind: machine.EvCompute, Dur: math.Inf(1), Peer: -1, Label: -1, Span: -1},
		{Kind: machine.EvSend, Dur: math.NaN(), Peer: 0, PairSeq: 1, Wire: -1, Label: -1, Span: -1},
	} {
		sk := &Skeleton{P: 2, Cost: sim.Paragon(), Labels: []string{"stage:a"}, Procs: [][]Op{{op, op}, {op}}}
		data, err := sk.Encode()
		if err != nil {
			f.Fatal(err)
		}
		if op.Kind == machine.EvRetry {
			// No op kind is named "timeout": Decode must reject the row.
			data = bytes.ReplaceAll(data, []byte(`"retry p=1"`), []byte(`"timeout d=0.5 p=1"`))
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// checkDecode fails t if Decode accepts data and the oracle does not, or
// decodes it differently, or if the skeleton re-costs to a non-finite
// makespan without an error.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	sk, err := Decode(data)
	if err != nil {
		return
	}
	want, oerr := oracleDecode(data)
	if oerr != nil {
		t.Fatalf("Decode accepted what the oracle refuses (%v):\n%s", oerr, data)
	}
	if !reflect.DeepEqual(sk, want) {
		t.Fatalf("Decode and the oracle disagree:\n got %+v\nwant %+v", sk, want)
	}
	if mk, err := sk.Recost(Params{}); err == nil && !finite(mk) {
		t.Fatalf("Recost(Params{}) = %v with a nil error", mk)
	}
}
