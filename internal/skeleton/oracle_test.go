package skeleton

// The encoding/json codec skeleton files were first written with, kept as
// the oracle the hand-written codec is held to: Encode must write the bytes
// it writes, and whatever Decode accepts it must accept too, with an equal
// skeleton.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// oracleFile is the oracle's schema of a serialized skeleton.
type oracleFile struct {
	Format   int           `json:"format"`
	Key      string        `json:"key"`
	P        int           `json:"p"`
	Cost     sim.CostModel `json:"cost"`
	Chaos    string        `json:"chaos,omitempty"`
	Makespan float64       `json:"makespan"`
	Ops      int           `json:"ops"`
	Labels   []string      `json:"labels"`
	Procs    [][]string    `json:"procs"`
}

// oracleStoreFile is the oracle's store envelope.
type oracleStoreFile struct {
	StoreKey string          `json:"storeKey"`
	Skeleton json.RawMessage `json:"skeleton"`
}

func oracleFtoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func oracleFormatOp(op Op) string {
	var b strings.Builder
	b.WriteString(op.Kind.String())
	if op.Dur != 0 {
		b.WriteString(" d=" + oracleFtoa(op.Dur))
	}
	if op.Peer >= 0 {
		b.WriteString(" p=" + strconv.Itoa(op.Peer))
	}
	if op.Bytes != 0 {
		b.WriteString(" b=" + strconv.Itoa(op.Bytes))
	}
	if op.PairSeq != 0 {
		b.WriteString(" q=" + strconv.FormatInt(op.PairSeq, 10))
	}
	if op.Wire != 0 {
		b.WriteString(" w=" + oracleFtoa(op.Wire))
	}
	if op.Label >= 0 {
		b.WriteString(" l=" + strconv.Itoa(op.Label))
	}
	if op.Depth != 0 {
		b.WriteString(" e=" + strconv.Itoa(op.Depth))
	}
	if op.Span >= 0 {
		b.WriteString(" s=" + strconv.Itoa(op.Span))
	}
	return b.String()
}

func oracleParseOp(s string) (Op, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return Op{}, fmt.Errorf("empty op")
	}
	kind, ok := kindByName[fields[0]]
	if !ok {
		return Op{}, fmt.Errorf("unknown op kind %q", fields[0])
	}
	op := Op{Kind: kind, Peer: -1, Label: -1, Span: -1}
	for _, tok := range fields[1:] {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return Op{}, fmt.Errorf("malformed op token %q", tok)
		}
		var err error
		switch key {
		case "d":
			op.Dur, err = strconv.ParseFloat(val, 64)
		case "p":
			op.Peer, err = strconv.Atoi(val)
		case "b":
			op.Bytes, err = strconv.Atoi(val)
		case "q":
			op.PairSeq, err = strconv.ParseInt(val, 10, 64)
		case "w":
			op.Wire, err = strconv.ParseFloat(val, 64)
		case "l":
			op.Label, err = strconv.Atoi(val)
		case "e":
			op.Depth, err = strconv.Atoi(val)
		case "s":
			op.Span, err = strconv.Atoi(val)
		default:
			return Op{}, fmt.Errorf("unknown op field %q", key)
		}
		if err != nil {
			return Op{}, err
		}
	}
	if !(op.Dur >= 0 && op.Dur <= math.MaxFloat64 && op.Wire >= 0 && op.Wire <= math.MaxFloat64) {
		return Op{}, fmt.Errorf("op %q has a negative or non-finite time", s)
	}
	return op, nil
}

// oracleEncodeKeyed marshals s with the given content key.
func oracleEncodeKeyed(s *Skeleton, key string) ([]byte, error) {
	f := oracleFile{
		Format: FormatVersion, Key: key, P: s.P, Cost: s.Cost, Chaos: s.Chaos,
		Makespan: s.Makespan, Ops: s.Ops(), Labels: s.Labels,
		Procs: make([][]string, len(s.Procs)),
	}
	if f.Labels == nil {
		f.Labels = []string{}
	}
	for i, ops := range s.Procs {
		rows := make([]string, len(ops))
		for j, op := range ops {
			rows[j] = oracleFormatOp(op)
		}
		f.Procs[i] = rows
	}
	out, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func oracleKey(s *Skeleton) (string, error) {
	raw, err := oracleEncodeKeyed(s, "")
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("fxskel-%016x", h.Sum64()), nil
}

// oracleEncode is the oracle's Encode.
func oracleEncode(s *Skeleton) ([]byte, error) {
	key, err := oracleKey(s)
	if err != nil {
		return nil, err
	}
	return oracleEncodeKeyed(s, key)
}

// oracleParse parses a file without checking its content key.
func oracleParse(data []byte) (*Skeleton, string, error) {
	var f oracleFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, "", err
	}
	if f.Format != FormatVersion {
		return nil, "", fmt.Errorf("unsupported format %d", f.Format)
	}
	s := &Skeleton{
		P: f.P, Cost: f.Cost, Chaos: f.Chaos, Makespan: f.Makespan,
		Labels: f.Labels, Procs: make([][]Op, len(f.Procs)),
	}
	for i, rows := range f.Procs {
		ops := make([]Op, len(rows))
		for j, row := range rows {
			op, err := oracleParseOp(row)
			if err != nil {
				return nil, "", err
			}
			if op.Label >= len(s.Labels) || op.Span >= len(s.Labels) {
				return nil, "", fmt.Errorf("op references label out of range: %q", row)
			}
			ops[j] = op
		}
		s.Procs[i] = ops
	}
	return s, f.Key, nil
}

// oracleDecode is the oracle's Decode.
func oracleDecode(data []byte) (*Skeleton, error) {
	s, fileKey, err := oracleParse(data)
	if err != nil {
		return nil, err
	}
	key, err := oracleKey(s)
	if err != nil {
		return nil, err
	}
	if key != fileKey {
		return nil, fmt.Errorf("content key mismatch")
	}
	return s, nil
}

// oracleStoreEncode is the oracle's store codec Encode.
func oracleStoreEncode(key string, s *Skeleton) ([]byte, error) {
	inner, err := oracleEncode(s)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(&oracleStoreFile{StoreKey: key, Skeleton: inner}, "", " ")
	return append(data, '\n'), err
}

// oracleStoreDecode is the oracle's store codec Decode.
func oracleStoreDecode(data []byte) (string, *Skeleton, error) {
	var f oracleStoreFile
	if err := json.Unmarshal(data, &f); err != nil {
		return "", nil, err
	}
	s, err := oracleDecode(f.Skeleton)
	return f.StoreKey, s, err
}

// OracleStoreFile re-files a store file's content through the oracle, for
// the external test package.
func OracleStoreFile(data []byte) ([]byte, error) {
	key, s, err := oracleStoreDecode(data)
	if err != nil {
		return nil, err
	}
	return oracleStoreEncode(key, s)
}

// TestEncodeMatchesOracle pins Encode, Key and the store envelope to the
// oracle's bytes on the shapes a capture rarely produces, and holds both
// decoders to the oracle's skeletons for them. A NaN makespan fails both
// encoders.
func TestEncodeMatchesOracle(t *testing.T) {
	ops := []Op{
		{Kind: machine.EvSpanBegin, Peer: -1, Label: 0, Span: -1},
		{Kind: machine.EvCompute, Dur: 0.25, Peer: -1, Label: -1, Span: 0},
		{Kind: machine.EvSend, Dur: 4e-5, Peer: 1, Bytes: 1 << 20, PairSeq: 7, Wire: 1.5e-300, Label: -1, Span: 0},
		{Kind: machine.EvSpanEnd, Peer: -1, Label: 0, Depth: 2, Span: 0},
	}
	base := func() *Skeleton {
		return &Skeleton{P: 2, Cost: sim.Paragon(), Labels: []string{"stage:a"}, Makespan: 0.25004,
			Procs: [][]Op{ops, {{Kind: machine.EvRecv, Peer: 0, Bytes: 1 << 20, PairSeq: 7, Label: -1, Span: -1}}}}
	}
	edit := func(f func(s *Skeleton)) *Skeleton { s := base(); f(s); return s }
	cases := []struct {
		name string
		sk   *Skeleton
	}{
		{"capture shape", base()},
		{"labels with <&> and non-ASCII", edit(func(s *Skeleton) { s.Labels = []string{"stage:<a&b>", "étape π", " \x00\"\\"} })},
		{"chaos stamp", edit(func(s *Skeleton) { s.Chaos = "7:havoc" })},
		{"nil labels", edit(func(s *Skeleton) { s.Labels = nil; s.Procs = s.Procs[1:] })},
		{"processor with no ops", edit(func(s *Skeleton) { s.P = 3; s.Procs = append(s.Procs, []Op{}, nil) })},
		{"zero processors", edit(func(s *Skeleton) { s.P = 0; s.Procs = nil })},
		{"exponent cost fields", edit(func(s *Skeleton) {
			s.Cost = sim.CostModel{FlopRate: 1e21, Alpha: 1e-7, Beta: 5e-324, SendOverhead: 123456789e30, IORate: math.MaxFloat64}
			s.Makespan = 1e21
		})},
		{"MaxFloat64 op times", edit(func(s *Skeleton) {
			s.Procs[0][1].Dur, s.Procs[0][2].Dur, s.Procs[0][2].Wire = math.MaxFloat64, math.MaxFloat64, math.MaxFloat64
			s.Makespan = math.MaxFloat64
		})},
	}
	const storeKey = "app=<ffthist>&y|params=é|P=2"
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.sk.Encode()
			want, werr := oracleEncode(tc.sk)
			if err != nil || werr != nil || !bytes.Equal(got, want) {
				t.Fatalf("Encode (err %v, oracle %v):\n got %s\nwant %s", err, werr, got, want)
			}
			key, err := tc.sk.Key()
			wkey, werr := oracleKey(tc.sk)
			if err != nil || werr != nil || key != wkey {
				t.Fatalf("Key %s (err %v), oracle %s (err %v)", key, err, wkey, werr)
			}
			env, err := storeCodec.Encode(storeKey, tc.sk)
			wenv, werr := oracleStoreEncode(storeKey, tc.sk)
			if err != nil || werr != nil || !bytes.Equal(env, wenv) {
				t.Fatalf("store Encode (err %v, oracle %v):\n got %s\nwant %s", err, werr, env, wenv)
			}
			dec, err := Decode(got)
			wdec, werr := oracleDecode(got)
			if err != nil || werr != nil || !reflect.DeepEqual(dec, wdec) {
				t.Fatalf("Decode (err %v, oracle %v):\n got %+v\nwant %+v", err, werr, dec, wdec)
			}
			key, sdec, err := storeCodec.Decode(env)
			if err != nil || key != storeKey || !reflect.DeepEqual(sdec, wdec) {
				t.Fatalf("store Decode: key %q, err %v\n got %+v\nwant %+v", key, err, sdec, wdec)
			}
		})
	}

	nan := edit(func(s *Skeleton) { s.Makespan = math.NaN() })
	if _, err := nan.Encode(); err == nil {
		t.Error("Encode accepted a NaN makespan")
	}
	if _, err := oracleEncode(nan); err == nil {
		t.Error("the oracle accepted a NaN makespan")
	}
	if _, err := storeCodec.Encode(storeKey, nan); err == nil {
		t.Error("store Encode accepted a NaN makespan")
	}
}
